"""Golden CLI artifacts for fixed (config, seed) runs, and the rules they are held to.

Regenerate with
``PYTHONPATH=src python tests/golden/capture.py [--format json|csv] [CASE ...]``
from the repository root.  Each case runs ``spinlight.cli.main`` on one of
the configs below, once per artifact format, and stores the artifact bytes as
``<case>.json`` and ``<case>.csv``; the exit code of every run goes to
``exit_codes.json``, keyed ``<case>`` for JSON and ``<case>.csv`` for CSV.
Named cases are recaptured alone, and ``--format`` keeps a recapture to one
format; only the keys of the runs made are rewritten in ``exit_codes.json``.
With neither, every case is recaptured in both formats.
``tests/test_golden.py`` re-runs the cases and holds them to these files
byte for byte.

:func:`match` serves ``--compare``'s report of how far a change moved the
artifacts.  Its rules: ``derive`` artifacts must be byte-identical.
Elsewhere the artifacts may move in the last digits, as they do when the
engine's sums change order: JSON keys, strings, booleans and integers (so every
``is_argmax`` row and every grid size) must match exactly, floats within
``REL_TOL`` relative; in CSV the ``#`` echo lines and the header exactly,
integer and non-numeric cells exactly and the other numeric cells within
``REL_TOL`` relative.

``--into DIR`` writes the artifacts and ``exit_codes.json`` to DIR (made if
missing) instead of this directory.  ``--compare A B`` reads two such trees,
say one captured with each checkout's package on ``PYTHONPATH``::

    PYTHONPATH=../parent/src python tests/golden/capture.py --into /tmp/parent
    PYTHONPATH=src python tests/golden/capture.py --into /tmp/change
    python tests/golden/capture.py --compare /tmp/parent /tmp/change

and prints one line per file: ``identical``, ``close`` (within the rules of
:func:`match`, with how many of the floats it compared moved and their largest
relative change) or ``different`` (with the first broken rule, or the tree the
file is missing from).  ``exit_codes.json`` is compared as a mapping, so the
order of its keys does not count, and a changed code is named by its key.  It
exits 0 unless a file is different.
"""

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The two configs from README.md: the reference physical operating point
# (kappa = 5, eps_p = eps_a = 1/120) and the lossy teleportation sweep.
CONFIGS = {
    "reference": """\
physical.lambda0 = 6.283185307179586e-07
physical.length = 0.02
physical.rho = 5e12 cm^-3
physical.gamma = 3.141592653589793e7
physical.gamma_prime = 3.141592653589793e7
physical.delta = 9.42477796076938e9
""",
    "lossy": """\
channel.kappa = 1.0
noise.eta_t = 0.2
sweep.min = 0.2
sweep.max = 10.0
sweep.steps = 200
seed = 42
""",
    # Damped, high-loss corner: kappa1 reaches 100 at the top of the sweep.
    "corner": """\
channel.kappa = 1.0
channel.eps_p = 0.008333333333333333
channel.eps_a = 0.008333333333333333
noise.eta_t = 0.05
noise.eta_d = 0.05
sweep.min = 0.2
sweep.max = 10.0
sweep.steps = 200
seed = 42
""",
}
# The lossy config under damping and detector loss, with a manual gain and a
# nonzero input mean: the one case whose fidelity varies from trial to trial.
CONFIGS["gain"] = CONFIGS["lossy"] + """\
channel.eps_p = 0.01
channel.eps_a = 0.02
noise.eta_d = 0.05
input.x = 0.7
input.p = -0.4
gain.x = 0.9
gain.p = -1.1
"""
# The lossy config under damping and detector loss, with its own local
# transmission loss and a stronger second local round: the one config whose
# local Bell measurement differs from the entangling one.
CONFIGS["local"] = CONFIGS["lossy"] + """\
channel.eps_p = 0.01
channel.eps_a = 0.02
noise.eta_d = 0.05
noise.eta_t_local = 0.35
rounds.local2.kappa = 3.0
"""

COMMANDS = ("derive", "entangle", "teleport", "sweep", "mb-validate")

# Sampled subcommands run several trials so every record row is covered.
TRIAL_FLAGS = {"entangle": ["--trials", "3"], "teleport": ["--trials", "3"]}

CASES = {
    f"{command}-{config}": (config, [command] + TRIAL_FLAGS.get(command, []))
    for config in ("reference", "lossy")
    for command in COMMANDS
}
CASES["sweep-corner"] = ("corner", ["sweep"])
CASES["teleport-gain"] = ("gain", ["teleport", "--trials", "64"])
CASES["teleport-local"] = ("local", ["teleport", "--trials", "3"])
CASES["sweep-local"] = ("local", ["sweep"])


FORMATS = ("json", "csv")


def exit_code_key(name, fmt):
    return name if fmt == "json" else f"{name}.{fmt}"


def case_argv(name, workdir, fmt="json"):
    """The command line of one case in ``workdir``, without ``--out``; writes its config.

    ``fmt`` other than ``json`` (the default format) is passed as ``--format``.
    """
    config, argv = CASES[name]
    cfg = Path(workdir) / f"{config}.cfg"
    cfg.write_text(CONFIGS[config])
    flags = [] if fmt == "json" else ["--format", fmt]
    return argv + flags + ["--config", str(cfg)]


def run_case(name, workdir, fmt="json"):
    """Run one case in ``workdir``; returns (exit code, artifact bytes or None)."""
    from spinlight.cli import main

    out = Path(workdir) / f"{name}.{fmt}"
    if out.exists():
        out.unlink()
    code = main(case_argv(name, workdir, fmt) + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


BYTE_IDENTICAL = ("derive",)
REL_TOL = 1e-11


def _require(condition, message):
    """Raise AssertionError with ``message`` unless ``condition`` (kept under -O)."""
    if not condition:
        raise AssertionError(message)


def _close_float(got, want, where, changes):
    _require(math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0),
             f"{where}: {got!r} != {want!r}")
    changes.append(0.0 if got == want else abs(got - want) / max(abs(got), abs(want)))


def _close_json(got, want, path, changes):
    _require(type(got) is type(want),
             f"{path}: {type(got).__name__} != {type(want).__name__}")
    if isinstance(want, dict):
        _require(list(got) == list(want), f"{path}: keys differ")
        for key in want:
            _close_json(got[key], want[key], f"{path}.{key}", changes)
    elif isinstance(want, list):
        _require(len(got) == len(want), f"{path}: lengths differ")
        for i, (g, w) in enumerate(zip(got, want)):
            _close_json(g, w, f"{path}[{i}]", changes)
    elif isinstance(want, float):
        _close_float(got, want, path, changes)
    else:
        _require(got == want, f"{path}: {got!r} != {want!r}")


def _close_csv(got, want, changes):
    got_lines, want_lines = got.decode().split("\n"), want.decode().split("\n")
    _require(len(got_lines) == len(want_lines), "line counts differ")
    echo = sum(line.startswith("#") for line in want_lines)
    # The echo lines and the header line.
    _require(got_lines[:echo + 1] == want_lines[:echo + 1], "echo or header lines differ")
    for number, (got_line, want_line) in enumerate(zip(got_lines, want_lines)):
        if number <= echo:
            continue
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        _require(len(got_cells) == len(want_cells), f"line {number + 1}: cell counts differ")
        for column, (g, w) in enumerate(zip(got_cells, want_cells)):
            where = f"line {number + 1}, column {column + 1}"
            try:
                value = float(w)
            except ValueError:
                value = None
            if value is None or w.lstrip("-").isdigit():
                _require(g == w, f"{where}: {g!r} != {w!r}")
            else:
                _close_float(float(g), value, where, changes)


def match(name, fmt, got, want):
    """Hold artifact bytes ``got`` of case ``name`` in format ``fmt`` to ``want``.

    Raises AssertionError naming the first broken rule; returns how many
    floats it compared within ``REL_TOL``, how many of them changed, and
    their largest relative change (0.0 if none did).
    """
    if CASES[name][1][0] in BYTE_IDENTICAL:
        _require(got == want, "bytes differ")
        return 0, 0, 0.0
    changes = []
    if fmt == "json":
        _close_json(json.loads(got), json.loads(want), "$", changes)
    else:
        _close_csv(got, want, changes)
    return len(changes), sum(change > 0.0 for change in changes), max(changes, default=0.0)


def _compare_codes(old, new):
    """Verdict on two ``exit_codes.json`` mappings: their key order does not count."""
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            return f"different: {key}: {new.get(key)!r} != {old.get(key)!r}"
    return "identical"


def compare(first, second):
    """Print how each artifact of capture tree ``second`` stands to ``first``.

    Reads the artifacts of :data:`CASES` and ``exit_codes.json`` that either
    tree holds.  Returns True if none is different.
    """
    same = True
    names = [f"{name}.{fmt}" for name in CASES for fmt in FORMATS] + ["exit_codes.json"]
    for file_name in sorted(names):
        old, new = first / file_name, second / file_name
        name, _, fmt = file_name.rpartition(".")
        if not (old.exists() or new.exists()):
            continue
        if not (old.exists() and new.exists()):
            verdict = f"different: missing from {first if new.exists() else second}"
        elif old.read_bytes() == new.read_bytes():
            verdict = "identical"
        elif name not in CASES:
            verdict = _compare_codes(json.loads(old.read_text()), json.loads(new.read_text()))
        else:
            try:
                compared, moved, largest = match(name, fmt, new.read_bytes(), old.read_bytes())
                verdict = (f"close: {moved} of {compared} floats moved, "
                           f"largest relative change {largest:.2g}")
            except AssertionError as exc:
                verdict = f"different: {exc}"
        same = same and not verdict.startswith("different")
        print(f"{file_name}: {verdict}")
    return same


def main(argv=()):
    parser = argparse.ArgumentParser(description="Recapture the golden CLI artifacts.")
    parser.add_argument("--format", choices=FORMATS, help="recapture only this format")
    parser.add_argument("--into", type=Path, default=HERE, metavar="DIR",
                        help="write the artifacts and exit codes to DIR")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="classify each artifact of capture tree B against tree A")
    parser.add_argument("names", nargs="*", metavar="CASE", help="recapture only these cases")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    names = args.names
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}")
    args.into.mkdir(parents=True, exist_ok=True)
    codes_path = args.into / "exit_codes.json"
    partial = (names or args.format) and codes_path.exists()
    codes = json.loads(codes_path.read_text()) if partial else {}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in [args.format] if args.format else FORMATS:
            for name in names or CASES:
                code, data = run_case(name, tmp, fmt)
                codes[exit_code_key(name, fmt)] = code
                target = args.into / f"{name}.{fmt}"
                if data is None:
                    target.unlink(missing_ok=True)
                else:
                    target.write_bytes(data)
    codes_path.write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
