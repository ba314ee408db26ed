"""Golden CLI artifacts for fixed (config, seed) runs.

Regenerate with
``PYTHONPATH=src python tests/golden/capture.py [--format json|csv] [CASE ...]``
from the repository root.  Each case runs ``spinlight.cli.main`` on one of
the configs below, once per artifact format, and stores the artifact bytes as
``<case>.json`` and ``<case>.csv``; the exit code of every run goes to
``exit_codes.json``, keyed ``<case>`` for JSON and ``<case>.csv`` for CSV.
Named cases are recaptured alone, and ``--format`` keeps a recapture to one
format; only the keys of the runs made are rewritten in ``exit_codes.json``.
With neither, every case is recaptured in both formats.
``tests/test_golden.py`` re-runs the cases and compares against these files.
"""

import argparse
import json
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


FORMATS = ("json", "csv")


def exit_code_key(name, fmt):
    return name if fmt == "json" else f"{name}.{fmt}"


def run_case(name, workdir, fmt="json"):
    """Run one case in ``workdir``; returns (exit code, artifact bytes or None).

    ``fmt`` other than ``json`` (the default format) is passed as ``--format``.
    """
    from spinlight.cli import main

    config, argv = CASES[name]
    workdir = Path(workdir)
    cfg = workdir / f"{config}.cfg"
    cfg.write_text(CONFIGS[config])
    out = workdir / f"{name}.{fmt}"
    if out.exists():
        out.unlink()
    flags = [] if fmt == "json" else ["--format", fmt]
    code = main(argv + flags + ["--config", str(cfg), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


def main(argv=()):
    parser = argparse.ArgumentParser(description="Recapture the golden CLI artifacts.")
    parser.add_argument("--format", choices=FORMATS, help="recapture only this format")
    parser.add_argument("names", nargs="*", metavar="CASE", help="recapture only these cases")
    args = parser.parse_args(argv)
    names = args.names
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}")
    codes_path = HERE / "exit_codes.json"
    codes = json.loads(codes_path.read_text()) if names or args.format else {}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in [args.format] if args.format else FORMATS:
            for name in names or CASES:
                code, data = run_case(name, tmp, fmt)
                codes[exit_code_key(name, fmt)] = code
                target = HERE / f"{name}.{fmt}"
                if data is None:
                    target.unlink(missing_ok=True)
                else:
                    target.write_bytes(data)
    codes_path.write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
