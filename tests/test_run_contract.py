"""The run contract under fuzz: every run ends in a declared exit code.

Each example draws a command, a config whose values come from the edges
of ``config._SCHEMA``'s intervals, values just inside them, and the
extremes 0, 5e-324, 1e-310, 1e+-150, 1e+-300, 1.7e308 and 1 - 2^-53, and
``--seed``, ``--trials`` and ``--format`` values, valid and bad, and whether
the artifact goes to a file (``--out``) or to stdout, and runs ``cli.main``
with every warning an error.  The run must exit 0-4 without an exception.
A failed run (1 or 4) prints exactly one stderr line and nothing to stdout,
and leaves the file byte-identical, and a bad flag value fails as a config
error.  Every artifact that a run writes (exit 0, 2 or 3) holds only finite
floats, and fidelities in [0, 1]; on stdout it is all that stdout gets, and
the file is left alone.  The three size keys are drawn
only at small values, so that every example stays cheap.
"""

import contextlib
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlight import cli, config

EXTREMES = (0.0, 5e-324, 1e-310, 1e-300, 1e-150, 1e150, 1e300, 1.7e308, 1.0 - 2.0**-53)
SIZE_KEYS = {"trials": (0, 1, 2, 3), "sweep.steps": (1, 2, 3, 4), "mb.max_grid": (0, 1, 2, 16)}
COMMANDS = ("derive", "entangle", "teleport", "sweep", "mb-validate")
# Stands in ``flags`` for the artifact path; a run without ``--out`` writes to stdout.
OUT = "<artifact>"
JSON, CSV = {"--format": "json", "--out": OUT}, {"--format": "csv", "--out": OUT}
# Each flag's (valid, bad) values.
FLAGS = {
    "--seed": (("0", "7", "18446744073709551615"), ("-1", "18446744073709551616", "abc", "1e3")),
    "--trials": (("1", "3"), ("0", "abc", "1e3")),
    "--format": (("json", "csv"), ("xml",)),
}

PHYSICAL = {
    "physical.lambda0": 6.283185307179586e-07,
    "physical.length": 0.02,
    "physical.rho": "5e12 cm^-3",
    "physical.gamma": 3.141592653589793e7,
    "physical.gamma_prime": 3.141592653589793e7,
    "physical.delta": 9.42477796076938e9,
}
SWEEP = {"sweep.min": 0.2, "sweep.max": 10.0, "sweep.steps": 3}

# A config error names its schema key or section; the sweep's row checks
# name their row by its kappa2 instead, and a teleport's gain calibration
# the local round whose pulse does not respond, by its kappa.
KEYED = re.compile(r"config error: ([a-z0-9_.]+): ")
ROW = re.compile(r"config error: (kappa must be finite and non-negative, got kappa1 = "
                 r"|gain calibration failed: ).* at (kappa2|local round [12]'s kappa) = ")
NAMES = set(config._SCHEMA) | {key.partition(".")[0] for key in config._SCHEMA}


def _interval(allowed):
    """(low, high) of an interval's text, with inf for an open end."""
    return tuple(float(config._bound(text)) for text in allowed[1:-1].split(", "))


def _candidates(key, row):
    """The values drawn for one schema key."""
    if key in SIZE_KEYS:
        return SIZE_KEYS[key]
    if row.kind is config._text:
        return tuple(row.allowed.split(" | ")) + ("other",)
    if row.kind is config._integer:
        low, high = _interval(row.allowed)
        values = {int(low) - 1, int(low), int(low) + 1}
        if math.isfinite(high):
            values |= {int(high) - 1, int(high), int(high) + 1}
        return tuple(sorted(values))
    values = set(EXTREMES)
    if row.allowed is None:
        values |= {-value for value in EXTREMES}
    else:
        for edge, inward in zip(_interval(row.allowed), (math.inf, -math.inf)):
            if math.isfinite(edge):
                values |= {edge, math.nextafter(edge, inward)}
    return tuple(sorted(values))


CANDIDATES = {key: _candidates(key, row) for key, row in config._SCHEMA.items()
              if key != "output.path"}


@st.composite
def runs(draw):
    """A command, its config mapping and its flags: ``--format``, maybe ``--out`` and others."""
    command = draw(st.sampled_from(COMMANDS))
    mapping = dict(PHYSICAL) if draw(st.booleans()) else {
        "channel.kappa": draw(st.sampled_from(CANDIDATES["channel.kappa"] + (1.0, 5.0)))
    }
    if command == "sweep":
        mapping.update(SWEEP)
    for key in draw(st.lists(st.sampled_from(sorted(CANDIDATES)), max_size=4, unique=True)):
        mapping[key] = draw(st.sampled_from(CANDIDATES[key]))
    flags = {flag: draw(st.sampled_from(sum(FLAGS[flag], ())))
             for flag in ("--seed", "--trials") if draw(st.booleans())}
    flags["--format"] = draw(st.sampled_from(sum(FLAGS["--format"], ())))
    if draw(st.booleans()):
        flags["--out"] = OUT
    return command, mapping, flags


def _check_value(key, value):
    if isinstance(value, dict):
        for name, item in value.items():
            _check_value(name, item)
    elif isinstance(value, list):
        for item in value:
            _check_value(key, item)
    elif isinstance(value, float):
        assert math.isfinite(value), (key, value)
        if key.startswith(("fidelity", "f_")):
            assert 0.0 <= value <= 1.0, (key, value)


def _check_artifact(text, fmt):
    if fmt == "json":
        def reject(token):
            raise AssertionError(f"non-finite JSON token {token}")

        _check_value("", json.loads(text, parse_constant=reject))
        return
    lines = [line for line in text.splitlines() if not line.startswith("# ")]
    header = lines[0].split(",")
    for line in lines[1:]:
        for key, cell in zip(header, line.split(",")):
            try:
                value = float(cell)
            except ValueError:  # a boolean or a missing closed form
                continue
            _check_value(key, value)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


OLD_ARTIFACT = b"an earlier artifact\n"


@given(run=runs())
@example(run=("sweep", {"channel.kappa": 1.0, "sweep.min": 1.0, "sweep.max": 1.7e308,
                        "sweep.steps": 2}, JSON))
@example(run=("entangle", {"channel.kappa": 5.0, "noise.eta_t": 1.0 - 2.0**-53,
                           "rounds.entangle1.kappa": 1e150}, JSON))
@example(run=("sweep", {"channel.kappa": 1.0, "sweep.min": 5.0, "sweep.max": 20000.0,
                        "sweep.steps": 3}, CSV))
@example(run=("teleport", {"channel.kappa": 5.0, "input.x": 1.7e308}, JSON))
@example(run=("derive", {**PHYSICAL, "physical.area": 1e150}, JSON))
@example(run=("derive", {**PHYSICAL, "physical.area": 1.7e308, "physical.na": 5e-324}, JSON))
@example(run=("teleport", {**PHYSICAL, "gain.x": -1e150, "gain.p": -1e150}, CSV))
@example(run=("sweep", {**PHYSICAL, **SWEEP, "protocol.kappa1_multiplier": 5e-324}, JSON))
@example(run=("derive", {**PHYSICAL, "physical.delta": 1e160}, JSON))
@example(run=("mb-validate", {**PHYSICAL, "physical.delta": 1e300}, CSV))
@example(run=("derive", {**PHYSICAL, "physical.lambda0": 1e-150}, JSON))
@example(run=("entangle", {**PHYSICAL, "physical.lambda0": 1e-120}, JSON))
@example(run=("mb-validate", {**PHYSICAL, "physical.rho": 1e-300}, JSON))
@example(run=("mb-validate", {**PHYSICAL, "physical.rho": 1e-310}, CSV))
@example(run=("mb-validate", {**PHYSICAL, "physical.gamma": 0.0, "physical.gamma_prime": 0.0,
                              "physical.g_coupling": 1e100}, JSON))
@example(run=("derive", {**PHYSICAL, "physical.gamma": 1e-200, "physical.gamma_prime": 1e-200,
                         "physical.g_coupling": 1e-3}, CSV))
@example(run=("entangle", {"channel.kappa": 5.0}, {**JSON, "--seed": "abc"}))
@example(run=("teleport", {"channel.kappa": 5.0}, {**CSV, "--trials": "1e3"}))
@example(run=("sweep", {"channel.kappa": 1.0, **SWEEP}, {"--format": "xml", "--out": OUT}))
@example(run=("sweep", {"channel.kappa": 1.0, **SWEEP}, {"--format": "json"}))
@example(run=("sweep", {"channel.kappa": 1.0, **SWEEP}, {"--format": "csv"}))
@example(run=("teleport", {"channel.kappa": 1e200}, {"--format": "json"}))
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
def test_every_run_ends_in_a_declared_exit_code(workdir, run):
    command, mapping, flags = run
    cfg = workdir / "run.cfg"
    cfg.write_text("".join(f"{key} = {value if isinstance(value, str) else repr(value)}\n"
                           for key, value in mapping.items()))
    out = workdir / "artifact"
    out.write_bytes(OLD_ARTIFACT)
    argv = [command, "--config", str(cfg)]
    for flag, value in flags.items():
        argv += [flag, str(out) if flag == "--out" else value]
    err, stdout = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(stdout):
        warnings.simplefilter("error")
        code = cli.main(argv)
    err, stdout = err.getvalue(), stdout.getvalue()
    assert code in range(5), (code, err)
    if any(value in FLAGS.get(flag, ((), ()))[1] for flag, value in flags.items()):
        assert code == cli.EXIT_USAGE, (code, err)
    if code in (cli.EXIT_USAGE, cli.EXIT_NUMERICAL):
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert out.read_bytes() == OLD_ARTIFACT and stdout == ""
        if code == cli.EXIT_NUMERICAL:
            assert err.startswith("numerical error: "), err
        else:
            keyed = KEYED.match(err)
            assert (keyed and keyed.group(1) in NAMES) or ROW.match(err), err
    elif "--out" in flags:  # exit 0, 2 or 3: the run wrote its artifact
        assert err == ""
        _check_artifact(out.read_text(), flags["--format"])
    else:  # stdout holds the artifact alone, and the file is left alone
        assert out.read_bytes() == OLD_ARTIFACT
        _check_artifact(stdout, flags["--format"])
