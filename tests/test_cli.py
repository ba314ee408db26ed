import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlight import DegeneracyError, Grid, cli, simulated_lossy_fidelity
from spinlight.cli import main
from spinlight.config import parse_config_text, resolve_run_config
from conftest import reference_csv_text, reference_json_text

IDEAL = """
channel.kappa = 5.0
seed = 42
"""

PHYSICAL = """
physical.lambda0 = 6.283185307179586e-07
physical.length = 0.02
physical.rho = 5e12 cm^-3
physical.gamma = 3.141592653589793e7
physical.gamma_prime = 3.141592653589793e7
physical.delta = 9.42477796076938e9
"""

SWEEP = PHYSICAL + """
noise.eta_t = 0.2
sweep.min = 0.2
sweep.max = 10.0
sweep.steps = 120
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _run(args):
    return main(args)


# ---------------------------------------------------------------------------
# derive


def test_derive_reference_regime(tmp_path, capsys):
    cfg = _write(tmp_path, "run.cfg", PHYSICAL)
    out = tmp_path / "derive.json"
    assert _run(["derive", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kappa"] == pytest.approx(5.0, rel=1e-6)
    assert payload["eps_p"] < 0.01
    assert payload["regime_pass"] is True
    assert payload["config"]["physical.rho"] == pytest.approx(5e18)


def test_derive_warns_outside_regime(tmp_path):
    text = PHYSICAL.replace("9.42477796076938e9", "9.42477796076938e8")  # 30 gamma
    cfg = _write(tmp_path, "run.cfg", text)
    assert _run(["derive", "--config", cfg, "--out", str(tmp_path / "d.json")]) == 2


@pytest.mark.filterwarnings("error")
def test_derive_at_tiny_decay_rates_writes_the_kappa_identity(tmp_path, capsys):
    # gamma * gamma' = 1e-400 underflows to 0; the identity still gives kappa.
    text = PHYSICAL.replace("3.141592653589793e7", "1e-200") + "physical.g_coupling = 1e-3\n"
    out = tmp_path / "derive.json"
    assert _run(["derive", "--config", _write(tmp_path, "run.cfg", text), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads(out.read_text())
    assert payload["kappa_identity"] == payload["kappa"] == 4.447521269308693e-16
    assert all(math.isfinite(value) for value in payload.values() if isinstance(value, float))


def test_csv_writes_a_missing_value_as_an_empty_cell(tmp_path):
    # JSON writes null where the lossless identity 2 sqrt(eps_p eps_a) Delta /
    # sqrt(gamma gamma') is undefined; CSV leaves the cell empty, not "None".
    text = (PHYSICAL.replace("3.141592653589793e7", "0.0")
            + "physical.g_coupling = 1e-3\n")
    cfg = _write(tmp_path, "run.cfg", text)
    out_json, out_csv = tmp_path / "derive.json", tmp_path / "derive.csv"
    assert _run(["derive", "--config", cfg, "--out", str(out_json)]) == 0
    assert _run(["derive", "--config", cfg, "--format", "csv", "--out", str(out_csv)]) == 0
    assert json.loads(out_json.read_text())["kappa_identity"] is None
    header, row = out_csv.read_text().splitlines()[-2:]
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["kappa_identity"] == ""
    assert "None" not in out_csv.read_text()


def test_derive_density_alias_gives_identical_artifact(tmp_path):
    cfg_alias = _write(tmp_path, "alias.cfg", PHYSICAL)
    cfg_si = _write(tmp_path, "si.cfg", PHYSICAL.replace("5e12 cm^-3", "5e18"))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert _run(["derive", "--config", cfg_alias, "--out", str(out_a)]) == 0
    assert _run(["derive", "--config", cfg_si, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_inconsistent_channel_and_physical_exits_1(tmp_path):
    cfg = _write(tmp_path, "run.cfg", PHYSICAL + "channel.kappa = 4.0\n")
    assert _run(["derive", "--config", cfg]) == 1


def test_missing_config_file_exits_1(tmp_path):
    assert _run(["derive", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_unknown_key_exits_1(tmp_path, capsys):
    # physical.t, a pulse duration that nothing read, is no longer a key.
    for key in ("mystery.key", "physical.t"):
        cfg = _write(tmp_path, "run.cfg", IDEAL + f"{key} = 1\n")
        assert _run(["entangle", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"config error: {key}: unknown key\n"


BAD_VALUES = [
    ("entangle", IDEAL + "channel.eps_p = 1.5\n", [], "channel.eps_p"),
    ("entangle", "channel.kappa = -1\n", [], "channel.kappa"),
    ("derive", PHYSICAL.replace("lambda0 = 6.283185307179586e-07", "lambda0 = -1"), [],
     "physical.lambda0"),
    ("teleport", IDEAL + "rounds.local1.eta_d = 1.0\n", [], "rounds.local1.eta_d"),
    ("sweep", SWEEP + "protocol.kappa1_multiplier = -1\n", [], "protocol.kappa1_multiplier"),
    ("sweep", SWEEP.replace("sweep.max = 10.0\n", ""), [], "sweep.max"),
    ("teleport", IDEAL + "gain.x = 1.0\n", [], "gain.p"),
    ("mb-validate", PHYSICAL + "mb.tol_kappa = -1\n", [], "mb.tol_kappa"),
    # one past each resource cap
    ("teleport", IDEAL, ["--trials", "100001"], "trials"),
    ("sweep", SWEEP.replace("sweep.steps = 120", "sweep.steps = 1000001"), [], "sweep.steps"),
    ("mb-validate", PHYSICAL + "mb.max_grid = 4194305\n", [], "mb.max_grid"),
]


@pytest.mark.parametrize("command, text, flags, key", BAD_VALUES,
                         ids=[case[-1] for case in BAD_VALUES])
def test_a_bad_value_exits_1_naming_its_key(tmp_path, capsys, command, text, flags, key):
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "run.json"
    assert _run([command, "--config", cfg, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, line", [
    ("--seed", "abc", "seed: expected an integer, got 'abc'"),
    ("--seed", "-1", "seed: must lie in [0, 2^64), got -1"),
    ("--trials", "1e3", "trials: expected an integer, got 1000.0"),
    ("--format", "xml", "output.format: must be one of json | csv, got 'xml'"),
], ids=["seed-text", "seed-negative", "trials-float", "format-xml"])
def test_a_bad_flag_value_exits_1_naming_its_key(tmp_path, capsys, flag, value, line):
    # A flag is read as the key's value in the file is.
    cfg = _write(tmp_path, "run.cfg", IDEAL)
    out = tmp_path / "run.json"
    assert _run(["entangle", "--config", cfg, "--out", str(out), flag, value]) == 1
    assert capsys.readouterr() == ("", f"config error: {line}\n")
    assert not out.exists()


def test_an_output_path_is_kept_as_written(tmp_path, monkeypatch):
    # 2024.10 is the path's text, not the number 2024.1.
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "run.cfg", IDEAL + "output.path = 2024.10\n")
    assert _run(["entangle", "--config", cfg]) == 0
    assert _run(["entangle", "--config", cfg, "--out", "0010", "--format", "csv"]) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == ["0010", "2024.10", "run.cfg"]


# ---------------------------------------------------------------------------
# entangle


def test_entangle_ideal_values(tmp_path):
    cfg = _write(tmp_path, "run.cfg", IDEAL)
    out = tmp_path / "ent.json"
    assert _run(["entangle", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["epr_x"] == pytest.approx(1.0 / 51.0, abs=1e-9)
    assert payload["epr_p"] == pytest.approx(1.0 / 51.0, abs=1e-9)
    assert payload["r"] == pytest.approx(0.5 * math.log(51.0), abs=1e-9)
    assert payload["seed"] == 42


def test_entangle_zero_kappa(tmp_path):
    cfg = _write(tmp_path, "run.cfg", "channel.kappa = 0.0\nseed = 1\n")
    out = tmp_path / "ent.json"
    assert _run(["entangle", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["epr_x"] == pytest.approx(1.0, abs=1e-12)


def test_entangle_monte_carlo_stats(tmp_path):
    cfg = _write(tmp_path, "run.cfg", IDEAL + "trials = 64\n")
    out = tmp_path / "ent.json"
    assert _run(["entangle", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == 64
    assert len(payload["records"]) == 64
    # round-1 outcomes are N(0, (1 + 2 kappa^2)/2) draws; loose sanity bounds
    var = payload["monte_carlo"]["round1_var"]
    assert 0.3 * 25.5 < var < 2.5 * 25.5


def test_same_seed_byte_identical_artifacts(tmp_path):
    cfg = _write(tmp_path, "run.cfg", IDEAL + "trials = 5\n")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert _run(["entangle", "--config", cfg, "--out", str(out_a)]) == 0
    assert _run(["entangle", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_trial_streams_of_neighbouring_seeds_do_not_collide(tmp_path):
    # Each run draws from one generator on its seed, so trial 1 of seed 0 is
    # not trial 0 of seed 1, as it was when a trial's seed was seed XOR trial.
    cfg = _write(tmp_path, "run.cfg", IDEAL)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert _run(["entangle", "--config", cfg, "--seed", "0", "--trials", "2",
                 "--out", str(out_a)]) == 0
    assert _run(["entangle", "--config", cfg, "--seed", "1", "--trials", "1",
                 "--out", str(out_b)]) == 0
    second = json.loads(out_a.read_text())["records"][1]["outcomes"]
    first = json.loads(out_b.read_text())["records"][0]["outcomes"]
    assert [row["outcome"] for row in second] != [row["outcome"] for row in first]


def test_seed_flag_overrides_env_overrides_file(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "run.cfg", IDEAL + "trials = 2\n")
    out_file = tmp_path / "file.json"
    out_env = tmp_path / "env.json"
    out_flag = tmp_path / "flag.json"

    assert _run(["entangle", "--config", cfg, "--out", str(out_file)]) == 0
    monkeypatch.setenv("SPINLIGHT_SEED", "7")
    assert _run(["entangle", "--config", cfg, "--out", str(out_env)]) == 0
    assert _run(["entangle", "--config", cfg, "--seed", "9", "--out", str(out_flag)]) == 0

    assert json.loads(out_file.read_text())["seed"] == 42
    assert json.loads(out_env.read_text())["seed"] == 7
    assert json.loads(out_flag.read_text())["seed"] == 9


def test_entangle_csv_format(tmp_path):
    cfg = _write(tmp_path, "run.cfg", IDEAL + "trials = 2\n")
    out = tmp_path / "ent.csv"
    assert _run(["entangle", "--config", cfg, "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    config_lines = [l for l in lines if l.startswith("# ")]
    assert any("channel.kappa" in l for l in config_lines)
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",")[0] == "trial"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 2


# ---------------------------------------------------------------------------
# teleport


def test_teleport_ideal(tmp_path):
    cfg = _write(tmp_path, "run.cfg", IDEAL)
    out = tmp_path / "tel.json"
    assert _run(["teleport", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    f_closed = 1.0 / (1.0 + 1.0 / 51.0 + 1.0 / 50.0)
    assert payload["fidelity_simulated"] == pytest.approx(f_closed, abs=1e-6)
    assert payload["fidelity_ideal_closed_form"] == pytest.approx(f_closed, rel=1e-12)
    assert payload["classical_bound_exceeded"] is True


def test_teleport_lossy_operating_point(tmp_path):
    text = IDEAL + (
        "noise.eta_t = 0.2\n"
        "rounds.entangle1.kappa = 14.953487812212205\n"
        "rounds.entangle2.kappa = 1.4953487812212205\n"
        "rounds.local1.kappa = 1.4953487812212205\n"
        "rounds.local2.kappa = 14.953487812212205\n"
        "channel.kappa = 1.4953487812212205\n"
    )
    cfg = _write(tmp_path, "run.cfg", text.replace("channel.kappa = 5.0\n", ""))
    out = tmp_path / "tel.json"
    assert _run(["teleport", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["fidelity_simulated"] == pytest.approx(0.691, abs=0.014)
    assert payload["classical_bound_exceeded"] is True


def test_teleport_high_loss_near_classical_boundary(tmp_path):
    text = (
        "channel.kappa = 0.5\n"
        "noise.eta_t = 0.9\n"
        "seed = 1\n"
    )
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "tel.json"
    assert _run(["teleport", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["fidelity_simulated"] < 0.52


@pytest.mark.parametrize("command, pushes", [("entangle", 1), ("teleport", 2)])
def test_all_trials_share_one_push_per_stage(tmp_path, monkeypatch, command, pushes):
    # The covariances and the gain do not depend on the outcomes, so a run
    # pushes each Bell channel once, however many trials it has.
    from spinlight import protocols

    real, calls = protocols._push_bell, []

    def spy(*args):
        # The factor's trailing axis holds the operating points, not trials.
        factor = real(*args)
        calls.append(factor.shape[2:])
        return factor

    monkeypatch.setattr(protocols, "_push_bell", spy)
    cfg = _write(tmp_path, "run.cfg", IDEAL + "trials = 64\n")
    out = tmp_path / "run.json"
    assert _run([command, "--config", cfg, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["records"]) == 64
    assert calls == [(1,)] * pushes


# ---------------------------------------------------------------------------
# sweep


def test_sweep_finds_optimum(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SWEEP)
    out = tmp_path / "sweep.csv"
    assert _run(["sweep", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 120
    best = next(r for r in rows if r["is_argmax"] == "true")
    step = (10.0 - 0.2) / 119
    assert abs(float(best["kappa2"]) - 0.2 ** -0.25) <= step
    assert float(best["f_simulated"]) == pytest.approx(
        1.0 / (1.0 + math.sqrt(0.2)), rel=0.02
    )


def test_sweep_requires_sweep_section(tmp_path):
    cfg = _write(tmp_path, "run.cfg", IDEAL)
    assert _run(["sweep", "--config", cfg]) == 1


@pytest.mark.parametrize("extra, message", [
    ("protocol.kappa1_multiplier = 0.0\n",
     "gain calibration failed: measurement outcomes do not respond to the input "
     "mean at kappa2 = 0.2 (kappa too small?)"),
    ("noise.eta_d = 1.0\n", "noise.eta_d: must lie in [0, 1), got 1.0"),
    ("noise.eta_t_local = -0.1\n", "noise.eta_t_local: must lie in [0, 1), got -0.1"),
])
def test_sweep_rejects_a_bad_row_or_setting_with_exit_1(tmp_path, capsys, extra, message):
    cfg = _write(tmp_path, "run.cfg", SWEEP + extra)
    out = tmp_path / "sweep.json"
    assert _run(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_sweep_json_deterministic(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SWEEP.replace("sweep.steps = 120",
                                                    "sweep.steps = 40"))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert _run(["sweep", "--config", cfg, "--out", str(out_a)]) == 0
    assert _run(["sweep", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_calls_the_sweep_once_per_run(tmp_path, monkeypatch):
    # The whole kappa2 column is one lossy_fidelity_sweep call, the traced
    # public sweep.
    calls = []
    real = cli.lossy_fidelity_sweep

    def spy(kappa2_values, *args, **kwargs):
        calls.append(list(kappa2_values))
        return real(kappa2_values, *args, **kwargs)

    monkeypatch.setattr(cli, "lossy_fidelity_sweep", spy)
    cfg = _write(tmp_path, "run.cfg", SWEEP)
    assert _run(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep.json")]) == 0
    assert [len(values) for values in calls] == [120]


# ---------------------------------------------------------------------------
# mb-validate


def test_mb_validate_reference_regime(tmp_path):
    cfg = _write(tmp_path, "run.cfg", PHYSICAL + "mb.max_grid = 16\n")
    out = tmp_path / "mb.csv"
    assert _run(["mb-validate", "--config", cfg, "--format", "csv",
                 "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [int(r["grid"]) for r in rows] == [4, 8, 16]
    final = rows[-1]
    assert float(final["dev_kappa"]) < 0.01
    assert float(final["dev_eps_p"]) < 0.05
    # coarse grids drift more than fine ones (recorded, non-fatal)
    assert float(rows[0]["dev_kappa"]) >= float(rows[-1]["dev_kappa"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho", ["1e-200", "1e-300", "1e-310"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_mb_validate_at_a_vanishing_density_writes_finite_floats(tmp_path, capsys, rho, fmt):
    # sqrt(Np Na) underflows at each density, so kappa is 0 and its deviation
    # is the effective value, as an eps of 0 gives; at 1e-200 and 1e-300 the
    # nonzero expm1(h) of the damping also squares to 0.
    cfg = _write(tmp_path, "run.cfg", PHYSICAL.replace("5e12 cm^-3", rho))
    out = tmp_path / f"mb.{fmt}"
    assert _run(["mb-validate", "--config", cfg, "--format", fmt, "--out", str(out)]) in (0, 3)
    assert capsys.readouterr().err == ""
    if fmt == "json":
        rows = json.loads(out.read_text())["rows"]
        cells = [value for row in rows for value in row.values()]
    else:
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        cells = [float(cell) for line in lines[1:] for cell in line.split(",")]
    assert len(cells) == 50 and all(math.isfinite(cell) for cell in cells)


def test_mb_validate_large_grid(tmp_path):
    # 256^2 needs no dense transfer map (that would be 2.1 GB of noise
    # coefficients), so the ladder runs to the top at the reference point.
    cfg = _write(tmp_path, "run.cfg", PHYSICAL + "mb.max_grid = 256\n")
    out = tmp_path / "mb.json"
    assert _run(["mb-validate", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["grid"] for row in rows] == [4, 8, 16, 32, 64, 128, 256]


def test_mb_validate_lossless_is_exact(tmp_path):
    text = PHYSICAL + (
        "physical.gamma = 0.0\n"
        "physical.gamma_prime = 0.0\n"
        "physical.g_coupling = 1e-4\n"
        "mb.max_grid = 8\n"
    )
    text = text.replace("physical.gamma = 3.141592653589793e7\n", "")
    text = text.replace("physical.gamma_prime = 3.141592653589793e7\n", "")
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "mb.json"
    assert _run(["mb-validate", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for row in payload["rows"]:
        assert row["dev_kappa"] < 1e-12


def test_mb_validate_makes_one_extraction_call_per_run(tmp_path, monkeypatch):
    # The whole ladder goes through one batched extraction, and the table
    # rows are its fields as they stand.
    from spinlight import ChannelParams, extract_collective_grids

    real, calls = cli.extract_collective_grids, []

    def spy(channel, grids):
        calls.append([(grid.n_z, grid.n_tau) for grid in grids])
        return real(channel, grids)

    monkeypatch.setattr(cli, "extract_collective_grids", spy)
    cfg = _write(tmp_path, "run.cfg", PHYSICAL + "mb.min_grid = 2\nmb.max_grid = 128\n")
    out = tmp_path / "mb.json"
    assert _run(["mb-validate", "--config", cfg, "--out", str(out)]) == 0
    sizes = [2, 4, 8, 16, 32, 64, 128]
    assert calls == [[(n, n) for n in sizes]]

    payload = json.loads(out.read_text())
    channel = ChannelParams(kappa=payload["kappa_analytic"], eps_p=payload["eps_p_analytic"],
                            eps_a=payload["eps_a_analytic"])
    grids = [Grid(n_z=n, n_tau=n) for n in sizes]
    assert [row["grid"] for row in payload["rows"]] == sizes
    for row, extraction in zip(payload["rows"], extract_collective_grids(channel, grids)):
        for field in ("kappa_eff", "eps_p_eff", "eps_a_eff", "signal_leak",
                      "noise_var_light_x", "noise_var_atom_x"):
            assert row[field] == getattr(extraction, field), (row["grid"], field)


def test_mb_validate_eps_columns_against_50_digits(tmp_path):
    # eps_*_eff = 1 - (1 - eps / n)^n and dev_eps_* = |eps_*_eff - eps| / eps
    # on the reference ladder, against 50 digits.  dev_eps is a difference
    # of nearly equal numbers, so it shows any rounding in eps_*_eff about
    # 300 times enlarged.
    import mpmath

    cfg = _write(tmp_path, "run.cfg", PHYSICAL)
    out = tmp_path / "mb.json"
    assert _run(["mb-validate", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    with mpmath.workdps(50):
        for row in payload["rows"]:
            for channel in ("p", "a"):
                eps = mpmath.mpf(payload[f"eps_{channel}_analytic"])
                exact = 1 - (1 - eps / row["grid"]) ** row["grid"]
                assert abs(row[f"eps_{channel}_eff"] / exact - 1) <= 1e-15
                assert abs(row[f"dev_eps_{channel}"] / (abs(exact - eps) / eps) - 1) <= 1e-13


def test_mb_validate_tolerance_failure_exit_code(tmp_path):
    cfg = _write(tmp_path, "run.cfg", PHYSICAL + "mb.max_grid = 8\nmb.tol_kappa = 1e-6\n")
    assert _run(["mb-validate", "--config", cfg, "--out",
                 str(tmp_path / "mb.json")]) == 3


# ---------------------------------------------------------------------------
# usage


def test_usage_error_exit_code():
    assert _run(["entangle"]) == 1
    assert _run(["frobnicate", "--config", "x"]) == 1


@pytest.mark.parametrize("command", ["entangle", "teleport"])
def test_numerical_failure_exits_4(tmp_path, capsys, monkeypatch, command):
    # A run whose pair covariance rounding drove unphysical: reported as
    # numerical, not as a config error, and no artifact is written.
    from spinlight import protocols

    def degenerate_run(*args):
        cov = 0.5 * np.eye(4)
        cov[0, 2] = cov[2, 0] = 0.75
        return protocols._report(cov)

    monkeypatch.setattr(cli, "run_trials", degenerate_run)
    cfg = _write(tmp_path, "run.cfg", IDEAL)
    out = tmp_path / "run.json"
    assert _run([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_NUMERICAL == 4
    assert capsys.readouterr() == (
        "", "numerical error: non-positive EPR variance: epr_x = -0.5, epr_p = 1.0\n"
    )
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text", [
    ("entangle", "channel.kappa = 1e200\n"),
    ("teleport", "channel.kappa = 1e200\n"),
    ("sweep", "channel.kappa = 1.0\nnoise.eta_t = 0.2\nsweep.min = 0.2\n"
              "sweep.max = 1e200\nsweep.steps = 20\n"),
])
def test_overflowed_run_exits_4(tmp_path, capsys, command, text):
    # A kappa so large that the pushed covariance overflows is a numerical
    # failure, not a config error: the measured variance is not finite.  The
    # one-line error is all that stderr gets; any numpy warning fails the test.
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "run.json"
    assert _run([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error: measured quadrature has non-finite variance ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_overflowed_sweep_row_exits_4(tmp_path, capsys):
    # At kappa2 = 1e-200 the calibrated gain (~1e200) overflows the averaged
    # output covariance to inf, where the overlap's 0 * inf would read nan: a
    # numerical failure, not a bad config.  At 1e-120 every entry is finite
    # and the row's fidelity underflows to 0.0.
    text = "channel.kappa = 1.0\nsweep.min = {}\nsweep.max = 1e-100\nsweep.steps = 3\n"
    out = tmp_path / "sweep.json"
    cfg = _write(tmp_path, "run.cfg", text.format("1e-200"))
    assert _run(["sweep", "--config", cfg, "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr() == (
        "", "numerical error: overlap matrix has a non-finite entry at kappa2 = 1e-200\n"
    )
    assert not out.exists()
    cfg = _write(tmp_path, "run.cfg", text.format("1e-120"))
    assert _run(["sweep", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["points"][0]["f_simulated"] == 0.0


# Stands in an expected error line for a figure that rounding puts above 1
# and the sweep row it names: "<figure> at kappa2 = <row>".
ABOVE_ONE = "{above one}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text, code, line", [
    # kappa1 = 10 kappa2 overflows: a bad row of the config.
    ("sweep", "channel.kappa = 1.0\nsweep.min = 1.0\nsweep.max = 1.7e308\nsweep.steps = 2\n",
     1, "config error: kappa must be finite and non-negative, got kappa1 = inf at "
        "kappa2 = 1.7e+308"),
    # The last grid value overflows to inf without a numpy warning, as a
    # Python float does; the first row whose kappa1 overflows is reported.
    ("sweep", "channel.kappa = 1.0\nsweep.min = 1.0\nsweep.max = 1.7976931348623157e308\n"
              "sweep.steps = 4\n",
     1, "config error: kappa must be finite and non-negative, got kappa1 = inf at "
        "kappa2 = 5.992310449541053e+307"),
    # The pair covariance overflows to inf and nan.
    ("entangle", "channel.kappa = 5.0\nnoise.eta_t = 0.9999999999999999\n"
                 "rounds.entangle1.kappa = 1e150\n",
     4, "numerical error: non-finite EPR variance: epr_x = nan, epr_p = -inf"),
    # Rounding puts the fidelity just above 1: numerical, not a bad config.
    # The exact fidelities are 1 - 5.0e-9 at kappa2 = 10002.5 and 1 - 1.3e-9
    # at 20000.0, and the engine's rounding error there is 1e-8 to 1e-6, so
    # the row it lifts first moves with the order of the engine's sums.
    ("sweep", "channel.kappa = 1.0\nsweep.min = 5.0\nsweep.max = 20000.0\nsweep.steps = 3\n",
     4, f"numerical error: fidelity must lie in [0, 1], got {ABOVE_ONE}"),
], ids=["kappa1-overflow", "sweep-grid-overflow", "pair-overflow", "fidelity-above-one"])
def test_a_failed_run_prints_one_line(tmp_path, capsys, command, text, code, line):
    # The error line is all that stderr gets; any numpy warning fails the test.
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "run.json"
    assert _run([command, "--config", cfg, "--out", str(out)]) == code
    stdout, stderr = capsys.readouterr()
    head, marked, tail = line.partition(ABOVE_ONE)
    rest = stderr.removeprefix(head).removesuffix(tail + "\n")
    assert (stdout, stderr) == ("", head + rest + tail + "\n")
    assert "\n" not in rest and not out.exists()
    if not marked:
        assert rest == ""
        return
    # A figure marked ABOVE_ONE is checked against the row it names: a grid
    # row whose fidelity, computed alone, fails with the same line, since
    # rows are bit-independent.
    figure, _, row = rest.partition(" at kappa2 = ")
    assert float(figure) > 1.0
    config = resolve_run_config(parse_config_text(text))
    assert float(row) in config.sweep.values().tolist()
    with pytest.raises(DegeneracyError) as error:
        simulated_lossy_fidelity(
            float(row), config.eta_t, kappa1_multiplier=config.kappa1_multiplier,
            eps_p=config.channel.eps_p, eps_a=config.channel.eps_a, eta_d=config.eta_d,
            eta_t_local=config.eta_t_local,
        )
    assert f"numerical error: {error.value}" == head + rest


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text, code, line", [
    # The derived kappa overflows: the physical inputs give no channel.
    ("derive", PHYSICAL + "physical.area = 1e150\n",
     1, "config error: physical: kappa is stored as a finite magnitude, got inf"),
    # A / (lambda0 L) overflows: no artifact holds inf.
    ("derive", PHYSICAL + "physical.area = 1.7e308\nphysical.na = 5e-324\n",
     4, "numerical error: fresnel = inf is not finite"),
    # A manual gain of 1e150 overflows the averaged output: a nan fidelity.
    ("teleport", PHYSICAL + "gain.x = -1e150\ngain.p = -1e150\n",
     4, "numerical error: fidelity must lie in [0, 1], got nan at trial 0"),
    # A manual gain of 1e200 overflows the averaged output covariance itself.
    ("teleport", IDEAL + "gain.x = 1e200\ngain.p = 1e200\n",
     4, "numerical error: overlap matrix has a non-finite entry at trial 0"),
    # The input mean overflows the sampled outcome.
    ("teleport", IDEAL + "input.x = 1.7e308\n",
     4, "numerical error: measurement outcome must be finite, got inf"),
    # The kicks overflow the entangling stage's first pulse variance,
    # [8.5e201, inf, inf] over the rows: the first non-finite row is named.
    ("sweep", "channel.kappa = 1.0\nnoise.eta_t = 0.3\nsweep.min = 1e100\n"
              "sweep.max = 1e200\nsweep.steps = 3\n",
     4, "numerical error: measured quadrature has non-finite variance inf at "
        "kappa2 = 5e+199"),
    # A kappa1 multiplier of 5e-324 underflows kappa1 to 0 in the first row:
    # a singular calibration.
    ("sweep", SWEEP + "protocol.kappa1_multiplier = 5e-324\n",
     1, "config error: gain calibration failed: measurement outcomes do not respond to the "
        "input mean at kappa2 = 0.2 (kappa too small?)"),
    # Delta**2 and omega0**3 = (2 pi c / lambda0)**3 overflow as the physical
    # inputs are read: the figure is named, as an overflowed kappa is.
    ("derive", PHYSICAL.replace("delta = 9.42477796076938e9", "delta = 1e160"),
     1, "config error: physical: Delta**2 overflows the float range at Delta = 1e+160"),
    ("mb-validate", PHYSICAL.replace("delta = 9.42477796076938e9", "delta = 1e300"),
     1, "config error: physical: Delta**2 overflows the float range at Delta = 1e+300"),
    ("derive", PHYSICAL.replace("lambda0 = 6.283185307179586e-07", "lambda0 = 1e-150"),
     1, "config error: physical: omega0**3 overflows the float range at "
        "omega0 = 1.883651567308853e+159"),
    ("entangle", PHYSICAL.replace("lambda0 = 6.283185307179586e-07", "lambda0 = 1e-120"),
     1, "config error: physical: omega0**3 overflows the float range at "
        "omega0 = 1.883651567308853e+129"),
    # A lossless channel accepts kappa = 4.4e190, but mb-validate squares it.
    ("mb-validate", PHYSICAL.replace("3.141592653589793e7", "0") + "physical.g_coupling = 1e100\n",
     4, "numerical error: kappa**2 overflows the float range at kappa = 4.447521269308693e+190"),
], ids=["derived-kappa-overflow", "fresnel-overflow", "gain-overflow", "gain-cov-overflow",
        "input-overflow", "kick-overflow-sweep", "singular-calibration",
        "delta-square-overflow", "delta-square-overflow-mb", "omega-cube-overflow",
        "omega-cube-overflow-entangle", "kappa-square-overflow-mb"])
def test_an_input_at_the_float_range_fails_in_one_line(tmp_path, capsys, command, text, code,
                                                        line):
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "run.json"
    assert _run([command, "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr() == ("", line + "\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# parser reuse


def test_repeated_in_process_runs_match_first_calls(tmp_path):
    sweep = _write(tmp_path, "sweep.cfg", SWEEP)
    ideal = _write(tmp_path, "ideal.cfg", IDEAL)
    out = str(tmp_path / "artifact")
    runs = [
        ["sweep", "--config", sweep, "--format", "csv"],
        ["sweep", "--config", sweep],
        ["entangle", "--config", ideal, "--seed", "7", "--trials", "2"],
        ["entangle", "--config", ideal],
        ["sweep", "--config", sweep, "--format", "csv"],
    ]

    def artifact(argv):
        assert main(argv + ["--out", out]) == 0
        with open(out, "rb") as handle:
            return handle.read()

    first_calls = []
    for argv in runs:
        cli._build_parser.cache_clear()
        first_calls.append(artifact(argv))
    assert first_calls[0] != first_calls[1] and first_calls[2] != first_calls[3]

    cli._build_parser.cache_clear()
    assert [artifact(argv) for argv in runs] == first_calls
    assert cli._build_parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# artifact writer


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([-0.0, 1e-300, 5e300, 5e-324, 0.1]),
    st.text(),
    st.sampled_from(['"quoted"', "back\\slash", "tab\tnewline\n", "kappa\u2082", "\U0001f300"]),
)
_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.sampled_from(["f_simulated", "\u00e9t\u00e9"]))
# One leaf type per column: the columns of drawn `_Table`s, and of the lists
# of dicts the generic path renders.
_COLUMNS = st.sampled_from([
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(),
    st.none(),
])


@st.composite
def _tables(draw, children):
    """Lists of flat dicts sharing keys and one leaf type per key, some broken.

    The keys may hold ``%`` or be 1 / True / 1.0.  A broken table changes one
    cell's leaf type or puts a container there, gives one row an equal key
    of another type, or reorders one row's keys.
    """
    keys = draw(st.lists(
        st.one_of(st.text(), st.sampled_from(["%", "%s%%", "kappa2", 1, True, 1.0])),
        min_size=1, max_size=4, unique=True,
    ))
    columns = [draw(_COLUMNS) for _ in keys]
    rows = [
        {key: draw(column) for key, column in zip(keys, columns)}
        for _ in range(draw(st.integers(1, 6)))
    ]
    row = draw(st.integers(0, len(rows) - 1))
    key = draw(st.sampled_from(keys))
    breakage = draw(st.sampled_from(["none", "leaf", "key", "order"]))
    if breakage == "leaf":
        rows[row][key] = draw(st.one_of(_LEAVES, children))
    elif breakage == "key" and key in (1, True, 1.0):
        twin = draw(st.sampled_from([k for k in (1, True, 1.0) if type(k) is not type(key)]))
        rows[row] = {twin if k == key else k: v for k, v in rows[row].items()}
    elif breakage == "order":
        rows[row] = dict(reversed(rows[row].items()))
    return draw(st.sampled_from([list, tuple]))(rows)


_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_KEYS, children, max_size=5),
        _tables(children),
    ),
    max_leaves=40,
)


@given(payload=_PAYLOADS, indent=st.integers(0, 3))
@example(payload={"a": [], "b": {}, "c": [{"d": -0.0, "e": 1e-300}], "f": 5e300}, indent=0)
@example(payload=[{"x": np.float64(0.1), "y": np.int64(-3), "z": np.bool_(True)}], indent=1)
@example(payload=[{"kappa2": 0.2, "n": 3, "ok": True, "tag": "a%sb", "none": None}] * 3, indent=1)
@example(payload=[{1: 0.5}, {True: 0.5}, {1.0: 0.5}], indent=0)
@example(payload=[{"a": 1.0, "b": "x"}, {"a": 1, "b": "y"}, {"a": 2.0, "b": "z"}], indent=2)
@example(payload=[{"a": 0.1}, {"a": np.float64(0.1)}, {"a": np.bool_(False)}], indent=0)
@example(payload=({"a": [1.0, None]}, {"a": {"b": True}}), indent=1)
@example(payload=[{"a": 1.0, "b": 2.0}, {"b": 3.0, "a": 4.0}], indent=0)
@example(payload=[{"a": 1.0}, {"b": 2.0}], indent=0)
@example(payload=[{}, {}], indent=0)
@example(payload={"rows": [{"%": -0.0, "%d": float("nan"), "\u00e9": "\U0001f300"}] * 2}, indent=3)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_reference_writer(payload, indent):
    assert cli._json_text(payload, indent) == reference_json_text(payload, indent)


def test_json_writer_key_cache_tells_equal_keys_apart():
    text = cli._json_text([{1: 0}, {True: 0}, {1.0: 0}])
    assert text == reference_json_text([{1: 0}, {True: 0}, {1.0: 0}])
    assert '"True": 0' in text and '"1.0": 0' in text


def _objects(*cells):
    """A 1-d object array of ``cells``, each kept as it is."""
    column = np.empty(len(cells), dtype=object)
    column[:] = cells
    return column


def _table_rows(table):
    """The rows of a `_Table`, one cell per column: an array's entry or the shared value."""
    return [[column[row] if isinstance(column, np.ndarray) else column
             for column in table.columns]
            for row in range(table.length)]


@st.composite
def _table_values(draw):
    """`_Table`s of 1 to 6 rows, keys that may hold ``%``, one column per key.

    A column is an object array of one leaf type, or mixing every leaf type
    (a table carries no type per column); a float64, int64 or bool array; or
    one leaf that every row shares.
    """
    header = tuple(draw(st.lists(
        st.one_of(st.text(), st.sampled_from(["%", "%s%%", "%d", "kappa2"])),
        min_size=1, max_size=4, unique=True,
    )))
    length = draw(st.integers(1, 6))
    arrays = {
        np.float64: st.floats(allow_nan=True, allow_infinity=True),
        np.int64: st.integers(-(2**63), 2**63 - 1),
        np.bool_: st.booleans(),
    }
    columns = []
    for _ in header:
        kind = draw(st.sampled_from(["object", *arrays, "shared"]))
        if kind == "shared":
            columns.append(draw(_LEAVES))
        elif kind == "object":
            leaves = draw(st.one_of(_COLUMNS, st.just(_LEAVES)))
            columns.append(_objects(*[draw(leaves) for _ in range(length)]))
        else:
            cells = draw(st.lists(arrays[kind], min_size=length, max_size=length))
            columns.append(np.array(cells, dtype=kind))
    return cli._Table(header, length, tuple(columns))


@given(table=_table_values(), echo=st.dictionaries(st.text(), _LEAVES, max_size=3),
       indent=st.integers(0, 3))
@example(table=cli._Table(("%", "%d", "\u00e9"), 2, (np.array([-0.0, -0.0]),
                                                     np.array([float("nan")] * 2),
                                                     _objects("\U0001f300", "\U0001f300"))),
         echo={"flag": np.bool_(True), "x": np.float64(0.1)}, indent=3)
@example(table=cli._Table(("a", "b"), 3, (_objects(1.0, 1, np.int64(2)),
                                          _objects("x", None, np.bool_(False)))),
         echo={}, indent=0)
@example(table=cli._Table(("%s", "none", "n"), 2, ("%s%%", None, np.arange(2))),
         echo={"%": "%s%%"}, indent=1)
@settings(max_examples=300, deadline=None)
def test_table_writers_match_reference_writers(table, echo, indent):
    rows = _table_rows(table)
    dicts = [dict(zip(table.header, row)) for row in rows]
    assert cli._json_text(table, indent) == reference_json_text(dicts, indent)
    assert cli._json_text({"rows": table}, indent) == reference_json_text({"rows": dicts}, indent)
    assert cli._csv_text(echo, table) == reference_csv_text(echo, table.header, rows)


def test_csv_writer_writes_numpy_booleans_as_literals():
    table = cli._Table(("a", "b"), 1, (_objects(np.bool_(True)), True))
    text = cli._csv_text({"flag": np.bool_(False)}, table)
    assert text == "# flag = false\na,b\ntrue,true\n"


# ---------------------------------------------------------------------------
# artifact sink


def _reference_records(outcomes):
    """The per-trial records as the writer once built them: one dict per trial and pulse."""
    pulses = (("entangle:round1", 2), ("entangle:round2", 2),
              ("teleport:round1", 3), ("teleport:round2", 3))
    return [{"trial": trial, "outcomes": [
        {"round_tag": tag, "mode": mode, "quadrature": "x", "outcome": outcome}
        for (tag, mode), outcome in zip(pulses, row)
    ]} for trial, row in enumerate(outcomes.tolist())]


@pytest.mark.parametrize("block_rows", [cli._BLOCK_ROWS, 300])
def test_teleport_artifacts_match_the_reference_writers(tmp_path, monkeypatch, block_rows):
    # 2,000 trials, rendered from the outcome and fidelity columns a block of
    # rows at a time, have the bytes of the per-trial dicts and rows.
    from spinlight.config import parse_config_text, resolve_run_config
    from spinlight.protocols import classical_bound_check, run_trials

    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    text = IDEAL + "noise.eta_t = 0.1\ninput.x = 0.7\ngain.x = 1.1\ngain.p = 0.9\ntrials = 2000\n"
    cfg = _write(tmp_path, "run.cfg", text)
    json_out, csv_out = tmp_path / "tel.json", tmp_path / "tel.csv"
    assert _run(["teleport", "--config", cfg, "--out", str(json_out)]) == 0
    assert _run(["teleport", "--config", cfg, "--format", "csv", "--out", str(csv_out)]) == 0

    run = resolve_run_config(parse_config_text(text))
    outcomes, _, fidelities = run_trials(run.plans, np.random.default_rng(run.seed), run.trials,
                                         run.input_mean, run.gain)
    payload = json.loads(json_out.read_text())
    assert payload["records"] == _reference_records(outcomes)
    payload["records"] = _reference_records(outcomes)
    assert json_out.read_text() == reference_json_text(payload) + "\n"

    header = ("trial", "fidelity_simulated", "fidelity_ideal_closed_form",
              "fidelity_lossy_closed_form", "classical_bound_exceeded")
    rows = [[trial, value, payload["fidelity_ideal_closed_form"],
             payload["fidelity_lossy_closed_form"], classical_bound_check(value)]
            for trial, value in enumerate(fidelities.tolist())]
    assert len(set(fidelities.tolist())) > 1
    echo = resolve_run_config({**parse_config_text(text), "output.format": "csv"}).echo
    assert csv_out.read_text() == reference_csv_text(echo, header, rows)


def _artifact(tmp_path, argv, name="fresh"):
    """The artifact bytes of a run into a new file."""
    out = tmp_path / name
    assert _run(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_overwriting_a_longer_artifact_leaves_exactly_the_new_bytes(tmp_path, fmt):
    cfg = _write(tmp_path, "run.cfg", PHYSICAL)
    argv = ["mb-validate", "--config", cfg, "--format", fmt]
    fresh = _artifact(tmp_path, argv)
    out = tmp_path / "artifact"
    out.write_bytes(b"x" * (4 * len(fresh) + 1))
    assert _run(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == fresh


def test_the_artifact_is_opened_without_truncation(tmp_path, monkeypatch):
    import os

    calls, real = [], os.open

    def spy(path, flags, mode=0o777, *args, **kwargs):
        calls.append((str(path), flags, mode))
        return real(path, flags, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    cfg = _write(tmp_path, "run.cfg", PHYSICAL)
    out = tmp_path / "artifact"
    umask = os.umask(0o027)
    try:
        assert _run(["mb-validate", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    ((path, flags, mode),) = [call for call in calls if call[0] == str(out)]
    assert flags & os.O_TRUNC == 0
    assert flags & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT
    assert mode == 0o666 and out.stat().st_mode & 0o777 == 0o640


def _no_truncation(monkeypatch):
    """Record the descriptors that os.ftruncate cuts."""
    import os

    cut, real = [], os.ftruncate

    def spy(fd, length):
        cut.append(fd)
        return real(fd, length)

    monkeypatch.setattr(os, "ftruncate", spy)
    return cut


def test_dev_null_is_streamed_and_never_truncated(tmp_path, monkeypatch):
    cut = _no_truncation(monkeypatch)
    cfg = _write(tmp_path, "run.cfg", SWEEP)
    assert _run(["sweep", "--config", cfg, "--out", "/dev/null"]) == 0
    assert cut == []


def test_a_fifo_gets_the_artifact_and_is_never_truncated(tmp_path, monkeypatch):
    import os
    import threading

    cfg = _write(tmp_path, "run.cfg", IDEAL + "trials = 3000\n")
    argv = ["teleport", "--config", cfg]
    fresh = _artifact(tmp_path, argv)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    cut = _no_truncation(monkeypatch)
    try:
        code = _run(argv + ["--out", str(fifo)])
    finally:
        reader.join(timeout=30)
    assert code == 0 and cut == []
    assert received == [fresh] and len(fresh) > 65536  # more than a pipe buffer


def test_a_symlinked_artifact_stays_a_symlink(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SWEEP)
    argv = ["sweep", "--config", cfg]
    fresh = _artifact(tmp_path, argv)
    target = tmp_path / "target.json"
    target.write_bytes(b"old " * len(fresh))
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert _run(argv + ["--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh


@pytest.mark.parametrize("text, code", [
    (IDEAL + "channel.eps_p = 1.5\n", cli.EXIT_USAGE),
    ("channel.kappa = 1e200\n", cli.EXIT_NUMERICAL),
])
def test_a_declared_failure_leaves_an_existing_artifact_alone(tmp_path, text, code):
    cfg = _write(tmp_path, "run.cfg", text)
    out = tmp_path / "artifact.json"
    out.write_bytes(b"an earlier artifact\n")
    before = out.stat()
    assert _run(["teleport", "--config", cfg, "--out", str(out)]) == code
    assert out.read_bytes() == b"an earlier artifact\n"
    assert out.stat().st_mtime_ns == before.st_mtime_ns


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_failed_write_leaves_a_prefix_of_the_new_artifact(tmp_path, capsys, monkeypatch, fmt):
    cfg = _write(tmp_path, "run.cfg", SWEEP.replace("sweep.steps = 120", "sweep.steps = 3000"))
    argv = ["sweep", "--config", cfg, "--format", fmt]
    fresh = _artifact(tmp_path, argv)
    name = "_csv_chunks" if fmt == "csv" else "_json_chunks"
    real = getattr(cli, name)

    def failing(*args):
        chunks = real(*args)
        yield next(chunks)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, name, failing)
    out = tmp_path / "artifact"
    out.write_bytes(b"\xff" * (2 * len(fresh)))
    capsys.readouterr()
    assert _run(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "config error: [Errno 28] No space left on device\n")
    data = out.read_bytes()
    assert 0 < len(data) < len(fresh) and fresh.startswith(data)


def test_a_long_sweep_holds_one_block_of_rows_at_a_time(tmp_path):
    # 2 x 10^5 rows through the engine and the sink: the traced peak is one
    # block of each, the columns and the config's list of sweep values, about
    # 20 MB.  One batch took 400 MB in the engine alone, and the writer then
    # held the whole text.
    import tracemalloc

    cfg = _write(tmp_path, "run.cfg", SWEEP.replace("sweep.steps = 120", "sweep.steps = 200000"))
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        code = _run(["sweep", "--config", cfg, "--format", "csv", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 48 * 2**20, peak
    assert out.stat().st_size > 200000 * 80


def test_a_long_teleport_run_pushes_no_trial_through_the_channels(tmp_path):
    # 10^5 trials: each channel is pushed once as a factor, and the trials'
    # means are formed after it, so what grows with the trials is a few
    # arrays of draws, means and outcomes, about 23 MB traced.  With every
    # trial's mean riding the push the peak was 37 MB.
    import tracemalloc

    cfg = _write(tmp_path, "run.cfg", IDEAL)
    out = tmp_path / "run.csv"
    tracemalloc.start()
    try:
        code = _run(["teleport", "--trials", "100000", "--format", "csv", "--config", cfg,
                     "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 30 * 2**20, peak
    assert out.read_text().count("\n") > 100000
