"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
"""

import json
import math
import time

import numpy as np
import pytest

from spinlight import (
    Grid,
    ChannelParams,
    RoundPlan,
    build_transfer,
    build_transfer_from_channel,
    derive_channel,
    entangle,
    extract_collective,
    extract_collective_grids,
    fidelity_ideal,
    fidelity_lossy,
    classical_bound_check,
    apply_pass,
    homodyne,
    loss_channel,
    lossy_fidelity_sweep,
    optimal_kappa2,
    rotate,
    teleport,
    validate_regime,
)
from spinlight.cli import main as cli_main
from conftest import random_physical_state


def _verdict(number, label, ok):
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_criterion_1_squeezing():
    start = time.perf_counter()
    plan = RoundPlan(kappa=5.0)
    _, report = entangle(plan, plan, forced_outcomes=(0.0, 0.0))
    elapsed = time.perf_counter() - start
    ok = (
        abs(report.epr_x - 1.0 / 51.0) < 1e-9
        and abs(report.epr_p - 1.0 / 51.0) < 1e-9
        and abs(report.r - 0.5 * math.log(51.0)) < 1e-9
        and abs(report.r - 2.0) < 0.05  # headline "r close to 2"
        and elapsed < 1.0
    )
    _verdict(1, "two-round squeezing at kappa=5 gives EPR variances 1/51", ok)


def test_criterion_2_ideal_fidelity():
    ok = True
    for kappa in (1.0, 2.0, 5.0, 10.0):
        plan = RoundPlan(kappa=kappa)
        state, _ = entangle(plan, plan, forced_outcomes=(0.0, 0.0))
        _, report = teleport(
            state, (0.0, 0.0), plan, plan, forced_outcomes=(0.0, 0.0)
        )
        ok = ok and abs(report.fidelity - fidelity_ideal(kappa)) < 1e-6
    plan = RoundPlan(kappa=5.0)
    state, _ = entangle(plan, plan, forced_outcomes=(0.0, 0.0))
    _, report = teleport(state, (0.0, 0.0), plan, plan, forced_outcomes=(0.0, 0.0))
    ok = ok and abs(report.fidelity - 0.9619) < 1e-4
    _verdict(2, "ideal teleportation matches the closed-form fidelity", ok)


def test_criterion_3_lossy_optimum():
    eta_t = 0.2
    grid = np.linspace(0.2, 10.0, 200)
    start = time.perf_counter()
    kappa2, f_simulated, _, best = lossy_fidelity_sweep(grid, eta_t)
    elapsed = time.perf_counter() - start
    step = grid[1] - grid[0]
    k2_star = optimal_kappa2(eta_t)
    f_expected = 1.0 / (1.0 + math.sqrt(eta_t))
    f_best = float(f_simulated[best])
    ok = (
        abs(kappa2[best] - k2_star) <= step
        and abs(f_best - f_expected) / f_expected < 0.02
        and abs(fidelity_lossy(k2_star, eta_t) - f_expected) < 1e-12
        and classical_bound_check(f_best)
        and elapsed < 1.0
    )
    _verdict(3, "loss-adapted sweep peaks at eta_t^(-1/4) with F near 0.691", ok)


def test_criterion_4_parameter_regime(reference_params):
    # lambda0 fixed by inverting the column-density strength to kappa = 5 at
    # rho = 5e12 cm^-3, L = 2 cm, Delta = 300 gamma, number matching; the
    # recorded inversion value is 2 pi x 1e-7 m.
    assert reference_params.lambda0 == pytest.approx(2e-7 * math.pi, rel=1e-12)
    channel = derive_channel(reference_params)
    regime = validate_regime(reference_params, channel)
    ok = (
        abs(channel.kappa - 5.0) < 1e-6
        and channel.eps_p < 0.01
        and channel.eps_a < 0.01
        and abs(channel.eps_p - channel.eps_a) < 1e-12
        and regime.all_pass
    )
    _verdict(4, "reference operating point: eps below 1%, regime checks pass", ok)


def test_criterion_5_microscopic_consistency(reference_params):
    start = time.perf_counter()
    channel = derive_channel(reference_params)
    grid = Grid(n_z=64, n_tau=64)
    # The dense map of the cells, and the closed form that mb-validate ships.
    ok = True
    for extraction in (extract_collective(build_transfer(reference_params, grid)),
                       *extract_collective_grids(channel, [grid])):
        ok = ok and (
            abs(extraction.kappa_eff - channel.kappa) / channel.kappa < 0.01
            and abs(extraction.eps_p_eff - channel.eps_p) / channel.eps_p < 0.05
            and abs(extraction.eps_a_eff - channel.eps_a) / channel.eps_a < 0.05
        )
    lossless = ChannelParams(kappa=channel.kappa, eps_p=0.0, eps_a=0.0)
    sizes = (1, 2, 4, 8, 16)
    closed = extract_collective_grids(lossless, [Grid(n_z=size, n_tau=size) for size in sizes])
    for size, ex_closed in zip(sizes, closed):
        ex0 = extract_collective(build_transfer_from_channel(lossless, Grid(n_z=size, n_tau=size)))
        for ex in (ex0, ex_closed):
            ok = ok and abs(ex.kappa_eff - channel.kappa) < 1e-12
            ok = ok and ex.eps_p_eff < 1e-12 and ex.signal_leak < 1e-20
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _verdict(5, "grid propagation recovers the channel coefficients", ok)


def test_criterion_6_detector_inefficiency():
    ok = True
    for eta_d in (0.05, 0.2):
        kappa = 5.0
        lossy = RoundPlan(kappa=kappa, eta_d=eta_d)
        rescaled = RoundPlan(kappa=kappa * math.sqrt(1.0 - eta_d))
        state_l, rep_l = entangle(lossy, lossy, forced_outcomes=(0.0, 0.0))
        state_r, rep_r = entangle(rescaled, rescaled, forced_outcomes=(0.0, 0.0))
        _, tel_l = teleport(state_l, (0.0, 0.0), lossy, lossy,
                            forced_outcomes=(0.0, 0.0))
        _, tel_r = teleport(state_r, (0.0, 0.0), rescaled, rescaled,
                            forced_outcomes=(0.0, 0.0))
        ok = ok and abs(rep_l.r - rep_r.r) < 1e-6
        ok = ok and abs(tel_l.fidelity - tel_r.fidelity) < 1e-6
    _verdict(6, "detector inefficiency acts as kappa^2 -> kappa^2 (1 - eta_d)", ok)


def test_criterion_7_property_suites():
    from spinlight.gaussian import _state_step
    from spinlight.interaction import _kick

    rng = np.random.default_rng(2024)
    ok = True

    # symplectic invariant preservation over 1000 random maps: rotations and
    # signed kicks composed through the shipped kernels
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        out = random_physical_state(rng, n)
        for _ in range(2):
            mode = int(rng.integers(0, n))
            out = rotate(out, mode, rng.uniform(-math.pi, math.pi))
            if n > 1:
                other = int((mode + 1) % n)
                out = _state_step(out, _kick, mode, other, rng.uniform(-3, 3))
        ok = ok and out.heisenberg_margin() >= -1e-9

    # Heisenberg validity after every channel
    for _ in range(200):
        state = random_physical_state(rng, 2)
        state = loss_channel(state, 0, float(rng.uniform(0, 1)))
        state = apply_pass(
            state, 0, 1,
            ChannelParams(kappa=float(rng.uniform(0, 5)),
                          eps_p=float(rng.uniform(0, 0.3)),
                          eps_a=float(rng.uniform(0, 0.3))),
        )
        ok = ok and state.heisenberg_margin() >= -1e-9

    # loss-channel composition law
    for _ in range(100):
        state = random_physical_state(rng, 2)
        e1, e2 = rng.uniform(0, 0.9, size=2)
        double = loss_channel(loss_channel(state, 1, e1), 1, e2)
        single = loss_channel(state, 1, 1.0 - (1.0 - e1) * (1.0 - e2))
        ok = ok and np.allclose(double.cov, single.cov, atol=1e-10)
        ok = ok and np.allclose(double.mean, single.mean, atol=1e-10)

    # homodyne outcome-independence of the posterior covariance
    for _ in range(50):
        state = random_physical_state(rng, 3)
        _, p0 = homodyne(state, 0, "x", forced=0.0)
        _, pm = homodyne(state, 0, "x", forced=-3.0)
        _, pp = homodyne(state, 0, "x", forced=3.0)
        ok = ok and np.array_equal(p0.cov, pm.cov) and np.array_equal(p0.cov, pp.cov)

    # fidelity input-independence across three displaced inputs
    plan = RoundPlan(kappa=5.0)
    state, _ = entangle(plan, plan, forced_outcomes=(0.0, 0.0))
    fids = []
    for mean in [(0.0, 0.0), (2.0, -1.0), (-5.0, 3.0)]:
        _, rep = teleport(state, mean, plan, plan, forced_outcomes=(0.0, 0.0))
        fids.append(rep.fidelity)
    ok = ok and (max(fids) - min(fids) < 1e-9)

    _verdict(7, "invariant property suites hold with zero violations", ok)


def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("channel.kappa = 5.0\nseed = 314159\ntrials = 4\n")
    ok = True
    for command in ("entangle", "teleport"):
        artifacts = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}-{run}.json"
            code = cli_main(
                [command, "--config", str(cfg), "--out", str(out)]
            )
            ok = ok and code == 0
            artifacts.append(out.read_bytes())
        ok = ok and artifacts[0] == artifacts[1]
        payload = json.loads(artifacts[0])
        ok = ok and payload["seed"] == 314159
    _verdict(8, "identical config and seed give byte-identical artifacts", ok)
