"""The deferred-measurement engine against two independent references.

The sequential oracle is the per-round path the protocols are defined by:
append a pulse, pass, transmission loss, pass, detector loss and homodyne,
with the inter-round rotations, built from the public primitives only.  Its
teleport gain is calibrated from five probe runs of that pipeline (the
linear response to the input mean and to each outcome innovation).

The 60-digit mpmath version re-derives the deferred fidelity of the
loss-adapted strategy with nothing but mpmath matrices.
"""

import math

import mpmath
import numpy as np
import pytest

from spinlight import (
    GaussianState,
    append_vacuum,
    apply_pass,
    displace,
    entangle,
    fidelity_coherent,
    homodyne,
    loss_channel,
    lossy_fidelity_sweep,
    make_plans,
    marginal,
    optimal_kappa2,
    rotate,
    simulated_lossy_fidelity,
    teleport,
    vacuum_state,
)

# Lossy, noisy operating points: (kappa2, eta_t, make_plans keywords).
OPERATING_POINTS = [
    (1.5, 0.2, dict(eps_p=1 / 120, eps_a=1 / 120, eta_d=0.05)),
    (2.0, 0.1, dict(kappa1_multiplier=3.0, eps_p=0.02, eps_a=0.03, eta_d=0.1)),
    (0.8, 0.5, dict(kappa1_multiplier=5.0, eps_p=0.01, eps_a=0.005, eta_d=0.2,
                    eta_t_local=0.3)),
]

REL_TOL = 1e-11


def _rel(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# sequential oracle


def _sequential_rounds(state, first, second, plans, values, innovations=False, rng=None):
    """One Bell measurement, round by round, with forced or sampled outcomes.

    ``values`` are the outcomes, or with ``innovations`` their offsets from
    the prior means; with ``rng`` the outcomes are sampled by ``homodyne``
    and ``values`` is not read.  Returns the posterior, the outcomes and the
    prior variance of each outcome.
    """
    outcomes, variances = [], []
    for number, plan in enumerate(plans):
        state = append_vacuum(state, 1)
        light = state.n_modes - 1
        state = apply_pass(state, light, first, plan)
        state = loss_channel(state, light, plan.eta_t)
        state = apply_pass(state, light, second, plan)
        state = loss_channel(state, light, plan.eta_d)
        k = 2 * light
        variances.append(state.cov[k, k])
        if rng is not None:
            outcome, state = homodyne(state, light, "x", rng=rng)
        else:
            value = values[number]
            forced = state.mean[k] + value if innovations else value
            outcome, state = homodyne(state, light, "x", forced=forced)
        outcomes.append(outcome)
        if number == 0:
            state = rotate(state, first, -math.pi / 2)
            state = rotate(state, second, math.pi / 2)
    return state, np.array(outcomes), np.array(variances)


def _oracle_teleport(entangled, input_mean, plans, outcomes):
    """Teleport output for forced outcomes and the outcome-averaged fidelity."""

    def run(u, values, innovations):
        state = displace(append_vacuum(entangled, 1), 2, *u)
        return _sequential_rounds(state, 0, 2, plans, values, innovations)

    def probe(u, innovations):
        state, m, variances = run(u, innovations, True)
        return state.mean[2:4], m, variances, state

    base_mean, base_m, prior_vars, base_state = probe((0.0, 0.0), (0.0, 0.0))
    mean_x, m_x, _, _ = probe((1.0, 0.0), (0.0, 0.0))
    mean_p, m_p, _, _ = probe((0.0, 1.0), (0.0, 0.0))
    mean_d1, m_d1, _, _ = probe((0.0, 0.0), (1.0, 0.0))
    mean_d2, _, _, _ = probe((0.0, 0.0), (0.0, 1.0))
    b_mat = np.column_stack([mean_x - base_mean, mean_p - base_mean])
    d_mat = np.column_stack([m_x - base_m, m_p - base_m])
    gain = np.linalg.solve(d_mat.T, (np.eye(2) - b_mat).T).T
    offset = -(base_mean + gain @ base_m)

    # Innovation k moves sample 2 by c_k and the outcomes by feed_k.
    drift = [
        mean_d1 - base_mean + gain @ np.array([1.0, m_d1[1] - base_m[1]]),
        mean_d2 - base_mean + gain @ np.array([0.0, 1.0]),
    ]
    u = np.array(input_mean)
    averaged = GaussianState(
        base_mean + b_mat @ u + gain @ (base_m + d_mat @ u) + offset,
        base_state.cov[2:4, 2:4]
        + sum(v * np.outer(r, r) for v, r in zip(prior_vars, drift)),
    )
    fidelity = fidelity_coherent(averaged, 0, input_mean)

    final, m, _ = run(input_mean, outcomes, False)
    shift = gain @ m + offset
    return displace(marginal(final, [1]), 0, shift[0], shift[1]), fidelity


@pytest.mark.parametrize("kappa2, eta_t, kwargs", OPERATING_POINTS)
def test_engine_matches_sequential_oracle(kappa2, eta_t, kwargs):
    plans = make_plans(kappa2, eta_t, **kwargs)
    entangling = (plans["entangle1"], plans["entangle2"])
    local = (plans["local1"], plans["local2"])

    pair, _ = entangle(*entangling, forced_outcomes=(0.7, -1.2))
    oracle_pair, _, _ = _sequential_rounds(
        vacuum_state(2), 0, 1, entangling, (0.7, -1.2)
    )
    assert _rel(pair.mean, oracle_pair.mean) <= REL_TOL
    assert _rel(pair.cov, oracle_pair.cov) <= REL_TOL

    input_mean = (0.8, -0.3)
    output, report = teleport(pair, input_mean, *local, forced_outcomes=(0.4, 0.9))
    oracle_output, oracle_fidelity = _oracle_teleport(
        oracle_pair, input_mean, local, (0.4, 0.9)
    )
    assert _rel(output.mean, oracle_output.mean) <= REL_TOL
    assert _rel(output.cov, oracle_output.cov) <= REL_TOL
    assert _rel(report.fidelity, oracle_fidelity) <= REL_TOL
    swept = simulated_lossy_fidelity(kappa2, eta_t, **kwargs)
    assert _rel(swept, oracle_fidelity) <= REL_TOL


@pytest.mark.parametrize("kappa2, eta_t, kwargs", OPERATING_POINTS)
def test_sampled_engine_matches_sequential_oracle(kappa2, eta_t, kwargs):
    # The engine draws each outcome as the prior mean plus sqrt(v) times a
    # standard normal draw of the trial's generator; the oracle samples with
    # homodyne from a generator with the same seed.
    plans = make_plans(kappa2, eta_t, **kwargs)
    entangling = (plans["entangle1"], plans["entangle2"])
    local = (plans["local1"], plans["local2"])

    pair, ent = entangle(*entangling, rng=np.random.default_rng(11))
    oracle_pair, oracle_m, _ = _sequential_rounds(
        vacuum_state(2), 0, 1, entangling, None, rng=np.random.default_rng(11)
    )
    assert _rel(ent.outcomes, oracle_m) <= REL_TOL
    assert _rel(pair.mean, oracle_pair.mean) <= REL_TOL
    assert _rel(pair.cov, oracle_pair.cov) <= REL_TOL

    input_mean = (0.8, -0.3)
    output, tel = teleport(pair, input_mean, *local, rng=np.random.default_rng(12))
    register = displace(append_vacuum(oracle_pair, 1), 2, *input_mean)
    _, oracle_m, _ = _sequential_rounds(
        register, 0, 2, local, None, rng=np.random.default_rng(12)
    )
    assert _rel(tel.outcomes, oracle_m) <= REL_TOL
    oracle_output, oracle_fidelity = _oracle_teleport(oracle_pair, input_mean, local, oracle_m)
    assert _rel(output.mean, oracle_output.mean) <= REL_TOL
    assert _rel(output.cov, oracle_output.cov) <= REL_TOL
    assert _rel(tel.fidelity, oracle_fidelity) <= REL_TOL


def test_sweep_rows_equal_one_point_runs():
    # Rows are independent and every sum runs in one fixed order, so a sweep
    # row has the bits of its one-point run.
    kappa2_values = [0.3, 1.5, 4.0, 9.5]
    kwargs = OPERATING_POINTS[0][2]
    kappa2, f_simulated, _, _ = lossy_fidelity_sweep(kappa2_values, 0.2, **kwargs)
    for k2, f in zip(kappa2, f_simulated):
        assert f == simulated_lossy_fidelity(k2, 0.2, **kwargs)


@pytest.mark.parametrize("kappa2, eta_t, kwargs", OPERATING_POINTS)
def test_sweep_blocks_of_seven_rows_give_the_bits_of_one_block(kappa2, eta_t, kwargs,
                                                                monkeypatch):
    import spinlight.protocols as protocols

    kappa2_values = np.linspace(0.2 * kappa2, 5.0 * kappa2, 50)
    one_block = lossy_fidelity_sweep(kappa2_values, eta_t, **kwargs)[1]
    monkeypatch.setattr(protocols, "_SWEEP_BLOCK", 7)
    assert lossy_fidelity_sweep(kappa2_values, eta_t, **kwargs)[1].tobytes() == one_block.tobytes()


# ---------------------------------------------------------------------------
# 60-digit reference


def _mp_bell_channel(n_atoms, first, second, rounds):
    """Deferred Bell channel (X, Y) in mpmath; each round is a parameter dict."""
    dim = 2 * (n_atoms + 2)
    transfer = mpmath.zeros(dim, 2 * n_atoms)
    for i in range(2 * n_atoms):
        transfer[i, i] = 1
    noise = mpmath.diag([0] * (2 * n_atoms) + [mpmath.mpf(1) / 2] * 4)

    def step(form):
        nonlocal transfer, noise
        t, n = form
        transfer = t * transfer
        noise = t * noise * t.T + n

    def loss(mode, eps):
        keep, add = [1] * dim, [0] * dim
        for q in (2 * mode, 2 * mode + 1):
            keep[q], add[q] = mpmath.sqrt(1 - eps), eps / 2
        return mpmath.diag(keep), mpmath.diag(add)

    def qnd_pass(light, atom, r):
        kick = mpmath.eye(dim)
        kick[2 * light, 2 * atom + 1] = -r["kappa"]
        kick[2 * atom, 2 * light + 1] = -r["kappa"]
        keep_p, add_p = loss(light, r["eps_p"])
        keep_a, add_a = loss(atom, r["eps_a"])
        return keep_a * keep_p * kick, add_p + add_a

    def rotation(mode, turns):
        # By ``turns`` half turns: cospi and sinpi are exact at a quarter
        # turn, where cos(pi / 2) at 60 digits would leave 1e-61 behind.
        t = mpmath.eye(dim)
        c, s = mpmath.cospi(turns), mpmath.sinpi(turns)
        t[2 * mode, 2 * mode], t[2 * mode, 2 * mode + 1] = c, s
        t[2 * mode + 1, 2 * mode], t[2 * mode + 1, 2 * mode + 1] = -s, c
        return t, mpmath.zeros(dim, dim)

    for number, r in enumerate(rounds):
        light = n_atoms + number
        step(qnd_pass(light, first, r))
        step(loss(light, r["eta_t"]))
        step(qnd_pass(light, second, r))
        step(loss(light, r["eta_d"]))
        if number == 0:
            step(rotation(first, -mpmath.mpf(1) / 2))
            step(rotation(second, mpmath.mpf(1) / 2))
    return transfer, noise


# (kappa, eps_p, eps_a, eta_t, eta_d) of the two rounds: lossless, lossy, damped.
FACTOR_POINTS = [
    ((3.0, 0.0, 0.0, 0.0, 0.0), (1.7, 0.0, 0.0, 0.0, 0.0)),
    ((4.0, 0.0, 0.0, 0.3, 0.1), (0.9, 0.0, 0.0, 0.3, 0.1)),
    ((2.5, 1 / 120, 0.02, 0.2, 0.05), (6.0, 0.03, 1 / 120, 0.5, 0.2)),
]


# The pushed rows' quadrature sectors: x1, x2, pulse 1's x, pulse 2's p; the rest.
SECTORS = ([0, 2, 4, 7], [1, 3, 5, 6])


@pytest.mark.parametrize("rounds", FACTOR_POINTS, ids=["lossless", "lossy", "damped"])
@pytest.mark.parametrize("n_atoms, first, second", [(2, 0, 1), (3, 0, 2)],
                         ids=["entangling", "teleport"])
def test_bell_factor_against_60_digits(rounds, n_atoms, first, second):
    # The folded factor [X | N] that the engine pushes, over the two samples
    # it measures and the pulses, gives the 60-digit dense composition on the
    # rows and columns of those modes: its X with each sample's (x, p)
    # columns summed, at most one of the two non-zero in any row, and on
    # each sector's rows S its Y = N_S N_S^T / 2, Y having no cross-sector
    # entry.  A sample no pass touches (sample 2 beside the teleport stage's
    # input) leaves as it came, with no noise, so one push serves both stages.
    from spinlight.protocols import _push_bell

    factor = _push_bell(rounds)[..., 0]
    transfer, noise = factor[:, :2], factor[:, 2:]
    names = ("kappa", "eps_p", "eps_a", "eta_t", "eta_d")
    with mpmath.workdps(60):
        mp_rounds = [{k: mpmath.mpf(v) for k, v in zip(names, r)} for r in rounds]
        want = [np.array(m.tolist(), dtype=float)
                for m in _mp_bell_channel(n_atoms, first, second, mp_rounds)]
    modes = (first, second, n_atoms, n_atoms + 1)
    pushed = [2 * mode + q for mode in modes for q in (0, 1)]
    idle = [q for q in range(2 * n_atoms) if q not in pushed]
    pairs = want[0][np.ix_(pushed, pushed[:4])].reshape(8, 2, 2)
    assert (np.count_nonzero(pairs, axis=-1) <= 1).all()
    assert _rel(transfer, pairs.sum(axis=-1)) <= 1e-13
    pushed_noise = want[1][np.ix_(pushed, pushed)]
    for sector in SECTORS:
        assert _rel(0.5 * noise[sector] @ noise[sector].T,
                    pushed_noise[np.ix_(sector, sector)]) <= 1e-13
    assert not pushed_noise[np.ix_(*SECTORS)].any()
    assert np.array_equal(want[0][idle], np.eye(2 * n_atoms)[idle])
    assert not want[0][:, idle][pushed].any() and not want[1][idle].any()


def _mp_block(matrix, rows, cols):
    return mpmath.matrix([[matrix[i, j] for j in cols] for i in rows])


def _mp_lossy_fidelity(kappa2, eta_t, kappa1_multiplier, eps, eta_d):
    """Deferred fidelity of the loss-adapted strategy; inputs are the exact floats."""
    kappa2, kappa1 = mpmath.mpf(kappa2), mpmath.mpf(kappa1_multiplier * kappa2)
    noise = dict(eps_p=mpmath.mpf(eps), eps_a=mpmath.mpf(eps),
                 eta_t=mpmath.mpf(eta_t), eta_d=mpmath.mpf(eta_d))
    strong, weak = dict(kappa=kappa1, **noise), dict(kappa=kappa2, **noise)
    half = mpmath.mpf(1) / 2

    transfer, extra = _mp_bell_channel(2, 0, 1, [strong, weak])
    cov = transfer * transfer.T * half + extra
    samples, pulses = range(4), (4, 6)
    cross = _mp_block(cov, samples, pulses)
    entangled = _mp_block(cov, samples, samples) - cross * (
        _mp_block(cov, pulses, pulses) ** -1
    ) * cross.T

    transfer, extra = _mp_bell_channel(3, 0, 2, [weak, strong])
    cov_in = mpmath.zeros(6, 6)
    for i in range(4):
        for j in range(4):
            cov_in[i, j] = entangled[i, j]
    cov_in[4, 4] = cov_in[5, 5] = half
    sigma = transfer * cov_in * transfer.T + extra
    joint = (2, 3, 6, 8)
    a = _mp_block(transfer, (2, 3), (4, 5))
    c = _mp_block(transfer, (6, 8), (4, 5))
    gain = (mpmath.eye(2) - a) * c ** -1
    weights = mpmath.matrix([[1, 0, gain[0, 0], gain[0, 1]],
                             [0, 1, gain[1, 0], gain[1, 1]]])
    overlap = weights * _mp_block(sigma, joint, joint) * weights.T + mpmath.eye(2) * half
    return 1 / mpmath.sqrt(mpmath.det(overlap))


@pytest.mark.parametrize(
    "kappa2, eta_t, kappa1_multiplier, eps, eta_d",
    [
        (10.0, 0.05, 10.0, 1 / 120, 0.05),
        (optimal_kappa2(0.2), 0.2, 10.0, 0.0, 0.0),
        (1.0, 0.5, 10.0, 1 / 120, 0.05),
        (0.5, 0.8, 3.0, 0.02, 0.0),
    ],
)
def test_deferred_fidelity_against_60_digits(kappa2, eta_t, kappa1_multiplier, eps, eta_d):
    with mpmath.workdps(60):
        reference = _mp_lossy_fidelity(kappa2, eta_t, kappa1_multiplier, eps, eta_d)
        got = simulated_lossy_fidelity(
            kappa2, eta_t, kappa1_multiplier=kappa1_multiplier,
            eps_p=eps, eps_a=eps, eta_d=eta_d,
        )
        assert abs(mpmath.mpf(got) / reference - 1) <= REL_TOL
