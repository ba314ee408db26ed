import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinlight import (
    ChannelParams,
    DegeneracyError,
    GaussianState,
    append_vacuum,
    apply_pass,
    displace,
    fidelity_coherent,
    homodyne,
    loss_channel,
    marginal,
    rotate,
    symplectic_form,
    vacuum_state,
    variance_of,
)
from spinlight.gaussian import _damp, _quarter_turn, _state_step, _turn
from spinlight.interaction import _kick
from conftest import assert_step_matches_dense, random_physical_state


# ---------------------------------------------------------------------------
# vacuum


def test_vacuum_single_mode():
    state = vacuum_state(1)
    assert np.array_equal(state.mean, np.zeros(2))
    assert np.array_equal(state.cov, 0.5 * np.eye(2))


def test_vacuum_three_modes():
    state = vacuum_state(3)
    assert np.array_equal(state.cov, 0.5 * np.eye(6))


def test_vacuum_saturates_heisenberg():
    # Minimum-uncertainty state: the margin is exactly zero.
    assert abs(vacuum_state(1).heisenberg_margin()) < 1e-12


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        vacuum_state(0)


# ---------------------------------------------------------------------------
# displacement


def test_displace_shifts_mean_only():
    state = displace(vacuum_state(1), 0, 1.0, -0.5)
    assert np.allclose(state.mean, [1.0, -0.5])
    assert np.array_equal(state.cov, 0.5 * np.eye(2))


def test_displace_inverse_restores_state():
    state = displace(displace(vacuum_state(2), 1, 0.3, -2.0), 1, -0.3, 2.0)
    assert np.allclose(state.mean, np.zeros(4), atol=1e-15)


def test_displaced_vacuum_overlaps_matching_coherent_state():
    state = displace(vacuum_state(1), 0, 0.8, 1.1)
    assert fidelity_coherent(state, 0, (0.8, 1.1)) == pytest.approx(1.0, abs=1e-12)


def test_displace_invalid_mode():
    with pytest.raises(ValueError):
        displace(vacuum_state(1), 1, 1.0, 0.0)


# ---------------------------------------------------------------------------
# rotation


def test_rotate_zero_is_identity():
    state = displace(vacuum_state(1), 0, 1.0, 2.0)
    rotated = rotate(state, 0, 0.0)
    assert np.allclose(rotated.mean, state.mean)
    assert np.allclose(rotated.cov, state.cov)


def test_rotate_quarter_turn_convention():
    # theta = -pi/2: x -> -p, p -> x.
    state = displace(vacuum_state(1), 0, 1.0, 2.0)
    rotated = rotate(state, 0, -math.pi / 2)
    assert np.allclose(rotated.mean, [-2.0, 1.0])


def test_rotate_full_period():
    state = random_physical_state(np.random.default_rng(7), 2)
    out = state
    for _ in range(4):
        out = rotate(out, 1, math.pi / 2)
    assert np.allclose(out.mean, state.mean, atol=1e-12)
    assert np.allclose(out.cov, state.cov, atol=1e-12)


# ---------------------------------------------------------------------------
# symplectic steps


def test_qnd_kick_on_vacuum_matches_matrix_arithmetic():
    # Independent oracle: direct 4x4 arithmetic M (I/2) M^T.
    kappa = 1.7
    matrix = np.eye(4)
    matrix[0, 3] = -kappa  # x_light <- p_atom
    matrix[2, 1] = -kappa  # x_atom <- p_light
    expected_cov = matrix @ (0.5 * np.eye(4)) @ matrix.T

    out = apply_pass(vacuum_state(2), 0, 1, ChannelParams(kappa=kappa, eps_p=0.0, eps_a=0.0))
    assert np.allclose(out.cov, expected_cov, atol=1e-14)
    assert out.cov[0, 0] == pytest.approx(0.5 * (1 + kappa**2), abs=1e-14)
    assert out.cov[1, 1] == pytest.approx(0.5, abs=1e-15)


def test_symplectic_conjugation_preserves_heisenberg():
    # Random rotations and signed kicks (kappa of either sign), composed
    # through the shipped kernels.
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        out = random_physical_state(rng, n)
        for _ in range(3):
            mode = int(rng.integers(0, n))
            out = rotate(out, mode, rng.uniform(-math.pi, math.pi))
            if n > 1:
                other = int((mode + 1) % n)
                out = _state_step(out, _kick, mode, other, rng.uniform(-3, 3))
        assert out.heisenberg_margin() >= -1e-9


# ---------------------------------------------------------------------------
# loss channel


def test_loss_zero_is_identity():
    state = random_physical_state(np.random.default_rng(5), 2)
    out = loss_channel(state, 0, 0.0)
    assert np.allclose(out.mean, state.mean)
    assert np.allclose(out.cov, state.cov)


@pytest.mark.parametrize("eps", [0.1, 0.5, 0.99, 1.0])
def test_vacuum_is_loss_fixed_point(eps):
    out = loss_channel(vacuum_state(2), 1, eps)
    assert np.allclose(out.cov, 0.5 * np.eye(4), atol=1e-15)
    assert np.allclose(out.mean, np.zeros(4))


def test_full_loss_resets_mode_to_vacuum():
    state = random_physical_state(np.random.default_rng(9), 2)
    state = displace(state, 0, 3.0, -1.0)
    out = loss_channel(state, 0, 1.0)
    assert np.allclose(out.mean[:2], [0.0, 0.0], atol=1e-15)
    assert np.allclose(out.cov[:2, :2], 0.5 * np.eye(2), atol=1e-12)
    assert np.allclose(out.cov[:2, 2:], 0.0, atol=1e-12)


@given(
    eps1=st.floats(0.0, 0.99),
    eps2=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_loss_composition_law(eps1, eps2, seed):
    # Two losses compose into one with 1 - eps_tot = (1 - eps1)(1 - eps2).
    state = random_physical_state(np.random.default_rng(seed), 2)
    double = loss_channel(loss_channel(state, 0, eps1), 0, eps2)
    eps_tot = 1.0 - (1.0 - eps1) * (1.0 - eps2)
    single = loss_channel(state, 0, eps_tot)
    assert np.allclose(double.cov, single.cov, atol=1e-10)
    assert np.allclose(double.mean, single.mean, atol=1e-10)


def test_loss_rejects_out_of_range():
    with pytest.raises(ValueError):
        loss_channel(vacuum_state(1), 0, 1.5)
    with pytest.raises(ValueError):
        loss_channel(vacuum_state(1), 0, -0.1)


# ---------------------------------------------------------------------------
# in-place step kernels against their dense matrix forms


def _dense_loss(dim, mode, eps):
    transfer, noise = np.eye(dim), np.zeros((dim, dim))
    for q in (2 * mode, 2 * mode + 1):
        transfer[q, q] = math.sqrt(1.0 - eps)
        noise[q, q] = 0.5 * eps
    return transfer, noise


def _dense_rotation(dim, mode, theta):
    transfer = np.eye(dim)
    c, s = math.cos(theta), math.sin(theta)
    transfer[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = [[c, s], [-s, c]]
    return transfer, np.zeros((dim, dim))


@pytest.mark.parametrize("batch", [None, 1, 7])
@pytest.mark.parametrize("mode", [0, 2])
def test_loss_kernel_matches_dense_form(batch, mode):
    eps = np.random.default_rng(11).uniform(0.0, 0.95, size=batch)
    assert_step_matches_dense(_damp, _dense_loss, (mode, eps), batch)


@pytest.mark.parametrize("batch", [None, 1, 7])
@pytest.mark.parametrize("theta", [0.73, -math.pi / 2, math.pi / 2, 2.9])
def test_rotation_kernel_matches_dense_form(batch, theta):
    assert_step_matches_dense(_turn, _dense_rotation, (1, theta), batch)


def _fused_loss(rows, cov, mode, first, second):
    _damp(rows, cov, mode, 1.0 - (1.0 - first) * (1.0 - second))


def _dense_double_loss(dim, mode, first, second):
    t1, y1 = _dense_loss(dim, mode, first)
    t2, y2 = _dense_loss(dim, mode, second)
    return t2 @ t1, t2 @ y1 @ t2.T + y2


@pytest.mark.parametrize("batch", [None, 1, 7])
def test_fused_loss_matches_two_sequential_losses(batch):
    # One loss 1 - (1 - a)(1 - b) in place of a then b on the same mode, as
    # the Bell rounds apply the light's eps_p and eta_t (or eta_d).
    rng = np.random.default_rng(12)
    first, second = rng.uniform(0.0, 0.95, size=(2,) + (() if batch is None else (batch,)))
    if batch is None:
        first, second = float(first), float(second)
    assert_step_matches_dense(_fused_loss, _dense_double_loss, (2, first, second), batch)


@pytest.mark.parametrize("batch", [None, 1, 7])
@pytest.mark.parametrize("sign", [-1, 1])
def test_quarter_turn_is_an_exact_signed_swap(batch, sign):
    # x -> sign * p and p -> -sign * x bit for bit: the exact signed
    # permutation, whose products with the moments are exact too.
    rng = np.random.default_rng(13)
    tail = () if batch is None else (batch,)
    rows = rng.uniform(-0.5, 0.5, (6, 3) + tail)
    half = rng.uniform(-0.5, 0.5, (6, 6) + tail)
    cov = 0.5 * (half + np.swapaxes(half, 0, 1))
    swap = np.eye(6)
    swap[2:4, 2:4] = [[0.0, sign], [-sign, 0.0]]
    at = [(...,)] if batch is None else [(..., b) for b in range(batch)]
    want_rows = [swap @ rows[b] for b in at]
    want_cov = [swap @ cov[b] @ swap.T for b in at]
    turned_rows, turned_cov = rows.copy(), cov.copy()
    _turn(turned_rows, turned_cov, 1, sign * math.pi / 2)

    _quarter_turn(rows, cov, 1, sign)
    for b, r, c in zip(at, want_rows, want_cov):
        assert np.array_equal(rows[b], r)
        assert np.array_equal(cov[b], c)
    # The general rotation differs only by cos(pi/2) = 6.1e-17 times the
    # moments plus the rounding of that sum, half an ulp of the result; with
    # moments of magnitude <= 1/2, as drawn here, both stay under 1e-16.
    for turned, swapped in ((turned_rows, rows), (turned_cov, cov)):
        assert np.max(np.abs(turned - swapped)) <= 1e-16


# ---------------------------------------------------------------------------
# homodyne


def test_homodyne_vacuum_empties_register_and_samples_marginal():
    rng = np.random.default_rng(123)
    outcomes = []
    for _ in range(100_000):
        outcome, posterior = homodyne(vacuum_state(1), 0, "x", rng=rng)
        outcomes.append(outcome)
    assert posterior.n_modes == 0
    outcomes = np.array(outcomes)
    # Sample variance of N(0, 1/2) draws within 5 standard errors of 1/2.
    sample_var = outcomes.var(ddof=1)
    stderr = 0.5 * math.sqrt(2.0 / (outcomes.size - 1))
    assert abs(sample_var - 0.5) < 5 * stderr
    assert abs(outcomes.mean()) < 5 * math.sqrt(0.5 / outcomes.size)


def test_homodyne_conditioning_matches_explicit_algebra():
    # Oracle: build the three-mode covariance after the double kick by hand
    # and apply the rank-1 conditioning formula inline.
    kappa = 2.3
    matrix = np.eye(6)
    matrix[0, 3] = -kappa  # x_light <- p_atom1
    matrix[2, 1] = -kappa  # x_atom1 <- p_light
    matrix2 = np.eye(6)
    matrix2[0, 5] = -kappa  # x_light <- p_atom2
    matrix2[4, 1] = -kappa  # x_atom2 <- p_light
    total = matrix2 @ matrix
    cov = total @ (0.5 * np.eye(6)) @ total.T

    k = 0  # x quadrature of the light mode
    column = cov[:, k]
    cov_cond = cov - np.outer(column, column) / cov[k, k]
    keep = [2, 3, 4, 5]
    cov_oracle = cov_cond[np.ix_(keep, keep)]
    coeffs = np.array([0.0, 1.0, 0.0, 1.0])  # p_atom1 + p_atom2
    expected = coeffs @ cov_oracle @ coeffs

    state = GaussianState(np.zeros(6), cov)
    _, posterior = homodyne(state, 0, "x", forced=0.4)
    measured = variance_of(posterior, coeffs)

    assert measured == pytest.approx(expected, abs=1e-12)
    assert measured == pytest.approx(1.0 / (1.0 + 2.0 * kappa**2), abs=1e-12)


def test_homodyne_forced_at_prior_mean_keeps_means():
    state = displace(vacuum_state(2), 0, 1.5, -0.7)
    state = displace(state, 1, 0.2, 0.9)
    outcome, posterior = homodyne(state, 0, "x", forced=1.5)
    assert outcome == 1.5
    assert np.allclose(posterior.mean, [0.2, 0.9], atol=1e-14)


@pytest.mark.parametrize("forced", [-3.0, 0.0, 3.0])
def test_homodyne_posterior_cov_is_outcome_independent(forced):
    state = random_physical_state(np.random.default_rng(21), 3)
    _, reference = homodyne(state, 1, "p", forced=0.0)
    _, posterior = homodyne(state, 1, "p", forced=forced)
    assert np.array_equal(posterior.cov, reference.cov)


def test_homodyne_requires_exactly_one_outcome_source():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        homodyne(vacuum_state(1), 0, "x")
    with pytest.raises(ValueError):
        homodyne(vacuum_state(1), 0, "x", rng=rng, forced=1.0)


def test_homodyne_degenerate_variance():
    state = GaussianState(np.zeros(2), np.diag([0.0, 0.5]))
    with pytest.raises(DegeneracyError):
        homodyne(state, 0, "x", forced=0.0)


_INFINITE_X = GaussianState(np.zeros(2), np.diag([math.inf, 0.5]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("state, source, error, message", [
    (_INFINITE_X, {"rng": np.random.default_rng(0)}, DegeneracyError,
     "measured quadrature has non-finite variance inf"),
    (_INFINITE_X, {"forced": 0.0}, DegeneracyError,
     "measured quadrature has non-finite variance inf"),
    (vacuum_state(1), {"forced": math.inf}, ValueError,
     "measurement outcome must be finite, got inf"),
    (vacuum_state(1), {"forced": math.nan}, ValueError,
     "measurement outcome must be finite, got nan"),
], ids=["infinite-variance-sampled", "infinite-variance-forced", "forced-inf", "forced-nan"])
def test_homodyne_rejects_non_finite_input_as_the_engine_does(state, source, error, message):
    # homodyne measures through the engine's kernel, so it raises the
    # engine's errors, not a numpy warning or a nan posterior.
    with pytest.raises(error, match=f"^{message}$"):
        homodyne(state, 0, "x", **source)


# ---------------------------------------------------------------------------
# variance_of


def test_variance_single_quadrature_of_vacuum():
    assert variance_of(vacuum_state(1), [1.0, 0.0]) == pytest.approx(0.5)


def test_variance_difference_of_independent_vacua():
    assert variance_of(vacuum_state(2), [1.0, 0.0, -1.0, 0.0]) == pytest.approx(1.0)


def test_variance_length_mismatch():
    with pytest.raises(ValueError):
        variance_of(vacuum_state(2), [1.0, 0.0])


def test_uncertainty_product_property():
    rng = np.random.default_rng(31)
    for _ in range(300):
        state = random_physical_state(rng, 2)
        mode = int(rng.integers(0, 2))
        ex = np.zeros(4)
        ep = np.zeros(4)
        ex[2 * mode] = 1.0
        ep[2 * mode + 1] = 1.0
        var_x = variance_of(state, ex)
        var_p = variance_of(state, ep)
        cov_xp = state.cov[2 * mode, 2 * mode + 1]
        assert var_x * var_p >= 0.25 - cov_xp**2 - 1e-9


# ---------------------------------------------------------------------------
# fidelity against coherent targets


def test_fidelity_vacuum_against_origin():
    assert fidelity_coherent(vacuum_state(1), 0, (0.0, 0.0)) == pytest.approx(1.0)


def test_fidelity_displacement_overlap():
    # Identical covariances, displaced by d: F = exp(-d^2 / 2).
    assert fidelity_coherent(vacuum_state(1), 0, (2.0, 0.0)) == pytest.approx(
        math.exp(-2.0), rel=1e-12
    )


def test_fidelity_thermal_closed_form():
    for sigma in (0.5, 0.8, 2.5):
        state = GaussianState(np.zeros(2), sigma * np.eye(2))
        assert fidelity_coherent(state, 0, (0.0, 0.0)) == pytest.approx(
            1.0 / (sigma + 0.5), rel=1e-12
        )


def _fock_operators(dim):
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    return a, a.conj().T


def fock_overlap_oracle(nbar, squeeze, phase, disp, target, dim=60):
    """Brute-force single-mode check in a truncated number basis.

    Builds a displaced squeezed thermal state numerically, measures its first
    and second quadrature moments from the density matrix, and computes the
    overlap with the coherent target directly.  Returns (mean, cov, overlap)
    so the closed form can be fed the numerically measured moments.
    """
    a, adag = _fock_operators(dim)
    probs = (nbar / (1 + nbar)) ** np.arange(dim) / (1 + nbar)
    rho = np.diag(probs)
    z = squeeze * np.exp(1j * phase)
    s_op = expm(0.5 * (np.conj(z) * a @ a - z * adag @ adag))
    d_op = expm(disp * adag - np.conj(disp) * a)
    u = d_op @ s_op
    rho = u @ rho @ u.conj().T

    x_op = (a + adag) / math.sqrt(2.0)
    p_op = -1j * (a - adag) / math.sqrt(2.0)
    mean = np.array(
        [np.trace(rho @ x_op).real, np.trace(rho @ p_op).real]
    )
    def _sym_cov(op1, op2, m1, m2):
        sym = 0.5 * (op1 @ op2 + op2 @ op1)
        return np.trace(rho @ sym).real - m1 * m2

    cov = np.array(
        [
            [_sym_cov(x_op, x_op, mean[0], mean[0]), _sym_cov(x_op, p_op, mean[0], mean[1])],
            [_sym_cov(x_op, p_op, mean[0], mean[1]), _sym_cov(p_op, p_op, mean[1], mean[1])],
        ]
    )
    coherent = np.zeros(dim, dtype=complex)
    coherent[0] = math.exp(-0.5 * abs(target) ** 2)
    for n in range(1, dim):
        coherent[n] = coherent[n - 1] * target / math.sqrt(n)
    overlap = (coherent.conj() @ rho @ coherent).real
    return mean, cov, overlap


def test_fidelity_matches_fock_basis_oracle():
    # One-off brute-force validation of the closed form (truncation 60).
    cases = [
        (0.4, 0.3, 0.7, 0.5 + 0.3j, 0.8 - 0.2j),
        (0.0, 0.5, -0.4, 0.2j, 0.1 + 0.1j),
        (1.2, 0.0, 0.0, 0.0j, 0.5 + 0.0j),
    ]
    for nbar, squeeze, phase, disp, target in cases:
        mean, cov, overlap = fock_overlap_oracle(nbar, squeeze, phase, disp, target)
        state = GaussianState(mean, cov)
        target_mean = (
            math.sqrt(2.0) * target.real,
            math.sqrt(2.0) * target.imag,
        )
        assert fidelity_coherent(state, 0, target_mean) == pytest.approx(
            overlap, abs=1e-6
        )


def test_fidelity_invariant_under_joint_displacement():
    rng = np.random.default_rng(17)
    for _ in range(50):
        state = random_physical_state(rng, 1)
        target = rng.normal(size=2)
        shift = rng.normal(size=2)
        base = fidelity_coherent(state, 0, tuple(target))
        moved = fidelity_coherent(
            displace(state, 0, shift[0], shift[1]), 0, tuple(target + shift)
        )
        assert abs(base - moved) < 1e-10


def test_fidelity_degenerate_covariance():
    state = GaussianState(np.zeros(2), -0.5 * np.eye(2))
    with pytest.raises(DegeneracyError):
        fidelity_coherent(state, 0, (0.0, 0.0))


def _overlap_reference(cov, delta):
    gamma = cov + 0.5 * np.eye(2)
    return np.linalg.det(gamma) ** -0.5 * math.exp(-0.5 * delta @ np.linalg.inv(gamma) @ delta)


_entries = st.floats(-2.0, 2.0)
_covariances = st.tuples(_entries, _entries, _entries, st.floats(0.01, 2.0)).map(
    lambda e: np.array([[e[0], e[1]], [e[2], e[3]]]) @ np.array([[e[0], e[2]], [e[1], e[3]]])
    + e[3] * np.eye(2)
)
_offsets = st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)).map(np.array)


@given(
    covs=st.lists(_covariances, min_size=1, max_size=6),
    deltas=st.lists(_offsets, min_size=6, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_overlap_matches_determinant_and_inverse(covs, deltas):
    from spinlight.gaussian import _overlap

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-300)

    close(_overlap(covs[0], deltas[0]), _overlap_reference(covs[0], deltas[0]))
    rows = _overlap(np.array(covs), np.array(deltas[: len(covs)]))
    assert rows.shape == (len(covs),)
    for got, cov, delta in zip(rows, covs, deltas):
        close(got, _overlap_reference(cov, delta))
    trials = _overlap(covs[0], np.array(deltas))
    assert trials.shape == (len(deltas),)
    for got, delta in zip(trials, deltas):
        close(got, _overlap_reference(covs[0], delta))
        assert got == _overlap(covs[0], delta)


# ---------------------------------------------------------------------------
# register plumbing


def test_append_vacuum_extends_register():
    state = displace(vacuum_state(1), 0, 1.0, 0.0)
    grown = append_vacuum(state, 2)
    assert grown.n_modes == 3
    assert np.allclose(grown.mean, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(grown.cov, 0.5 * np.eye(6))


def test_marginal_picks_mode_block():
    rng = np.random.default_rng(2)
    state = random_physical_state(rng, 3)
    sub = marginal(state, [2, 0])
    assert sub.n_modes == 2
    assert np.allclose(sub.mean[:2], state.mean[4:6])
    assert np.allclose(sub.cov[:2, :2], state.cov[4:6, 4:6])


def test_symmetrization_on_construction():
    cov = np.array([[0.5, 1e-13], [0.0, 0.5]])
    state = GaussianState(np.zeros(2), cov)
    assert np.array_equal(state.cov, state.cov.T)


def test_symplectic_form_blocks():
    omega = symplectic_form(2)
    assert np.array_equal(
        omega[:2, :2], np.array([[0.0, 1.0], [-1.0, 0.0]])
    )
    assert np.array_equal(omega[:2, 2:], np.zeros((2, 2)))
