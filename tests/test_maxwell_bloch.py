import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinlight import (
    ChannelParams,
    Grid,
    apply_pass,
    build_transfer,
    build_transfer_from_channel,
    derive_channel,
    extract_collective,
    extract_collective_grids,
    vacuum_state,
)
from conftest import collective_signal_block, commutator_defect, sweep_collective_extraction

# Convergence study at the reference operating point (kappa = 5,
# eps_p = eps_a = 1/120), recorded from dyadic grid refinement.  The drift
# between rows is the observed O(eps^2) discretization effect.
CONVERGENCE_FIXTURE = {
    4: (4.979195135612178, 0.00830732781680954),
    8: (4.979206294692643, 0.008303014602259462),
    16: (4.979211783877209, 0.008300860235887275),
    32: (4.979214505921018, 0.008299783612165212),
    64: (4.979215861310854, 0.008299245440073766),
}


def _grid(n_z, n_tau=None):
    return Grid(n_z=n_z, n_tau=n_tau if n_tau is not None else n_z)


@pytest.fixture(scope="module")
def reference_channel(reference_params):
    return derive_channel(reference_params)


# ---------------------------------------------------------------------------
# lossless exactness


@pytest.mark.parametrize("n_z,n_tau", [(1, 1), (2, 2), (3, 5), (8, 8), (4, 16)])
def test_lossless_map_is_exact_on_collective_modes(n_z, n_tau):
    channel = ChannelParams(kappa=3.1, eps_p=0.0, eps_a=0.0)
    tm = build_transfer_from_channel(channel, _grid(n_z, n_tau))
    assert tm.noise.shape[1] == 0

    block = collective_signal_block(tm)
    ideal = np.eye(4)
    ideal[0, 3] = -channel.kappa
    ideal[2, 1] = -channel.kappa
    assert np.allclose(block, ideal, atol=1e-12)

    for extraction in (
        extract_collective(tm),
        extract_collective_grids(channel, [_grid(n_z, n_tau)])[0],
    ):
        assert extraction.kappa_eff == pytest.approx(channel.kappa, abs=1e-12)
        assert extraction.eps_p_eff == pytest.approx(0.0, abs=1e-12)
        assert extraction.signal_leak == pytest.approx(0.0, abs=1e-24)


def test_lossless_signal_is_symplectic():
    channel = ChannelParams(kappa=2.4, eps_p=0.0, eps_a=0.0)
    tm = build_transfer_from_channel(channel, _grid(6))
    from spinlight import symplectic_form

    omega = symplectic_form(tm.n_tau + tm.n_z)
    defect = np.max(np.abs(tm.signal.T @ omega @ tm.signal - omega))
    assert defect < 1e-9


def test_kappa_eff_independent_of_n_tau_without_damping():
    channel = ChannelParams(kappa=1.8, eps_p=0.0, eps_a=0.0)
    values = [
        extract_collective(build_transfer_from_channel(channel, _grid(3, nt))).kappa_eff
        for nt in (1, 2, 4, 8)
    ]
    assert max(values) - min(values) < 1e-12


def test_single_cell_equals_direct_pass():
    # A 1x1 grid applies exactly one kick + one light loss + one atom loss,
    # which is the definition of the direct pass channel.
    channel = ChannelParams(kappa=2.0, eps_p=0.12, eps_a=0.07)
    tm = build_transfer_from_channel(channel, _grid(1, 1))

    vac_cov = 0.5 * np.eye(tm.signal.shape[0])
    noise_cov = 0.5 * np.eye(tm.noise.shape[1])
    cov_from_map = tm.signal @ vac_cov @ tm.signal.T + tm.noise @ noise_cov @ tm.noise.T

    direct = apply_pass(vacuum_state(2), 0, 1, channel)
    assert np.allclose(cov_from_map, direct.cov, atol=1e-14)


# ---------------------------------------------------------------------------
# reference-regime convergence


def test_convergence_fixture_and_tolerances(reference_params, reference_channel):
    kappa, eps_p = reference_channel.kappa, reference_channel.eps_p
    deviations = []
    for size, (kappa_rec, eps_rec) in CONVERGENCE_FIXTURE.items():
        extraction = extract_collective(
            build_transfer(reference_params, _grid(size))
        )
        adjoint = extract_collective_grids(reference_channel, [_grid(size)])[0]
        # regression against the recorded study, dense and adjoint
        for result in (extraction, adjoint):
            assert result.kappa_eff == pytest.approx(kappa_rec, rel=1e-12)
            assert result.eps_p_eff == pytest.approx(eps_rec, rel=1e-12)
            assert result.eps_a_eff == pytest.approx(eps_rec, rel=1e-12)
        deviations.append(abs(extraction.kappa_eff - kappa))

    # final-grid tolerances: 1% on kappa, 5% on the damping coefficients
    assert abs(CONVERGENCE_FIXTURE[64][0] - kappa) / kappa < 0.01
    assert abs(CONVERGENCE_FIXTURE[64][1] - eps_p) / eps_p < 0.05

    # monotone convergence of kappa_eff under dyadic refinement; a failure
    # here flags the discretization for investigation, not for tolerance.
    for coarse, fine in zip(deviations, deviations[1:]):
        assert fine <= coarse + 1e-15


def test_convergence_continues_past_fixture(reference_channel):
    # Grids the dense map cannot reach (at 256^2 its noise matrix alone is
    # 2.1 GB): kappa_eff keeps approaching kappa monotonically up to 4096^2,
    # where one doubling still moves it by about 2e-8.
    kappa = reference_channel.kappa
    deviations = [abs(CONVERGENCE_FIXTURE[64][0] - kappa)]
    for size in (128, 256, 512, 1024, 2048, 4096):
        extraction = extract_collective_grids(reference_channel, [_grid(size)])[0]
        deviations.append(abs(extraction.kappa_eff - kappa))
        assert abs(extraction.eps_p_eff - reference_channel.eps_p) < (
            0.05 * reference_channel.eps_p
        )
    for coarse, fine in zip(deviations, deviations[1:]):
        assert fine < coarse


def test_doubling_resolution_shifts_outputs_at_second_order(reference_channel):
    # Recorded drift between n and 2n is far below eps^2 * kappa.
    kappa, eps = reference_channel.kappa, reference_channel.eps_p
    sizes = sorted(CONVERGENCE_FIXTURE)
    for a, b in zip(sizes, sizes[1:]):
        drift = abs(CONVERGENCE_FIXTURE[b][0] - CONVERGENCE_FIXTURE[a][0])
        assert drift < eps**2 * kappa


def test_noise_admixture_matches_channel_noise(reference_params, reference_channel):
    extraction = extract_collective(build_transfer(reference_params, _grid(16)))
    # Same-decay-channel admixture reproduces the eps/2 vacuum noise weight.
    assert extraction.noise_var_light_x == pytest.approx(
        reference_channel.eps_p / 2, rel=0.05
    )
    assert extraction.noise_var_atom_x == pytest.approx(
        reference_channel.eps_a / 2, rel=0.05
    )
    # The kick-mediated cross admixture is a higher-order effect the
    # first-order channel drops; it is bounded by kappa^2 eps / 4.
    cross = extraction.noise_var_light_x_total - extraction.noise_var_light_x
    assert 0.0 < cross < reference_channel.kappa**2 * reference_channel.eps_a / 4


# ---------------------------------------------------------------------------
# closed-form extraction against the dense map and the sweep oracle


def _exact_eps_eff(eps, n):
    """1 - (1 - eps / n)^n to 50 digits: the squared shortfall of n cells."""
    with mpmath.workdps(50):
        return float(1 - (1 - mpmath.mpf(eps) / n) ** n)


def _assert_extractions_close(got, want, channel, grid):
    # The oracles form eps_*_eff as 1 - b^2 and carry its rounding (up to
    # 2e-12 at 128^2, 4.4e-16 where the exact value is 0), so those two
    # fields are held to the exact value instead.
    exact = {
        "eps_p_eff": _exact_eps_eff(channel.eps_p, grid.n_z),
        "eps_a_eff": _exact_eps_eff(channel.eps_a, grid.n_tau),
    }
    for field in dataclasses.fields(want):
        # The absolute floor only covers leaks at rounding level (~1e-31).
        assert getattr(got, field.name) == pytest.approx(
            exact.get(field.name, getattr(want, field.name)), rel=1e-12, abs=1e-24
        ), field.name


ORACLE_CHANNELS = {
    "lossless": ChannelParams(kappa=3.1, eps_p=0.0, eps_a=0.0),
    "eps_p": ChannelParams(kappa=3.1, eps_p=0.05, eps_a=0.0),
    "eps_a": ChannelParams(kappa=3.1, eps_p=0.0, eps_a=0.05),
}


@pytest.mark.parametrize("channel_name", ["lossless", "eps_p", "eps_a", "reference"])
@pytest.mark.parametrize(
    "n_z,n_tau", [(1, 1), (2, 2), (3, 5), (5, 3), (4, 16), (16, 4), (8, 8)]
)
def test_adjoint_matches_dense_extraction(
    n_z, n_tau, channel_name, reference_channel
):
    if channel_name == "reference":
        channel = reference_channel
    else:
        channel = ORACLE_CHANNELS[channel_name]
    grid = _grid(n_z, n_tau)
    dense = extract_collective(build_transfer_from_channel(channel, grid))
    adjoint = extract_collective_grids(channel, [grid])[0]
    _assert_extractions_close(adjoint, dense, channel, grid)


@pytest.mark.parametrize("channel_name", ["lossless", "eps_p", "eps_a", "reference"])
@pytest.mark.parametrize(
    "n_z,n_tau", [(128, 128), (256, 64), (64, 256), (1000, 3), (3, 1000)]
)
def test_closed_form_matches_sweep_on_large_grids(
    n_z, n_tau, channel_name, reference_channel
):
    # The adjoint sweep reaches grids the dense map cannot, one anti-diagonal
    # at a time; the closed form must agree with it there too.
    if channel_name == "reference":
        channel = reference_channel
    else:
        channel = ORACLE_CHANNELS[channel_name]
    grid = _grid(n_z, n_tau)
    _assert_extractions_close(
        extract_collective_grids(channel, [grid])[0],
        sweep_collective_extraction(channel, grid),
        channel,
        grid,
    )


@pytest.mark.parametrize("channel_name", ["lossless", "eps_p", "eps_a", "reference"])
def test_extraction_fields_are_python_floats(channel_name, reference_channel):
    # The CLI writes these fields into its artifacts; a numpy scalar there
    # takes the writers' slow path.
    channel = reference_channel if channel_name == "reference" else ORACLE_CHANNELS[channel_name]
    grid = _grid(4, 3)
    for extraction in (
        extract_collective(build_transfer_from_channel(channel, grid)),
        extract_collective_grids(channel, [grid])[0],
    ):
        for field in dataclasses.fields(extraction):
            assert type(getattr(extraction, field.name)) is float, field.name


@pytest.mark.parametrize("n_z, n_tau", [
    (1, 1), (4, 3), (3, 4), (128, 64), (1000, 7), (7, 1000), (2**20, 5), (3, 2**20),
])
@pytest.mark.parametrize("eps_p, eps_a", [(1 / 120, 0.05), (1e-9, 0.3), (0.999, 1e-15)])
def test_eps_eff_exact_against_50_digits(n_z, n_tau, eps_p, eps_a):
    # 1 - b^2 with b the collective transmission lost up to 2e-12 of it at
    # 128^2; -expm1(2 n h) keeps every digit.
    channel = ChannelParams(kappa=5.0, eps_p=eps_p, eps_a=eps_a)
    extraction = extract_collective_grids(channel, [_grid(n_z, n_tau)])[0]
    with mpmath.workdps(50):
        for got, eps, n in ((extraction.eps_p_eff, eps_p, n_z),
                            (extraction.eps_a_eff, eps_a, n_tau)):
            exact = 1 - (1 - mpmath.mpf(eps) / n) ** n
            assert abs(got / exact - 1) <= 1e-14


@pytest.mark.parametrize("n_z, n_tau", [(1, 1), (3, 5), (1024, 1)])
def test_lossless_eps_eff_is_exactly_zero(n_z, n_tau):
    extraction = extract_collective_grids(
        ChannelParams(kappa=3.1, eps_p=0.0, eps_a=0.0), [_grid(n_z, n_tau)])[0]
    for value in (extraction.eps_p_eff, extraction.eps_a_eff):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


BATCH_GRIDS = [(1, 1), (3, 5), (5, 3), (16, 4), (1, 7), (7, 1), (2, 2), (64, 64), (1, 1), (300, 9)]


@pytest.mark.parametrize("channel_name", ["lossless", "eps_p", "eps_a", "reference"])
def test_batched_rows_equal_one_grid_calls_bit_for_bit(channel_name, reference_channel):
    # One call over a ladder is the one-grid extraction of each of its
    # grids: each grid's sums are taken on their own.
    channel = reference_channel if channel_name == "reference" else ORACLE_CHANNELS[channel_name]
    grids = [_grid(n_z, n_tau) for n_z, n_tau in BATCH_GRIDS]
    batched = extract_collective_grids(channel, grids)
    assert len(batched) == len(grids)
    for grid, row in zip(grids, batched):
        alone = extract_collective_grids(channel, [grid])[0]
        assert [v.hex() for v in dataclasses.astuple(row)] == [
            v.hex() for v in dataclasses.astuple(alone)
        ], (grid.n_z, grid.n_tau)
    assert extract_collective_grids(channel, []) == []


@settings(max_examples=60, deadline=None)
@given(
    n_z=st.integers(1, 12),
    n_tau=st.integers(1, 12),
    kappa=st.floats(0.0, 10.0),
    eps_p=st.floats(0.01, 0.3),
    eps_a=st.floats(0.01, 0.3),
)
def test_closed_form_matches_dense_property(n_z, n_tau, kappa, eps_p, eps_a):
    # Unequal damping on non-square grids, so that swapping tp and ta or n_z
    # and n_tau moves some field.  The damping stays above 0.01: signal_leak
    # is a difference of nearly equal entries, and at eps ~ 1e-6 the two
    # computations of it agree only to about 1e-6.
    assume(n_z != n_tau and eps_p != eps_a)
    channel = ChannelParams(kappa=kappa, eps_p=eps_p, eps_a=eps_a)
    grid = _grid(n_z, n_tau)
    _assert_extractions_close(
        extract_collective_grids(channel, [grid])[0],
        extract_collective(build_transfer_from_channel(channel, grid)),
        channel,
        grid,
    )


def _mp_signal_leak(channel, grid):
    """signal_leak of the grid's signal map composed cell by cell in mpmath.

    The same kick / light damping / atomic damping updates as
    :func:`build_transfer_from_channel`, on the exact float inputs, then the
    largest squared residual of a collective output row off the collective
    directions, times the vacuum variance.
    """
    nt, nz = grid.n_tau, grid.n_z
    dim = 2 * (nt + nz)
    tp = mpmath.sqrt(1 - mpmath.mpf(channel.eps_p) / nz)
    ta = mpmath.sqrt(1 - mpmath.mpf(channel.eps_a) / nt)
    k = mpmath.mpf(channel.kappa) / mpmath.sqrt(nz * nt)
    signal = mpmath.eye(dim)
    for m in range(nt):
        xl, pl = 2 * m, 2 * m + 1
        for j in range(nz):
            xa, pa = 2 * (nt + j), 2 * (nt + j) + 1
            for c in range(dim):
                signal[xl, c] = tp * (signal[xl, c] - k * signal[pa, c])
                signal[xa, c] = ta * (signal[xa, c] - k * signal[pl, c])
                signal[pl, c] *= tp
                signal[pa, c] *= ta
    u = mpmath.zeros(4, dim)
    for m in range(nt):
        u[0, 2 * m] = u[1, 2 * m + 1] = 1 / mpmath.sqrt(nt)
    for j in range(nz):
        u[2, 2 * (nt + j)] = u[3, 2 * (nt + j) + 1] = 1 / mpmath.sqrt(nz)
    rows = u * signal
    residual = rows - rows * u.T * u
    return max(
        sum(residual[r, c] ** 2 for c in range(dim)) for r in range(4)
    ) / 2


@pytest.mark.parametrize("n_z, n_tau, eps_p, eps_a", [
    (4, 1, 6.7e-10, 3.9e-6),
    (1, 4, 6.7e-10, 3.9e-6),
    (3, 5, 1e-8, 2e-7),
    (5, 3, 1e-8, 2e-7),
    (4, 4, None, None),
    (8, 8, None, None),
])
def test_closed_form_signal_leak_against_50_digits(
    n_z, n_tau, eps_p, eps_a, reference_channel
):
    # At small damping the leak is a variance of nearly equal geometric
    # terms; the closed form keeps its digits where the dense map's
    # residual (rows - block u) lost up to 8e-7 of them.  None takes the
    # reference point's eps_p = eps_a = 1/120.
    if eps_p is None:
        channel = reference_channel
    else:
        channel = ChannelParams(kappa=reference_channel.kappa, eps_p=eps_p, eps_a=eps_a)
    grid = _grid(n_z, n_tau)
    with mpmath.workdps(50):
        reference = _mp_signal_leak(channel, grid)
        got = extract_collective_grids(channel, [grid])[0].signal_leak
        assert abs(mpmath.mpf(got) / reference - 1) <= 2e-15


LADDER_EPS = (0.0, 1e-12, 1 / 120, 0.5, 0.9, 1 - 1e-6)
LADDER_N = (1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 1000, 2**22)


def _mp_ladder_sums(h, n):
    """The spread and squares of d_i = expm1(i h) from the geometric sums
    S(h, n) = sum_{i = 1..n} t^i = t (t^n - 1) / (t - 1) at 2h and h: B = sum d^2
    and A = sum d give the spread B - A^2 / n and the squares B - d_n^2.

    Each difference loses the digits of what it cancels, up to 25 at
    eps = 1e-12 and n = 2, where 40 digits left 7e-16 of the result wrong:
    so 80 digits.
    """
    with mpmath.workdps(80):
        h = mpmath.mpf(h)

        def geometric(h):
            return mpmath.exp(h) * mpmath.expm1(n * h) / mpmath.expm1(h)

        a = geometric(h) - n
        b = geometric(2 * h) - 2 * geometric(h) + n
        return b - a * a / n, b - mpmath.expm1(n * h) ** 2


@pytest.mark.parametrize("n", LADDER_N)
@pytest.mark.parametrize("eps", LADDER_EPS)
def test_ladder_sums_against_80_digit_closed_forms(eps, n):
    # eps is the per-cell damping, h the log of the cell's transmission.  The
    # largest error measured over this grid is 3.3e-16 (the spread at
    # eps = 0.9, n = 65, and at eps = 1e-12, n = 2^22); the bound is twice
    # that.  Summing the terms in one pass and then their deviations from
    # the mean was off by up to 1.1e-13 at eps = 1 - 1e-6, n = 2.
    from spinlight.maxwell_bloch import _ladder_sums

    h = 0.5 * math.log1p(-eps)
    got = _ladder_sums(h, n)
    if h == 0.0 or n == 1:
        assert got == (0.0, 0.0)
        return
    for value, exact in zip(got, _mp_ladder_sums(h, n)):
        assert abs(mpmath.mpf(value) / exact - 1) <= 6.7e-16, (value, exact)


def test_the_extraction_calls_no_numpy(monkeypatch):
    # Its floats come from math and Python float arithmetic alone, so their
    # bits follow no SIMD kernel that numpy dispatches to.
    from spinlight import maxwell_bloch

    channel = ChannelParams(kappa=50.0, eps_p=0.8, eps_a=0.3)
    grids = [_grid(4), _grid(3, 1000)]
    want = extract_collective_grids(channel, grids)
    monkeypatch.setattr(maxwell_bloch, "np", None)
    assert extract_collective_grids(channel, grids) == want


def test_the_ladder_to_the_grid_cap_takes_no_memory_per_term():
    # The variance sums take O(log n) steps in Python floats: the 4..2^22
    # ladder holds nothing that grows with the grid.  Summing every term at
    # once took 256 MiB.
    import tracemalloc

    channel = ChannelParams(kappa=5.0, eps_p=1 / 120, eps_a=1 / 120)
    grids = [_grid(2**k) for k in range(2, 23)]
    tracemalloc.start()
    try:
        extractions = extract_collective_grids(channel, grids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(extractions) == len(grids)
    assert peak < 2**20, peak


# ---------------------------------------------------------------------------
# structure


def test_commutator_bookkeeping(reference_params):
    for size in (2, 5, 8):
        tm = build_transfer(reference_params, _grid(size))
        assert commutator_defect(tm) < 1e-9


def test_extraction_invariant_under_slice_relabeling(reference_params):
    tm = build_transfer(reference_params, _grid(4))
    base = extract_collective(tm)

    # permute the atomic slices (modes after the light bins)
    n_tau, n_z = tm.n_tau, tm.n_z
    perm_modes = list(range(n_tau)) + [n_tau + j for j in (2, 0, 3, 1)]
    idx = [2 * m + q for m in perm_modes for q in (0, 1)]
    permuted = type(tm)(
        signal=tm.signal[np.ix_(idx, idx)].copy(),
        noise=tm.noise[idx, :].copy(),
        light_cols=tm.light_cols.copy(),
        atom_cols=tm.atom_cols.copy(),
        n_tau=n_tau,
        n_z=n_z,
    )
    relabeled = extract_collective(permuted)
    assert relabeled.kappa_eff == base.kappa_eff
    assert relabeled.eps_p_eff == base.eps_p_eff
    assert relabeled.eps_a_eff == base.eps_a_eff


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(n_z=0, n_tau=4)
    with pytest.raises(ValueError):
        Grid(n_z=4, n_tau=0)
