"""Grid re-derivation of the collective pass channel from propagation dynamics.

The one-dimensional linearized propagation equations (light advected through
the sample in retarded time, atoms driven bin by bin, spontaneous-emission
damping feeding fresh vacuum noise) are discretized on an (n_z slices) x
(n_tau bins) grid.  Each cell applies

  1. the kick x_light -= k_cell * p_atom, x_atom -= k_cell * p_light with
     k_cell = kappa / sqrt(n_z * n_tau),
  2. light damping eps_p / n_z with a fresh vacuum injection,
  3. atomic damping eps_a / n_tau with a fresh vacuum injection,

composed causally: bin m traverses slices j = 1..n_z, bins in time order.
Because the p quadratures are conserved by the kicks, the lossless part
composes exactly to the collective channel for any grid size; the damping
interleave reproduces the analytic coefficients up to O(eps^2).

Only fluctuation dynamics are propagated: the deterministic global phase from
the mean populations is dropped, matching the canonical-operator
linearization, and the pulse envelope is taken flat (uniform grid weights).

Only the four collective output rows are ever read, and they have a closed
form.  The kicks read only p and write only x, and every damping step is
diagonal, so the p quadratures are damped but never driven.  With the
per-cell transmissions tp = sqrt(1 - eps_p / n_z) and
ta = sqrt(1 - eps_a / n_tau), p_l(m) reaches slice j as tp^j p_l_in(m) and
p_a(j) reaches bin m as ta^m p_a_in(j), plus vacua.  The x quadratures are
driven by those p values and damped after each kick.  Every collective row
coefficient is then a per-bin power times a per-slice one, and every noise
sum factors into a bin sum times a slice sum, so
:func:`extract_collective_from_channel` needs O(n_z + n_tau) time and memory
and no loop over the grid.  The dense composed map of
:func:`build_transfer` has 2 (n_tau + n_z) rows and 4 n_z n_tau noise columns;
it is kept as the small-grid reference for :func:`commutator_defect` and the
tests.
"""

import dataclasses
import math

import numpy as np

from .gaussian import VACUUM_VARIANCE, symplectic_form
from .interaction import derive_channel

__all__ = [
    "Grid",
    "TransferMap",
    "CollectiveExtraction",
    "build_transfer",
    "build_transfer_from_channel",
    "extract_collective",
    "extract_collective_from_channel",
    "collective_signal_block",
    "commutator_defect",
]


@dataclasses.dataclass(frozen=True)
class Grid:
    """Discretization: n_z atomic slices along the sample, n_tau light bins."""

    n_z: int
    n_tau: int
    L: float
    T: float

    def __post_init__(self):
        if self.n_z < 1 or self.n_tau < 1:
            raise ValueError(
                f"grid too small: need n_z >= 1 and n_tau >= 1, "
                f"got {self.n_z} x {self.n_tau}"
            )
        if self.L <= 0 or self.T <= 0:
            raise ValueError("grid extents L and T must be positive")

    @property
    def n_cells(self):
        return self.n_z * self.n_tau


@dataclasses.dataclass(frozen=True)
class TransferMap:
    """Input-output coefficients of the discretized propagation.

    ``signal`` maps the 2 * (n_tau + n_z) input quadratures (light bins first,
    then atomic slices, interleaved x/p) to outputs.  ``noise`` maps the
    injected vacuum quadratures, one (x, p) pair per grid cell and decay
    channel, to outputs; ``light_cols`` / ``atom_cols`` say which columns were
    injected by light and by atomic damping.  Output covariance on vacuum
    input is (1/2) (signal signal^T + noise noise^T).
    """

    signal: np.ndarray
    noise: np.ndarray
    light_cols: np.ndarray
    atom_cols: np.ndarray
    n_tau: int
    n_z: int

    def __post_init__(self):
        for name in ("signal", "noise", "light_cols", "atom_cols"):
            getattr(self, name).setflags(write=False)


@dataclasses.dataclass(frozen=True)
class CollectiveExtraction:
    """Channel coefficients read back from the collective-mode projection.

    ``kappa_eff`` is the magnitude of the collective x_light <- p_atom
    coefficient; ``eps_p_eff`` and ``eps_a_eff`` come from the shortfall of
    the diagonal signal coefficients (1 - eps = squared collective
    transmission).  Residuals: ``signal_leak`` is the largest variance weight
    any collective output leaves in non-collective input modes;
    ``noise_var_light_x`` / ``noise_var_atom_x`` are the same-decay-channel
    vacuum admixtures into the collective x outputs (the quantities the
    first-order channel models as eps/2), while the ``*_total`` fields also
    count the kick-mediated cross admixture of order kappa^2 * eps, which the
    first-order channel drops.
    """

    kappa_eff: float
    eps_p_eff: float
    eps_a_eff: float
    signal_leak: float
    noise_var_light_x: float
    noise_var_atom_x: float
    noise_var_light_x_total: float
    noise_var_atom_x_total: float


def build_transfer(params, grid):
    """Transfer map for the microscopic inputs; coefficients via derive_channel."""
    return build_transfer_from_channel(derive_channel(params), grid)


def build_transfer_from_channel(channel, grid):
    """Compose the per-cell kick/damping updates into one linear map."""
    nt, nz = grid.n_tau, grid.n_z
    dim = 2 * (nt + nz)
    eps_cell_p = channel.eps_p / nz
    eps_cell_a = channel.eps_a / nt
    k_cell = channel.kappa / math.sqrt(nz * nt)

    cols_per_cell = 2 * (eps_cell_p > 0) + 2 * (eps_cell_a > 0)
    n_cols = cols_per_cell * grid.n_cells
    signal = np.eye(dim)
    noise = np.zeros((dim, n_cols))
    light_cols = []
    atom_cols = []

    tp = math.sqrt(1.0 - eps_cell_p)
    sp = math.sqrt(eps_cell_p)
    ta = math.sqrt(1.0 - eps_cell_a)
    sa = math.sqrt(eps_cell_a)

    col = 0
    for m in range(nt):
        xl, pl = 2 * m, 2 * m + 1
        for j in range(nz):
            xa, pa = 2 * (nt + j), 2 * (nt + j) + 1
            # Kick reads p rows, writes x rows; no read-write overlap.  Noise
            # columns beyond ``col`` are still all zero, so restricting the
            # row operations to the written prefix is exact.
            signal[xl] -= k_cell * signal[pa]
            signal[xa] -= k_cell * signal[pl]
            if col:
                noise[xl, :col] -= k_cell * noise[pa, :col]
                noise[xa, :col] -= k_cell * noise[pl, :col]
            if eps_cell_p > 0:
                signal[xl] *= tp
                signal[pl] *= tp
                noise[xl, :col] *= tp
                noise[pl, :col] *= tp
                noise[xl, col] = sp
                noise[pl, col + 1] = sp
                light_cols += [col, col + 1]
                col += 2
            if eps_cell_a > 0:
                signal[xa] *= ta
                signal[pa] *= ta
                noise[xa, :col] *= ta
                noise[pa, :col] *= ta
                noise[xa, col] = sa
                noise[pa, col + 1] = sa
                atom_cols += [col, col + 1]
                col += 2
    return TransferMap(
        signal=signal,
        noise=noise,
        light_cols=np.array(light_cols, dtype=int),
        atom_cols=np.array(atom_cols, dtype=int),
        n_tau=nt,
        n_z=nz,
    )


def _collective_vectors(n_tau, n_z):
    """Uniform-weight normalized (x_light, p_light, x_atom, p_atom) directions."""
    vectors = np.zeros((4, 2 * (n_tau + n_z)))
    vectors[0, 0 : 2 * n_tau : 2] = 1.0 / math.sqrt(n_tau)
    vectors[1, 1 : 2 * n_tau : 2] = 1.0 / math.sqrt(n_tau)
    vectors[2, 2 * n_tau :: 2] = 1.0 / math.sqrt(n_z)
    vectors[3, 2 * n_tau + 1 :: 2] = 1.0 / math.sqrt(n_z)
    return vectors


def collective_signal_block(tm):
    """4x4 signal block of the collective (x_l, p_l, x_a, p_a) modes."""
    u = _collective_vectors(tm.n_tau, tm.n_z)
    return u @ tm.signal @ u.T


def _signal_leak(rows, u, block):
    """Largest variance weight any collective output row leaves outside ``u``.

    ``rows`` holds the signal coefficients of the collective outputs (``u``
    times the signal map) and ``block`` their collective part ``rows u^T``.
    """
    residual = rows - block @ u
    return np.max(np.sum(residual**2, axis=1)) * VACUUM_VARIANCE


def _extraction(block, signal_leak, light_noise, atom_noise):
    """Channel coefficients and residuals of the four collective output rows.

    ``block`` is the 4x4 collective signal block and ``signal_leak`` the
    largest non-collective variance weight of an output row;
    ``light_noise`` / ``atom_noise`` hold, per output, the summed squared
    coefficients of the light / atomic damping vacua.
    """
    total_noise = light_noise + atom_noise
    return CollectiveExtraction(
        kappa_eff=float(abs(block[0, 3])),
        eps_p_eff=float(1.0 - block[0, 0] ** 2),
        eps_a_eff=float(1.0 - block[2, 2] ** 2),
        signal_leak=float(signal_leak),
        noise_var_light_x=float(light_noise[0] * VACUUM_VARIANCE),
        noise_var_atom_x=float(atom_noise[2] * VACUUM_VARIANCE),
        noise_var_light_x_total=float(total_noise[0] * VACUUM_VARIANCE),
        noise_var_atom_x_total=float(total_noise[2] * VACUUM_VARIANCE),
    )


def extract_collective(tm):
    """Read the channel coefficients and residuals off a dense transfer map."""
    u = _collective_vectors(tm.n_tau, tm.n_z)
    rows = u @ tm.signal
    block = rows @ u.T
    noise_rows = u @ tm.noise
    return _extraction(
        block,
        _signal_leak(rows, u, block),
        np.sum(noise_rows[:, tm.light_cols] ** 2, axis=1),
        np.sum(noise_rows[:, tm.atom_cols] ** 2, axis=1),
    )


def _powers(t, n):
    """t**0 .. t**n as sequential products, the order the cell updates apply."""
    powers = np.full(n + 1, t)
    powers[0] = 1.0
    return np.cumprod(powers)


def _geometric_spread(eps_cell, n):
    """Squared deviations of t^1 .. t^n from their mean, summed; t = sqrt(1 - eps_cell).

    The terms are taken as t^i - 1 = expm1(i log1p(-eps_cell) / 2), so at
    small damping nothing cancels, and the deviations in a second pass.
    """
    deviation = np.expm1(np.arange(1, n + 1) * (0.5 * math.log1p(-eps_cell)))
    deviation -= deviation.sum() / n
    return float(deviation @ deviation)


def extract_collective_from_channel(channel, grid):
    """Collective channel coefficients of the grid, without the dense map.

    Equal to ``extract_collective(build_transfer_from_channel(channel, grid))``
    up to rounding, in O(n_z + n_tau) time and memory.  Kicks read only p and
    write only x, and the damping steps are diagonal, so the map has a closed
    form.  Write tp, ta for the per-cell transmissions and k for the per-cell
    kick.  Light bin m meets slice j after j light dampings and m atomic
    ones: p_l(m) reaches it as tp^j p_l_in(m) and p_a(j) as ta^m p_a_in(j),
    each plus damping vacua.  A kick at cell (m, j) is then damped by the
    remaining tp^(n_z - j) (light) or ta^(n_tau - m) (atoms), so

      x_l_out(m) = tp^n_z x_l_in(m) - k sum_j tp^(n_z - j) [p_a at (m, j)],

    plus light vacua, and x_a_out(j) is its mirror image.  Every collective
    row coefficient is a per-bin power times a per-slice one, and every
    per-output noise sum, the kick-mediated cross admixture included,
    factors into a sum over bins times a sum over slices of geometric terms.
    The only non-collective signal left is in x_l <- p_a and x_a <- p_l,
    whose per-slice (per-bin) geometric factors deviate from their mean;
    ``signal_leak`` is formed from those deviations directly.
    """
    nt, nz = grid.n_tau, grid.n_z
    eps_cell_p = channel.eps_p / nz
    eps_cell_a = channel.eps_a / nt
    k_cell = channel.kappa / math.sqrt(nz * nt)
    # tp**i for i light dampings (i = 0..n_z), ta**i for i atomic ones
    tp = _powers(math.sqrt(1.0 - eps_cell_p), nz)
    ta = _powers(math.sqrt(1.0 - eps_cell_a), nt)
    ul, ua = 1.0 / math.sqrt(nt), 1.0 / math.sqrt(nz)

    u = _collective_vectors(nt, nz)
    rows = np.zeros_like(u)
    x_l, p_l = slice(0, 2 * nt, 2), slice(1, 2 * nt, 2)
    x_a, p_a = slice(2 * nt, None, 2), slice(2 * nt + 1, None, 2)
    rows[0, x_l] = ul * tp[nz]
    rows[1, p_l] = ul * tp[nz]
    rows[2, x_a] = ua * ta[nt]
    rows[3, p_a] = ua * ta[nt]
    # x_l <- p_a(j): ta^m summed over the bins, tp^(n_z - j) after the kick;
    # x_a <- p_l(m) mirrors it.
    kick_l, kick_a = k_cell * ul * ta[:nt].sum(), k_cell * ua * tp[:nz].sum()
    rows[0, p_a] = -kick_l * tp[nz:0:-1]
    rows[2, p_l] = -kick_a * ta[nt:0:-1]
    signal_leak = VACUUM_VARIANCE * max(
        kick_l**2 * _geometric_spread(eps_cell_p, nz),
        kick_a**2 * _geometric_spread(eps_cell_a, nt),
    )

    # Same-channel vacua: a vacuum injected i dampings before the output.
    own_p, own_a = tp[:nz] @ tp[:nz], ta[:nt] @ ta[:nt]
    # Cross vacua: a light p vacuum injected at slice j' reaches the x_a kicks
    # of the later slices with weight sum_{i < n_z - 1 - j'} tp^i, then is
    # damped like the kick itself; mirrored for atomic p into x_l.
    part_p, part_a = np.cumsum(tp[: nz - 1]), np.cumsum(ta[: nt - 1])
    cross_p = k_cell**2 / nz * (ta[1:] @ ta[1:]) * (part_p @ part_p)
    cross_a = k_cell**2 / nt * (tp[1:] @ tp[1:]) * (part_a @ part_a)
    light_noise = eps_cell_p * np.array([own_p, own_p, cross_p, 0.0])
    atom_noise = eps_cell_a * np.array([cross_a, 0.0, own_a, own_a])
    return _extraction(rows @ u.T, signal_leak, light_noise, atom_noise)


def commutator_defect(tm):
    """Max deviation of S Omega S^T + N Omega_noise N^T from Omega.

    Zero (to rounding) for every grid: each elementary update is symplectic on
    the system plus its fresh ancilla, so canonical commutators survive the
    full composition including the noise injections.
    """
    n_sys = tm.n_tau + tm.n_z
    omega = symplectic_form(n_sys)
    total = tm.signal @ omega @ tm.signal.T
    if tm.noise.shape[1]:
        omega_noise = symplectic_form(tm.noise.shape[1] // 2)
        total = total + tm.noise @ omega_noise @ tm.noise.T
    return float(np.max(np.abs(total - omega)))
