"""Grid re-derivation of the collective pass channel from propagation dynamics.

The one-dimensional linearized propagation equations (light advected through
the sample in retarded time, atoms driven bin by bin, spontaneous-emission
damping feeding fresh vacuum noise) are discretized on an (n_z slices) x
(n_tau bins) grid.  Each cell is one pass of the collective channel
(:func:`~spinlight.interaction.apply_pass`, the engine's own step) with
kick k_cell = kappa / sqrt(n_z * n_tau), light damping eps_p / n_z and
atomic damping eps_a / n_tau, each damping's fresh vacuum (as the pass
returns it) a pair of noise columns, composed causally: bin m traverses
slices j = 1..n_z, bins in time order.
Because the p quadratures are conserved by the kicks, the lossless part
composes exactly to the collective channel for any grid size; the damping
interleave reproduces the analytic coefficients up to O(eps^2).

Only fluctuation dynamics are propagated: the deterministic global phase from
the mean populations is dropped, matching the canonical-operator
linearization, and the pulse envelope is taken flat (uniform grid weights).
So a :class:`Grid` is its two counts alone: no cell weight depends on the
sample's length or the pulse's duration.

Only the four collective output rows are ever read, and they have a closed
form.  The kicks read only p and write only x, and every damping step is
diagonal, so the p quadratures are damped but never driven, and every
collective coefficient and noise sum is a product of geometric sums
S(h, n) = sum_{i < n} e^(i h) over the bins and the slices, with e^h the
per-cell transmission: O(1) per grid.  Only the two variance terms
(``signal_leak``'s spread and the cross-noise sum) need the n terms
expm1(i h), and :func:`extract_collective_grids` takes them for a whole
ladder of grids in one segmented pass, with no loop over the cells; one
grid is the ladder ``[grid]``.  The dense composed map of
:func:`build_transfer`, 2 (n_tau + n_z) rows by up to 4 n_z n_tau noise
columns, is that grid of passes written out: the tests' small-grid reference.
"""

import dataclasses
import math
import sys

import numpy as np

from .gaussian import VACUUM_VARIANCE
from .interaction import _pass, _power, derive_channel

__all__ = [
    "Grid",
    "TransferMap",
    "CollectiveExtraction",
    "build_transfer",
    "build_transfer_from_channel",
    "extract_collective",
    "extract_collective_grids",
]


@dataclasses.dataclass(frozen=True)
class Grid:
    """Discretization: n_z atomic slices along the sample, n_tau light bins."""

    n_z: int
    n_tau: int

    def __post_init__(self):
        if self.n_z < 1 or self.n_tau < 1:
            raise ValueError(
                f"grid too small: need n_z >= 1 and n_tau >= 1, "
                f"got {self.n_z} x {self.n_tau}"
            )


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
    """Compose one pass (:func:`~spinlight.interaction.apply_pass`) per grid cell.

    One array holds the signal columns and then the injected vacua.  Each
    cell's pass acts on the columns so far; then the vacua it returns are
    appended, the light's before the atom's, each only where its eps is > 0.
    """
    nt, nz = grid.n_tau, grid.n_z
    dim = 2 * (nt + nz)
    eps_p, eps_a = channel.eps_p / nz, channel.eps_a / nt
    k_cell = channel.kappa / math.sqrt(nz * nt)
    transfer = np.eye(dim, dim + 2 * ((eps_p > 0) + (eps_a > 0)) * nz * nt)
    light_cols, atom_cols = [], []
    col = dim
    for m in range(nt):
        for j in range(nz):
            # _pass returns the atom's vacuum, then the light's: reversed here.
            vacua = _pass(transfer[:, :col], m, nt + j, k_cell, eps_p, eps_a)[::-1]
            for (mode, eps), cols in zip(vacua, (light_cols, atom_cols)):
                if eps > 0:
                    transfer[2 * mode, col] = transfer[2 * mode + 1, col + 1] = math.sqrt(eps)
                    cols += [col - dim, col + 1 - dim]
                    col += 2
    return TransferMap(
        signal=transfer[:, :dim].copy(),
        noise=transfer[:, dim:].copy(),
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


def _extraction(rows, u, light_noise, atom_noise):
    """Channel coefficients and residuals of the collective output rows ``rows``
    (``u`` times the signal map); ``signal_leak`` is the largest variance weight
    a row leaves outside ``u``.  ``light_noise`` / ``atom_noise`` hold, per
    output, the summed squared coefficients of the light / atomic vacua."""
    block = rows @ u.T
    leak = np.max(np.sum((rows - block @ u) ** 2, axis=1))
    total_noise = light_noise + atom_noise
    return CollectiveExtraction(
        kappa_eff=float(abs(block[0, 3])),
        eps_p_eff=float(1.0 - block[0, 0] ** 2),
        eps_a_eff=float(1.0 - block[2, 2] ** 2),
        signal_leak=float(leak * VACUUM_VARIANCE),
        noise_var_light_x=float(light_noise[0] * VACUUM_VARIANCE),
        noise_var_atom_x=float(atom_noise[2] * VACUUM_VARIANCE),
        noise_var_light_x_total=float(total_noise[0] * VACUUM_VARIANCE),
        noise_var_atom_x_total=float(total_noise[2] * VACUUM_VARIANCE),
    )


def extract_collective(tm):
    """Read the channel coefficients and residuals off a dense transfer map."""
    u = _collective_vectors(tm.n_tau, tm.n_z)
    noise_rows = u @ tm.noise
    light, atom = (np.sum(noise_rows[:, cols] ** 2, axis=1) for cols in (tm.light_cols, tm.atom_cols))
    return _extraction(u @ tm.signal, u, light, atom)


def _damping_sums(eps, n):
    """n cells of damping eps / n: (eps_cell, h, expm1(h), S(h, n), S(2h, n), eps_eff).

    h = log1p(-eps_cell) / 2 is the log of the per-cell transmission t,
    S(h, n) = sum_{i < n} t^i = expm1(n h) / expm1(h) (n at h = 0), and
    eps_eff = 1 - t^(2n) = -expm1(2 n h), exact where 1 - (t^n)^2 cancels.
    """
    eps_cell = eps / n
    h = 0.5 * math.log1p(-eps_cell)
    if h == 0.0:
        return eps_cell, 0.0, 0.0, n, n, 0.0
    decay, em = math.expm1(2 * n * h), math.expm1(h)
    return eps_cell, h, em, math.expm1(n * h) / em, decay / math.expm1(2 * h), -decay


def _segmented_sums(h, lengths):
    """Per segment (h, n): the spread of d_i = expm1(i h), i = 1..n, about its
    mean, and sum_{i < n} d_i^2; every segment in one pass, in place."""
    lengths = np.array(lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    d = np.ones(lengths.sum())
    d[starts[1:]] -= lengths[:-1]
    np.cumsum(d, out=d)  # i = 1..n, restarting at each segment
    buffer = np.repeat(h, lengths)
    d *= buffer
    np.expm1(d, out=d)
    # Each segment split before its last term: the even sums hold n - 1 terms.
    np.square(d, out=buffer)
    bounds = np.repeat(starts, 2)
    bounds[1::2] += lengths - 1
    squares = np.add.reduceat(buffer, bounds)[::2]
    squares[lengths == 1] = 0.0
    del buffer
    d -= np.repeat(np.add.reduceat(d, starts) / lengths, lengths)
    np.square(d, out=d)
    return np.add.reduceat(d, starts).tolist(), squares.tolist()


def extract_collective_grids(channel, grids):
    """Collective channel coefficients of each grid in ``grids``, in one pass.

    Row g equals ``extract_collective(build_transfer_from_channel(channel,
    grids[g]))`` up to rounding.  With tp, ta the per-cell transmissions and
    k the per-cell kick, p_l(m) reaches slice j as tp^j p_l_in(m) and p_a(j)
    reaches bin m as ta^m p_a_in(j), plus vacua, and a kick at cell (m, j) is
    damped by the remaining tp^(n_z - j) or ta^(n_tau - m), so

      x_l_out(m) = tp^n_z x_l_in(m) - k sum_j tp^(n_z - j) [p_a at (m, j)],

    plus light vacua; x_a_out(j) mirrors it.  Every field is then a product of
    the O(1) sums of :func:`_damping_sums` over the bins and the slices, but
    for ``signal_leak``'s spread of the per-slice (per-bin) factors and the
    cross-noise sum over j of (sum_{m <= j} t^m)^2: :func:`_segmented_sums`.
    """
    light = [_damping_sums(channel.eps_p, grid.n_z) for grid in grids]
    atoms = [_damping_sums(channel.eps_a, grid.n_tau) for grid in grids]
    spread, squares = _segmented_sums(
        [terms[1] for terms in light + atoms],
        [grid.n_z for grid in grids] + [grid.n_tau for grid in grids],
    )
    # An input the channel accepts can still square past the float range: a
    # numerical failure, not a config error.
    kappa2 = _power("kappa", channel.kappa, 2, OverflowError)
    extractions = []
    for g, grid in enumerate(grids):
        nz, nt, a = grid.n_z, grid.n_tau, g + len(grids)
        eps_p, h_p, em_p, power_p, energy_p, eff_p = light[g]
        eps_a, h_a, em_a, power_a, energy_a, eff_a = atoms[g]
        # sum_{j < n - 1} (sum_{m <= j} t^m)^2 = sum_{i < n} d_i^2 / expm1(h)^2.
        # Once expm1(h)^2 is below the normal floats, where the quotient of
        # subnormals keeps few digits or divides by an underflowed 0, n h is
        # under 1e-147 up to the 2^22 grid cap, and the h -> 0 limit
        # sum_{i < n} i^2 is exact to rounding.
        part_p, part_a = (
            squares[s] / em**2 if em**2 >= sys.float_info.min else (n - 1) * n * (2 * n - 1) / 6
            for s, em, n in ((g, em_p, nz), (a, em_a, nt))
        )
        k2 = kappa2 / (nz * nt)
        # Same-channel vacua: a vacuum injected i dampings before the output.
        own_l, own_a = eps_p * energy_p, eps_a * energy_a
        # Cross vacua: an atomic p vacuum from bin m' reaches the later bins'
        # x_l kicks with weight sum_{i < n_tau - 1 - m'} ta^i, then is damped
        # like the kick, sum_{i = 1..n_z} tp^(2i); light p into x_a mirrors it.
        cross_l = eps_a * k2 / nt * math.exp(2 * h_p) * energy_p * part_a
        cross_a = eps_p * k2 / nz * math.exp(2 * h_a) * energy_a * part_p
        extractions.append(CollectiveExtraction(
            kappa_eff=channel.kappa * (power_a / nt) * (math.exp(h_p) * power_p / nz),
            eps_p_eff=eff_p,
            eps_a_eff=eff_a,
            # x_l <- p_a(j) carries S(h_a, n_tau) / sqrt(n_tau); x_a mirrors it.
            signal_leak=VACUUM_VARIANCE * k2 * max(
                power_a**2 / nt * spread[g], power_p**2 / nz * spread[a]),
            noise_var_light_x=VACUUM_VARIANCE * own_l,
            noise_var_atom_x=VACUUM_VARIANCE * own_a,
            noise_var_light_x_total=VACUUM_VARIANCE * (own_l + cross_l),
            noise_var_atom_x_total=VACUUM_VARIANCE * (own_a + cross_a),
        ))
    return extractions
