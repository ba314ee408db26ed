"""Exact Gaussian-state calculus for registers of bosonic modes.

Quadratures are ordered ``(x0, p0, x1, p1, ...)`` with commutator [X, P] = i
and vacuum variance 1/2 in every quadrature.  Every variance, squeezing and
fidelity formula in this package relies on that normalization; do not rescale.

States are immutable values: every operation returns a new ``GaussianState``.
Measurement sampling takes an explicit ``numpy.random.Generator``; nothing in
this module keeps hidden RNG state.

Underneath, each elementary step (loss of one mode, rotation of one mode, and
in :mod:`~spinlight.interaction` the two-mode kick) is an in-place kernel that
updates only the rows it touches, never building the identity-padded transfer
matrix T.  A kernel acts on arrays whose leading axis is the quadrature (both
leading axes for a covariance) and whose trailing axes, if any, are a batch of
operating points: transfer columns or a mean become T X, a covariance
T N T^T + Y, and each update is a few vector operations over the batch.
A quarter turn, as between the rounds of a Bell measurement, is an exact
signed swap of the mode's rows.  ``rotate`` and ``loss_channel`` copy a
state's moments and apply a kernel.  A homodyne measurement (variance
checks, outcome and conditioning) is one kernel, ``_measure``, which
``homodyne`` and the protocols' batched pulse measurement both call; the
overlap with a coherent state is one batched kernel, ``_overlap``, which
``fidelity_coherent`` and the protocols' teleport stage both call.
"""

import dataclasses
import math

import numpy as np

__all__ = [
    "VACUUM_VARIANCE",
    "DegeneracyError",
    "GaussianState",
    "symplectic_form",
    "vacuum_state",
    "append_vacuum",
    "marginal",
    "displace",
    "rotate",
    "loss_channel",
    "homodyne",
    "variance_of",
    "fidelity_coherent",
]

#: Variance of every quadrature of a fresh vacuum mode.
VACUUM_VARIANCE = 0.5


class DegeneracyError(ArithmeticError):
    """A conditioning or overlap formula hit a singular covariance."""


def symplectic_form(n_modes):
    """Standard symplectic form Omega for the interleaved (x, p) ordering."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@dataclasses.dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix over an ordered register of modes.

    ``mean`` has length 2*n_modes in ``(x0, p0, x1, p1, ...)`` order and
    ``cov`` is the matching real symmetric matrix.  The covariance is
    symmetrized on construction to suppress floating-point drift, so every
    operation that rebuilds the state re-enforces symmetry.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if mean.size % 2 != 0:
            raise ValueError(f"mean length must be even, got {mean.size}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean length {mean.size}"
            )
        cov = 0.5 * (cov + cov.T)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self):
        return self.mean.size // 2

    def heisenberg_margin(self):
        """Smallest eigenvalue of cov + (i/2) Omega.

        Non-negative (within tolerance) for every physical state; the vacuum
        saturates zero.
        """
        if self.n_modes == 0:
            return 0.0
        herm = self.cov + 0.5j * symplectic_form(self.n_modes)
        return float(np.linalg.eigvalsh(herm)[0])


def _mode_of(state, mode):
    """Resolve an int mode argument to a validated register index."""
    idx = int(mode)
    if not 0 <= idx < state.n_modes:
        raise ValueError(f"mode {idx} out of range for {state.n_modes}-mode register")
    return idx


def vacuum_state(n_modes):
    """Vacuum of ``n_modes`` modes: zero mean, covariance (1/2) * identity."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    dim = 2 * int(n_modes)
    return GaussianState(np.zeros(dim), VACUUM_VARIANCE * np.eye(dim))


def append_vacuum(state, n_modes=1):
    """Attach ``n_modes`` fresh vacuum modes at the end of the register."""
    if n_modes < 1:
        raise ValueError(f"need at least one mode to append, got {n_modes}")
    add = 2 * int(n_modes)
    dim = state.mean.size
    mean = np.concatenate([state.mean, np.zeros(add)])
    cov = VACUUM_VARIANCE * np.eye(dim + add)
    cov[:dim, :dim] = state.cov
    return GaussianState(mean, cov)


def marginal(state, modes):
    """Reduced state of the given modes, kept in the order supplied."""
    idx = [_mode_of(state, m) for m in modes]
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate modes in marginal request")
    sel = np.array([2 * i + q for i in idx for q in (0, 1)], dtype=int)
    return GaussianState(state.mean[sel], state.cov[np.ix_(sel, sel)])


def displace(state, mode, dx, dp):
    """Shift the (x, p) means of one mode; covariance is untouched."""
    m = _mode_of(state, mode)
    mean = state.mean.copy()
    mean[2 * m] += dx
    mean[2 * m + 1] += dp
    return GaussianState(mean, state.cov)


def _targets(rows, cov):
    """The arrays a step updates along their leading (quadrature) axis.

    ``rows`` (a mean vector or a block of transfer columns) and ``cov`` may
    each be None.  A covariance is updated on its rows and then, through a
    transposed view, on its columns, which is T cov T^T for the step's T.
    """
    if rows is not None:
        yield rows
    if cov is not None:
        yield cov
        yield np.swapaxes(cov, 0, 1)


def _damp(rows, cov, mode, eps):
    """In place: admix a fraction ``eps`` of vacuum into one mode.

    The mode's rows (and covariance columns) scale by sqrt(1 - eps) and its
    two diagonal covariance entries gain eps / 2.  ``eps`` is a scalar or an
    array over the trailing batch axes.
    """
    keep = np.sqrt(1.0 - eps)
    quads = slice(2 * mode, 2 * mode + 2)
    for block in _targets(rows, cov):
        block[quads] *= keep
    if cov is not None:
        added = VACUUM_VARIANCE * eps
        cov[2 * mode, 2 * mode] += added
        cov[2 * mode + 1, 2 * mode + 1] += added


def _turn(rows, cov, mode, theta):
    """In place: phase-space rotation of one mode by a scalar angle."""
    c, s = math.cos(theta), math.sin(theta)
    x, p = 2 * mode, 2 * mode + 1
    for block in _targets(rows, cov):
        old_x = block[x].copy()
        block[x] = c * old_x + s * block[p]
        block[p] = c * block[p] - s * old_x


def _quarter_turn(rows, cov, mode, sign):
    """In place: rotation of one mode by ``sign`` * pi/2, an exact signed swap.

    x becomes sign * p and p becomes -sign * x, with no cos(pi/2) = 6.1e-17
    leaking into either.
    """
    x, p = 2 * mode, 2 * mode + 1
    for block in _targets(rows, cov):
        old_x = block[x].copy()
        block[x] = block[p]
        block[p] = old_x
        block[p if sign > 0 else x] *= -1.0


def _measure(mean, cov, k, value, sampled):
    """In place: measure quadrature ``k`` and condition the moments on the outcome.

    v = cov[k, k] must be positive and finite, else DegeneracyError.  The
    outcome is ``value`` or, if ``sampled``, mean[k] + sqrt(v) ``value`` for a
    standard normal ``value`` (the bits of ``rng.normal``); a non-finite one is
    a DegeneracyError if sampled (an overflowed mean) and a ValueError if
    given.  With c = cov[:, k], the mean gains c (outcome - mean[k]) / v and the
    covariance loses c c^T / v; the measured rows are kept.  Returns the
    outcome, a scalar or batch array; with ``mean`` None, only ``cov`` is
    conditioned, ``value`` is not read and None is returned.
    """
    column, v = cov[:, k].copy(), cov[k, k].copy()
    if not ((v > 0.0) & (v < math.inf)).all():
        if np.any(v <= 0.0):
            raise DegeneracyError(f"measured quadrature has non-positive variance {np.min(v)}")
        raise DegeneracyError(f"measured quadrature has non-finite variance {np.max(v)}")
    outcome = None
    if mean is not None:
        outcome = mean[k] + np.sqrt(v) * value if sampled else value
        bad = ~np.isfinite(outcome)
        if bad.any():
            error = DegeneracyError if sampled else ValueError
            raise error(f"measurement outcome must be finite, got {np.asarray(outcome)[bad][0]}")
        mean += column * ((outcome - mean[k]) / v)
    cov -= column[:, None] * column[None, :] / v
    return outcome


def _state_step(state, step, *args):
    """Copy a state, apply one in-place step to its moments, rebuild it."""
    mean, cov = state.mean.copy(), state.cov.copy()
    step(mean, cov, *args)
    return GaussianState(mean, cov)


def rotate(state, mode, theta):
    """Phase-space rotation of one mode.

    The (x, p) pair is mapped by [[cos t, sin t], [-sin t, cos t]], so
    theta = -pi/2 sends x -> -p and p -> x.
    """
    return _state_step(state, _turn, _mode_of(state, mode), theta)


def loss_channel(state, mode, eps):
    """Admix a fraction ``eps`` of vacuum into one mode.

    Means of the mode scale by sqrt(1 - eps), its covariance block becomes
    (1 - eps) * block + eps * (1/2) I, and every cross covariance with other
    modes scales by sqrt(1 - eps).  Vacuum is the fixed point for any eps.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"loss fraction must lie in [0, 1], got {eps}")
    return _state_step(state, _damp, _mode_of(state, mode), eps)


def homodyne(state, mode, quadrature, rng=None, forced=None):
    """Measure one quadrature of one mode and condition the rest on the result.

    Parameters
    ----------
    state : GaussianState
    mode : int
    quadrature : str
        ``'x'`` or ``'p'``.
    rng : numpy.random.Generator, optional
        Draws the outcome from the Gaussian marginal.
    forced : float, optional
        Use this outcome instead of sampling.  Exactly one of ``rng`` and
        ``forced`` must be given.

    Returns
    -------
    (outcome, posterior) : (float, GaussianState)
        Posterior follows the scalar Gaussian conditioning rule and the
        measured mode is removed from the register (the pulse is destroyed
        at the detector); remaining modes keep their relative order.

    Measured by the protocols' kernel ``_measure``, with its errors: a
    DegeneracyError, or a ValueError for a non-finite ``forced``.
    """
    if (rng is None) == (forced is None):
        raise ValueError("provide exactly one outcome source: rng or forced")
    if quadrature not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    m = _mode_of(state, mode)
    k = 2 * m + (0 if quadrature == "x" else 1)
    mean, cov = state.mean.copy(), state.cov.copy()
    sampled = forced is None
    outcome = _measure(mean, cov, k, rng.standard_normal() if sampled else float(forced), sampled)
    keep = np.array(
        [i for i in range(state.mean.size) if i not in (2 * m, 2 * m + 1)], dtype=int
    )
    return float(outcome), GaussianState(mean[keep], cov[np.ix_(keep, keep)])


def variance_of(state, coeffs):
    """Variance of a linear combination of quadratures: c^T cov c."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != state.mean.shape:
        raise ValueError(
            f"coefficient length {coeffs.size} does not match state dimension "
            f"{state.mean.size}"
        )
    return float(coeffs @ state.cov @ coeffs)


def _overlap(cov, delta):
    """Overlap det(G)^(-1/2) exp(-(1/2) d^T G^-1 d) of G = cov + (1/2) I, batched.

    ``cov`` is (..., 2, 2) and ``delta`` (..., 2); their leading axes
    broadcast, so B rows, or T offsets on one covariance, are one call.  The
    formula is written entry by entry, so every row has the bits of a one-row
    call.  Raises DegeneracyError if an entry of G is not finite (an
    overflowed covariance, whose products would turn into nan) or any det(G)
    is not positive.
    """
    if not np.isfinite(cov).all():
        raise DegeneracyError("overlap matrix has a non-finite entry")
    g00, g11 = cov[..., 0, 0] + VACUUM_VARIANCE, cov[..., 1, 1] + VACUUM_VARIANCE
    g01, g10 = cov[..., 0, 1], cov[..., 1, 0]
    det = g00 * g11 - g01 * g10
    if not np.all(det > 0.0):
        raise DegeneracyError(f"singular overlap matrix (det {np.min(det)})")
    d0, d1 = delta[..., 0], delta[..., 1]
    quadratic = (d0 * (g11 * d0 - g01 * d1) + d1 * (g00 * d1 - g10 * d0)) / det
    return np.exp(-0.5 * quadratic) / np.sqrt(det)


def fidelity_coherent(state, mode, target_mean):
    """Overlap of a single-mode marginal with a coherent state.

    For marginal covariance G and mean mu the overlap with the coherent state
    of mean ``target_mean`` is

        F = det(G + (1/2) I)^(-1/2) * exp(-(1/2) d^T (G + (1/2) I)^(-1) d),

    d = mu - target_mean, under the variance-1/2 vacuum convention.  Equal
    coherent states give 1; a zero-mean thermal-like marginal sigma * I gives
    1 / (sigma + 1/2).
    """
    m = _mode_of(state, mode)
    sl = slice(2 * m, 2 * m + 2)
    delta = state.mean[sl] - np.asarray(target_mean, dtype=float)
    return float(_overlap(state.cov[sl, sl], delta))
