"""Exact Gaussian-state calculus for registers of bosonic modes.

Quadratures are ordered ``(x0, p0, x1, p1, ...)`` with commutator [X, P] = i
and vacuum variance 1/2 in every quadrature.  Every variance, squeezing and
fidelity formula in this package relies on that normalization; do not rescale.

States are immutable values: every operation returns a new ``GaussianState``.
Measurement sampling takes an explicit ``numpy.random.Generator``; nothing in
this module keeps hidden RNG state.

Underneath, each elementary step (loss or rotation of one mode, and in
:mod:`~spinlight.interaction` the kick and the pass) is an in-place kernel on
rows (a mean, transfer columns or the protocols' factor): with the quadrature
leading and any batch of operating points trailing, each step parameter a
scalar or an array over that batch, it makes them T X in a few vector
operations, never building the identity-padded T, and returns the vacua it
injects as (mode, eps) pairs.  One covariance rule, ``_step``, makes a
covariance T N T^T + Y: the kernel acts on its rows, then its columns, and
each returned vacuum adds eps / 2 to its mode's diagonal; the state calculus
(``rotate``, ``loss_channel``, ``apply_pass``) steps a copy of a state's
moments through it.  A quarter turn, as between Bell rounds, is an exact
signed swap of the mode's rows.  A homodyne measurement (variance checks,
outcome and conditioning) is one kernel, ``_measure``, for ``homodyne`` and
the protocols' batched pulse measurement; the overlap with a coherent state
is one kernel, ``_overlap``, for ``fidelity_coherent`` and the protocols'
teleport stage.  Every kernel, these two included, takes the batch last.
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


def _damp(rows, mode, eps):
    """In place: admix a fraction ``eps`` of vacuum into one mode.

    The mode's rows scale by sqrt(1 - eps).  ``eps`` is a scalar or an array
    over the trailing batch axes.  Returns the injected vacuum ((mode, eps),).
    """
    rows[2 * mode : 2 * mode + 2] *= np.sqrt(1.0 - eps)
    return ((mode, eps),)


def _turn(rows, mode, theta):
    """In place: phase-space rotation of one mode by a scalar angle."""
    c, s = math.cos(theta), math.sin(theta)
    x, p = 2 * mode, 2 * mode + 1
    old_x = rows[x].copy()
    rows[x] = c * old_x + s * rows[p]
    rows[p] = c * rows[p] - s * old_x
    return ()


def _quarter_turn(rows, mode, sign):
    """In place: rotation of one mode by ``sign`` * pi/2, an exact signed swap.

    x becomes sign * p and p becomes -sign * x, with no cos(pi/2) = 6.1e-17
    leaking into either.  The protocols' two quadrature sectors rely on it: a
    general rotate(theta) would mix x and p and couple them.
    """
    x, p = 2 * mode, 2 * mode + 1
    old_x = rows[x].copy()
    rows[x] = rows[p]
    rows[p] = old_x
    rows[p if sign > 0 else x] *= -1.0
    return ()


def _step(rows, cov, step, *args):
    """In place: one step kernel on ``rows`` and on a covariance ``cov``.

    The covariance becomes T cov T^T + Y: the step acts on its rows, then,
    through a transposed view, on its columns, and each vacuum it returns,
    (mode, eps), adds eps / 2 to that mode's two diagonal entries.
    """
    step(rows, *args)
    step(cov, *args)
    for mode, eps in step(np.swapaxes(cov, 0, 1), *args):
        for q in (2 * mode, 2 * mode + 1):
            cov[q, q] += VACUUM_VARIANCE * eps


def _measure(mean, cov, k, value, sampled, row_name=None):
    """In place: measure quadrature ``k`` and condition the moments on the outcome.

    v = cov[k, k] must be positive and finite, else DegeneracyError; given
    ``row_name``, its message ends " at {row_name(row)}" for the row it
    quotes: the one with the smallest variance for a non-positive one, else
    the first with a non-finite variance.  The outcome is ``value`` or, if
    ``sampled``, mean[k] + sqrt(v) ``value`` for a standard normal ``value``
    (the bits of ``rng.normal``).  A non-finite outcome is a DegeneracyError:
    given values are checked where they enter, so only a draw off an
    overflowed mean can be one.  With c = cov[:, k], the mean gains
    c (outcome - mean[k]) / v and the covariance loses c c^T / v; the measured
    rows are kept.  Returns the outcome, a scalar or batch array; with
    ``mean`` None, only ``cov`` is conditioned, ``value`` is not read and
    None is returned.
    """
    column, v = cov[:, k].copy(), cov[k, k].copy()
    if not ((v > 0.0) & (v < math.inf)).all():
        if np.any(v <= 0.0):
            text, row = f"non-positive variance {np.min(v)}", np.argmin(v)
        else:
            text, row = f"non-finite variance {np.max(v)}", np.argmin(np.isfinite(v))
        text = f"measured quadrature has {text}"
        raise DegeneracyError(text if row_name is None else f"{text} at {row_name(int(row))}")
    outcome = None
    if mean is not None:
        outcome = mean[k] + np.sqrt(v) * value if sampled else value
        bad = ~np.isfinite(outcome)
        if bad.any():
            raise DegeneracyError(
                f"measurement outcome must be finite, got {np.asarray(outcome)[bad][0]}")
        mean += column * ((outcome - mean[k]) / v)
    cov -= column[:, None] * column[None, :] / v
    return outcome


def _state_step(state, step, *args):
    """Copy a state, apply one step kernel to its moments (:func:`_step`), rebuild it."""
    mean, cov = state.mean.copy(), state.cov.copy()
    _step(mean, cov, step, *args)
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

    A non-finite ``forced`` is a ValueError; the measurement is the
    protocols' kernel ``_measure``, with its DegeneracyErrors.
    """
    if (rng is None) == (forced is None):
        raise ValueError("provide exactly one outcome source: rng or forced")
    if forced is not None and not math.isfinite(forced := float(forced)):
        raise ValueError(f"measurement outcome must be finite, got {forced}")
    if quadrature not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quadrature!r}")
    m = _mode_of(state, mode)
    k = 2 * m + (0 if quadrature == "x" else 1)
    mean, cov = state.mean.copy(), state.cov.copy()
    sampled = forced is None
    outcome = _measure(mean, cov, k, rng.standard_normal() if sampled else forced, sampled)
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


def _overlap(cov, delta, row_name=None):
    """Overlap det(G)^(-1/2) exp(-(1/2) d^T G^-1 d) of G = cov + (1/2) I, batched.

    ``cov`` is (2, 2, ...) and ``delta`` (2, ...), batch-last like every
    kernel's operands; their trailing axes broadcast, so B rows, or T offsets
    on one covariance, are one call.  The formula is written entry by entry,
    so every row has the bits of a one-row call; the exponential is
    ``math.exp`` per row, whose bits do not follow numpy's SIMD dispatch, as
    the 128-trial ``teleport-gain`` golden case holds.  Raises DegeneracyError
    if an entry of G is not finite (an overflowed covariance, whose products
    would turn into nan) or any det(G) is not positive; given ``row_name``,
    the error ends " at {row_name(row)}" for the first row with a non-finite
    entry, else the most singular row.
    """

    def fail(text, row):
        raise DegeneracyError(text if row_name is None else f"{text} at {row_name(int(row))}")

    finite = np.isfinite(cov).all(axis=(0, 1))
    if not finite.all():
        fail("overlap matrix has a non-finite entry", np.argmin(finite))
    g00, g11 = cov[0, 0] + VACUUM_VARIANCE, cov[1, 1] + VACUUM_VARIANCE
    g01, g10 = cov[0, 1], cov[1, 0]
    det = g00 * g11 - g01 * g10
    if not np.all(det > 0.0):
        fail(f"singular overlap matrix (det {np.min(det)})", np.argmin(det))
    d0, d1 = delta[0], delta[1]
    exponent = -0.5 * ((d0 * (g11 * d0 - g01 * d1) + d1 * (g00 * d1 - g10 * d0)) / det)
    weights = np.fromiter(map(math.exp, exponent.flat), float, exponent.size)
    return weights.reshape(exponent.shape) / np.sqrt(det)


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
