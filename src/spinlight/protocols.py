"""Entanglement generation and teleportation between two collective spins.

Both protocols are built from the same primitive: a two-round collective Bell
measurement.  In each round a fresh light pulse passes through the first
sample, suffers transmission loss on the way to the second sample, passes
through it, suffers detector loss, and has its x quadrature measured.  Between
the rounds both samples are rotated in phase space (first sample by -pi/2,
second by +pi/2) so that the two rounds pin down the commuting pair
x1 - x2 and p1 + p2 of the final variables; with transmission loss the
effectively measured combinations carry a sqrt(1 - eta_t) weight on the first
sample.

Every map here is affine and every covariance is independent of the
outcomes, so measurement with linear feed-forward is deferred to the end of
the run (Braunstein & Kimble, PRL 80, 869 (1998)).  The two rounds of a Bell
measurement compose into one affine-Gaussian channel (X, Y) over a register
that keeps both light pulses unmeasured: samples with mean mu and covariance
S leave as mean X mu and covariance X S X^T + Y.  The rounds are applied as
in-place row/column updates (the pass kernel of
:func:`~spinlight.interaction.apply_pass` and quarter turns) to transfer
columns and a covariance together, so X S X^T + Y is pushed through directly
and never formed as a product.  Round parameters are per-row arrays on the
trailing batch axis, so a whole sweep of operating points is one pass.

The entangling stage pushes two vacuum samples through the channel; the
teleport stage pushes the entangled pair, a fresh input sample and the mean
map's columns for the input's x and p, whose responses A of sample 2 and C of
the outcomes give the gain G = (I - A) C^-1 of exactly unit mean transfer.
The fidelity is the overlap of the outcome-averaged output with the coherent
input, det(V)^(-1/2) exp(-d^T V^-1 d / 2), by the kernel of
:func:`~spinlight.gaussian.fidelity_coherent`.  Here V = W Sigma W^T + I/2
for W = [I G] and Sigma the joint covariance of sample 2 and both outcomes,
and d, the averaged mean's offset from the input, is zero at the unit gain
and varies by trial under a manual gain.  One teleport stage serves the
sweep, :func:`teleport` and :func:`run_trials`.  Both stages measure each
pulse's x in round order with the kernel of :func:`~spinlight.gaussian.homodyne`,
batched over operating points (the sweep, on the covariance alone) or over
the means of many trials at one operating point, so :func:`run_trials`
pushes each stage once per run; :func:`entangle` and :func:`teleport` are
its one-trial case, and their reports carry the trial's outcomes as floats in
round order.  :func:`lossy_fidelity_sweep` returns the sweep's
kappa2, simulated and closed-form fidelity columns with the argmax row.

Within a round, the light's two consecutive losses (eps_p after a pass, then
eta_t or eta_d) are that pass's light damping 1 - (1 - a)(1 - b), and the
-pi/2 and +pi/2 turns between the rounds are exact signed swaps, so each
round is two calls of the pass kernel.
"""

import dataclasses
import math

import numpy as np

from .gaussian import (
    VACUUM_VARIANCE,
    DegeneracyError,
    GaussianState,
    _measure,
    _overlap,
    _quarter_turn,
)
from .interaction import ChannelParams, _pass

__all__ = [
    "RoundPlan",
    "ProtocolReport",
    "squeezing_parameter",
    "fidelity_ideal",
    "fidelity_lossy",
    "lossy_fidelity_bound",
    "optimal_kappa2",
    "classical_bound_check",
    "entangle",
    "teleport",
    "run_trials",
    "make_plans",
    "simulated_lossy_fidelity",
    "lossy_fidelity_sweep",
]

# Quarter turns between the rounds: the first sample by -pi/2, the second by +pi/2.
_TURN_FIRST = -1
_TURN_SECOND = 1


@dataclasses.dataclass(frozen=True)
class RoundPlan:
    """Noise and strength settings for one Bell-measurement round.

    eta_t is the transmission loss between the two samples the round touches;
    eta_d the detector inefficiency just before the homodyne measurement.
    """

    kappa: float
    eps_p: float = 0.0
    eps_a: float = 0.0
    eta_t: float = 0.0
    eta_d: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and non-negative, got {self.kappa}")
        for name in ("eps_p", "eps_a", "eta_t", "eta_d"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value}")

    def channel(self):
        return ChannelParams(kappa=self.kappa, eps_p=self.eps_p, eps_a=self.eps_a)


@dataclasses.dataclass(frozen=True)
class ProtocolReport:
    """Run summary: squeezing, EPR variances, fidelity, outcomes."""

    r: float
    epr_x: float
    epr_p: float
    fidelity: float = None
    outcomes: tuple = ()

    def __post_init__(self):
        if not (self.epr_x >= 0 and self.epr_p >= 0):
            raise ValueError("EPR variances must be non-negative")
        if self.fidelity is not None and not 0.0 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity must lie in [0, 1], got {self.fidelity}")


# ---------------------------------------------------------------------------
# closed forms


def squeezing_parameter(kappa):
    """Two-mode squeezing r = (1/2) ln(1 + 2 kappa^2) from one round pair."""
    if kappa < 0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    return 0.5 * math.log1p(2.0 * kappa**2)


def fidelity_ideal(kappa):
    """Noise-free teleportation fidelity 1 / (1 + 1/(1 + 2 k^2) + 1/(2 k^2))."""
    if kappa <= 0:
        raise ValueError("fidelity diverges at kappa = 0; kappa must be positive")
    return 1.0 / (1.0 + 1.0 / (1.0 + 2.0 * kappa**2) + 1.0 / (2.0 * kappa**2))


def fidelity_lossy(kappa2, eta_t):
    """First-order fidelity under transmission loss, 2 / (2 + 1/k2^2 + k2^2 eta_t).

    ``kappa2`` may also be a float array, giving the fidelity at each value
    with the same bits as one call per value.
    """
    if np.any(kappa2 <= 0):
        raise ValueError("kappa2 must be positive")
    if not 0.0 <= eta_t < 1.0:
        raise ValueError(f"eta_t must lie in [0, 1), got {eta_t}")
    square = kappa2 * kappa2
    return 2.0 / (2.0 + 1.0 / square + square * eta_t)


def lossy_fidelity_bound(eta_t):
    """Upper envelope 1 / (1 + sqrt(eta_t)) of the lossy fidelity over kappa2."""
    if not 0.0 <= eta_t < 1.0:
        raise ValueError(f"eta_t must lie in [0, 1), got {eta_t}")
    return 1.0 / (1.0 + math.sqrt(eta_t))


def optimal_kappa2(eta_t):
    """Arg max of fidelity_lossy over kappa2: eta_t ** (-1/4)."""
    if not 0.0 < eta_t < 1.0:
        raise ValueError(f"eta_t must lie in (0, 1), got {eta_t}")
    return eta_t ** (-0.25)


def classical_bound_check(fidelity):
    """True iff the fidelity strictly beats the best measure-and-prepare value 1/2, elementwise."""
    values = np.asarray(fidelity, dtype=float)
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        raise ValueError(f"fidelity must lie in [0, 1], got {values[bad][0]}")
    return fidelity > 0.5


# ---------------------------------------------------------------------------
# deferred-measurement engine


def _stack(rows):
    """Round parameters of B operating points, one tuple of RoundPlans per row.

    Returns a (rounds, B, 5) array; the last axis follows the RoundPlan fields
    (kappa, eps_p, eps_a, eta_t, eta_d).
    """
    table = [[(p.kappa, p.eps_p, p.eps_a, p.eta_t, p.eta_d) for p in row] for row in rows]
    return np.array(table).transpose(1, 0, 2)


def _register(dim, batch, vacuum_from):
    """Batch-last (dim, dim, B) covariance, vacuum from quadrature ``vacuum_from`` on."""
    cov = np.zeros((dim, dim, batch))
    vacuum = np.arange(vacuum_from, dim)
    cov[vacuum, vacuum] = VACUUM_VARIANCE
    return cov


def _push_bell(rows, cov, n_atoms, first, second, rounds):
    """Push moments through the two rounds of a Bell measurement, in place.

    The register is the ``n_atoms`` samples followed by the light pulse of
    each round, none of them measured.  ``rows`` (transfer columns or a mean,
    may be None) has the quadrature on its leading axis and ``cov`` on its
    two leading axes; the batch of operating points is the trailing axis.
    ``rounds`` is a :func:`_stack` array.  Each pass's light damping is eps_p
    and the loss after it, one loss; the pass damps the sample first.
    """
    for number, params in enumerate(rounds):
        kappa, eps_p, eps_a, eta_t, eta_d = params.T
        light = n_atoms + number
        # Pass the first sample, transmission loss, pass the second sample,
        # detector loss.
        for sample, loss in ((first, eta_t), (second, eta_d)):
            _pass(rows, cov, light, sample, kappa, 1.0 - (1.0 - eps_p) * (1.0 - loss), eps_a)
        if number == 0:
            _quarter_turn(rows, cov, first, _TURN_FIRST)
            _quarter_turn(rows, cov, second, _TURN_SECOND)


def _measure_pulses(mean, cov, light, values=None, sampled=False):
    """In place: measure its pulses' x (modes ``light``, ``light + 1``) on a register.

    ``mean`` is None (only ``cov`` is conditioned) or the (dim, T) means of T
    trials at one operating point; the measured rows are kept.  Each pulse
    is one :func:`~spinlight.gaussian._measure` in round order, whose value
    is the pulse's row of ``values``: given outcomes or, if ``sampled``,
    standard normal draws.  Returns the (2, T) outcomes, or None without a mean.
    """
    outcomes = [_measure(mean, cov, k, None if mean is None else values[number], sampled)
                for number, k in enumerate((2 * light, 2 * light + 2))]
    return None if mean is None else np.array(outcomes)


def _outcome_source(rng, forced_outcomes):
    """``values`` and ``sampled`` of :func:`_measure_pulses` for one trial."""
    if forced_outcomes is None:
        if rng is None:
            raise ValueError("provide rng for sampled outcomes or forced_outcomes")
        return rng.standard_normal((2, 1)), True
    if len(forced_outcomes) != 2:
        raise ValueError("forced_outcomes must hold one value per round")
    return np.array(forced_outcomes, dtype=float)[:, None], False


# A run whose kicks overflow (kappa near 1e200) fails in _measure_pulses on the
# non-finite variance it leaves; numpy's overflow warnings would only repeat
# that, with source paths, ahead of the one-line error.  So both stages
# silence them, and the teleport stage also the division by zero of the
# determinant that names a singular gain calibration's row.
@np.errstate(over="ignore", invalid="ignore")
def _entangling_stage(rounds, values=None, sampled=False):
    """Vacuum through the entangling rounds of a :func:`_stack` array, conditioned.

    Returns the (8, T) means or None, the (8, 8, B) covariance and the outcomes.
    """
    cov = _register(8, rounds.shape[1], 0)
    _push_bell(None, cov, 2, 0, 1, rounds)
    # The vacuum mean is zero, and so is its image under the linear channel.
    mean = None if values is None else np.zeros((8, values.shape[1]))
    return mean, cov, _measure_pulses(mean, cov, 2, values, sampled)


# Rows of the local Bell channel's register (entangled pair, input sample,
# two pulses) that the teleport output depends on: sample 2's (x, p) and the
# x quadratures of the two pulses.
_JOINT = [2, 3, 6, 8]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _teleport_stage(pair_cov, rounds, gain=None, pair_means=None, input_mean=None,
                    values=None, sampled=False):
    """Local Bell channel, gain and teleport fidelity, batched over operating points.

    ``pair_cov`` is the (4, 4, B) pair covariance, batch-last as
    :func:`_entangling_stage` leaves it, and ``gain`` None for the gain of
    unit mean transfer, calibrated per row, or (gx, gp), which needs trial
    means.  Without ``pair_means`` returns the (B,) fidelities of the
    calibrated gain.  With the (4, T) ``pair_means`` of T trials at one
    operating point, their ``input_mean`` and the outcome source of
    :func:`_measure_pulses`, returns the (T,) fidelities, the (2, T) means and
    (2, 2) covariance of the displaced sample 2 and the (2, T) outcomes.
    """
    batch, trials = pair_cov.shape[-1], 0 if pair_means is None else pair_means.shape[1]
    cov = _register(10, batch, 4)
    cov[:4, :4] = pair_cov
    # The mean map's columns for the input's x and p, then the trials' means.
    columns = np.zeros((10, 2 + trials, batch))
    columns[4, 0] = columns[5, 1] = 1.0
    if trials:
        target = np.array([[float(input_mean[0])], [float(input_mean[1])]])
        columns[:4, 2:, 0], columns[4:6, 2:, 0] = pair_means, target
    _push_bell(columns, cov, 3, 0, 2, rounds)
    # Batch-first gathers keep the batched solve and products contiguous.
    sigma = np.moveaxis(cov, -1, 0)[:, _JOINT][:, :, _JOINT]
    if gain is None:
        # G C = I - A for the responses A (sample 2) and C (outcomes) to the
        # input mean; a singular C names its row's first local kappa, the
        # kappa2 of the loss-adapted strategy.
        responses = np.moveaxis(columns, -1, 0)
        a, c = responses[:, _JOINT[:2], :2], responses[:, _JOINT[2:], :2]
        c_t, rhs_t = np.swapaxes(c, -1, -2), np.swapaxes(np.eye(2) - a, -1, -2)
        try:
            matrix = np.swapaxes(np.linalg.solve(c_t, rhs_t), -1, -2)
        except np.linalg.LinAlgError as exc:
            row = int(np.argmin(np.abs(np.linalg.det(c))))
            raise ValueError(
                "gain calibration failed: measurement outcomes do not respond to the "
                f"input mean at kappa2 = {float(rounds[0][row, 0])!r} (kappa too small?)"
            ) from exc
    else:
        matrix = np.array([[[0.0, gain[0]], [gain[1], 0.0]]], float)
    # The outcome-averaged output of W = [I G] has covariance W Sigma W^T.
    weights = np.concatenate([np.broadcast_to(np.eye(2), matrix.shape), matrix], axis=-1)
    averaged_cov = weights @ sigma @ np.swapaxes(weights, -1, -2)
    if not trials:
        try:
            return _overlap(averaged_cov, np.zeros(2))
        except DegeneracyError as exc:
            # Name the first row with a non-finite entry, else the most
            # singular one, by its kappa2 as for a singular C.
            finite = np.isfinite(averaged_cov).all(axis=(-2, -1))
            if finite.all():
                det = np.linalg.det(averaged_cov + VACUUM_VARIANCE * np.eye(2))
                row = int(np.argmin(det))
            else:
                row = int(np.argmin(finite))
            raise DegeneracyError(f"{exc} at kappa2 = {float(rounds[0][row, 0])!r}") from exc
    # Its mean is W mu_J plus an offset: a calibrated gain's puts it on the
    # input mean, a manual gain has none.  W mu_J is summed row by row, so
    # each trial has the bits of a one-trial run.
    weights, joint = weights[0], columns[_JOINT, 2:, 0]
    averaged = sum(weights[:, k, None] * joint[k] for k in range(len(_JOINT)))
    offsets = target - averaged if gain is None else 0.0
    delta = np.zeros_like(averaged) if gain is None else averaged - target
    fidelities = _overlap(averaged_cov, delta.T)
    mean = columns[:, 2:, 0]
    outcomes = _measure_pulses(mean, cov, 3, values, sampled)
    displaced = mean[2:4] + (weights[:, 2:] @ outcomes + offsets)
    return fidelities, displaced, cov[2:4, 2:4, 0], outcomes


_EPR = (np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0]))


# An overflowed pair covariance fails here on its non-finite variances; numpy's
# warnings from the products would only repeat that ahead of the error.
@np.errstate(over="ignore", invalid="ignore")
def _report(pair_cov, fidelity=None, outcomes=()):
    """Report carrying the EPR variances var(x1 - x2), var(p1 + p2) of a pair covariance."""
    epr_x, epr_p = (float(c @ pair_cov @ c) for c in _EPR)
    if not (math.isfinite(epr_x) and math.isfinite(epr_p)):
        raise DegeneracyError(f"non-finite EPR variance: epr_x = {epr_x!r}, epr_p = {epr_p!r}")
    if epr_x <= 0 or epr_p <= 0:
        raise DegeneracyError(f"non-positive EPR variance: epr_x = {epr_x!r}, epr_p = {epr_p!r}")
    # Adding 0.0 turns the -0.0 of log(1) at kappa = 0 into 0.0 and keeps
    # every other value's bits.
    r = -0.25 * math.log(epr_x * epr_p) + 0.0
    return ProtocolReport(r, epr_x, epr_p, fidelity, outcomes)


# ---------------------------------------------------------------------------
# entanglement generation


def entangle(plan_round1, plan_round2, rng=None, forced_outcomes=None):
    """Generate a conditionally entangled pair of collective spins.

    Both samples start in vacuum (coherent spin state along the polarization
    axis).  Returns the conditional two-sample state and a report whose EPR
    variances var(x1 - x2), var(p1 + p2) are exact consequences of the
    Gaussian conditioning, independent of the measurement outcomes.  The
    outcomes are ``forced_outcomes`` (one per round) or drawn from ``rng``.
    """
    rounds = _stack([(plan_round1, plan_round2)])
    mean, cov, outcomes = _entangling_stage(rounds, *_outcome_source(rng, forced_outcomes))
    state = GaussianState(mean[:4, 0], cov[:4, :4, 0])
    return state, _report(state.cov, None, tuple(outcomes[:, 0].tolist()))


# ---------------------------------------------------------------------------
# teleportation


def teleport(entangled, input_mean, plan_local_round1, plan_local_round2, gain=None,
             rng=None, forced_outcomes=None):
    """Teleport a coherent collective-spin state onto sample 2.

    ``entangled`` is the two-sample state from :func:`entangle`: sample 1
    takes part in the local Bell measurement, sample 2 receives the
    displacement.  ``input_mean`` is the (x, p) mean of the coherent input
    prepared on a fresh third sample.  Under transmission loss the lossy
    strategy's local rounds run the moderate kappa first and the large kappa
    second, mirroring the entangling rounds.  ``gain`` (gx, gp) displaces by
    dx = gx * m2, dp = gp * m1 for the round outcomes m1, m2; by default it is
    calibrated for unit end-to-end mean transfer.  ``rng`` and
    ``forced_outcomes`` are the outcome source, as in :func:`entangle`.

    Returns the conditional state of sample 2 after the displacement and a
    report whose fidelity is the overlap of the outcome-averaged output with
    the coherent input, the quantity the closed-form expressions describe.
    A fidelity outside [0, 1] is a DegeneracyError (see :func:`_unit_interval`).
    """
    if entangled.n_modes != 2:
        raise ValueError(f"entangled resource must have exactly 2 modes, got {entangled.n_modes}")
    fidelities, mean, cov, outcomes = _teleport_stage(
        entangled.cov[:, :, None], _stack([(plan_local_round1, plan_local_round2)]), gain,
        entangled.mean[:, None], input_mean, *_outcome_source(rng, forced_outcomes),
    )
    fidelity = _unit_interval(fidelities, lambda row: f"input mean {tuple(input_mean)!r}")[0]
    report = _report(entangled.cov, float(fidelity), tuple(outcomes[:, 0].tolist()))
    return GaussianState(mean[:, 0], cov), report


def _unit_interval(fidelities, row_name):
    """The ``fidelities``, each checked to lie in [0, 1].

    One outside can only come from rounding or an overflow (as under a manual
    gain of 1e150), so it is a DegeneracyError naming the first such row by
    ``row_name(row)``.
    """
    bad = np.flatnonzero(~((fidelities >= 0.0) & (fidelities <= 1.0)))
    if bad.size:
        raise DegeneracyError(
            f"fidelity must lie in [0, 1], got {fidelities[bad[0]]} at {row_name(bad[0])}"
        )
    return fidelities


def run_trials(plans, rng, trials, input_mean=None, gain=None):
    """Entangle, and teleport if ``input_mean`` is given, ``trials`` times.

    ``plans`` maps :func:`make_plans`' round names to RoundPlans, and
    ``input_mean`` and ``gain`` are as in :func:`teleport`.  Each stage is
    pushed once for all trials.  The run draws one (trials, 4) block of
    standard normals from ``rng``: row t holds trial t's draws in measurement
    order (an entangle-only run reads its first two columns), so trial t has
    the bits of one :func:`entangle` and one :func:`teleport` call on ``rng``
    advanced by 4 t draws, and a run is a prefix of any longer run.  Returns
    the (trials, rounds) outcomes, the report of the pair's EPR variances, and
    the (trials,) fidelities (or None), each in [0, 1] (see :func:`_unit_interval`).
    """
    draws = rng.standard_normal((trials, 4)).T
    entangling = _stack([(plans["entangle1"], plans["entangle2"])])
    mean, cov, outcomes = _entangling_stage(entangling, draws[:2], True)
    pair_cov = cov[:4, :4, 0].copy()
    if input_mean is None:
        return outcomes.T.copy(), _report(pair_cov), None
    local = _stack([(plans["local1"], plans["local2"])])
    fidelities, _, _, teleported = _teleport_stage(
        cov[:4, :4], local, gain, mean[:4], input_mean, draws[2:], True
    )
    fidelities = _unit_interval(fidelities, lambda trial: f"trial {trial}")
    return np.concatenate([outcomes, teleported]).T.copy(), _report(pair_cov), fidelities


# ---------------------------------------------------------------------------
# loss / strength trade-off sweep


def _sweep_blocks(kappa2, eta_t, block_rows, kappa1_multiplier=10.0, eps_p=0.0, eps_a=0.0,
                  eta_d=0.0, eta_t_local=None):
    """Entangling and local :func:`_stack` tables of the loss-adapted strategy, by blocks.

    Yields the row slice and the two tables of ``kappa2`` (a float array)
    ``block_rows`` rows at a time.  Entangling rounds run the large kappa1 = ``kappa1_multiplier`` *
    kappa2 first and kappa2 second; the local Bell measurement mirrors that
    (kappa2 first, kappa1 second).  The local rounds carry the transmission
    loss ``eta_t_local``, by default ``eta_t``: matching the sqrt(1 - eta_t)
    weights between the nonlocal and local measurements is what cancels the
    amplified anti-squeezed noise at unit gain.  Every row is checked, with
    the checks of :class:`RoundPlan`, before the first block: the noise
    settings through RoundPlan once, and every kappa finite and non-negative,
    a bad row being named by its kappa2.
    """
    if eta_t_local is None:
        eta_t_local = eta_t
    for transmission in (eta_t, eta_t_local):
        RoundPlan(kappa=0.0, eps_p=eps_p, eps_a=eps_a, eta_t=transmission, eta_d=eta_d)
    # An overflowed kappa1 is named by the row check below.
    with np.errstate(over="ignore", invalid="ignore"):
        kappa1 = kappa1_multiplier * kappa2
        bad = ~(np.isfinite(kappa1) & np.isfinite(kappa2) & (kappa1 >= 0) & (kappa2 >= 0))
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            "kappa must be finite and non-negative, got kappa1 = "
            f"{float(kappa1[row])!r} at kappa2 = {float(kappa2[row])!r}"
        )

    def table(kappa_first, kappa_second, transmission):
        rounds = np.empty((2, len(kappa_first), 5))
        rounds[0, :, 0], rounds[1, :, 0] = kappa_first, kappa_second
        rounds[:, :, 1:] = (eps_p, eps_a, transmission, eta_d)
        return rounds

    for start in range(0, len(kappa2), block_rows):
        rows = slice(start, start + block_rows)
        yield (rows, table(kappa1[rows], kappa2[rows], eta_t),
               table(kappa2[rows], kappa1[rows], eta_t_local))


def make_plans(kappa2, eta_t, **plan_kwargs):
    """Round plans of the loss-adapted strategy at one kappa2.

    Returns the RoundPlans ``entangle1``, ``entangle2``, ``local1`` and
    ``local2`` of the one-row :func:`_sweep_blocks` block, which sets the
    round order and takes the ``plan_kwargs`` ``kappa1_multiplier`` (10.0),
    ``eps_p``, ``eps_a``, ``eta_d`` (0.0) and ``eta_t_local`` (``eta_t``).
    """
    _, entangling, local = next(_sweep_blocks(np.array([float(kappa2)]), eta_t, 1,
                                              **plan_kwargs))
    rows = np.concatenate([entangling, local])[:, 0].tolist()
    return {name: RoundPlan(*row)
            for name, row in zip(("entangle1", "entangle2", "local1", "local2"), rows)}


# Rows of one sweep block.  A block's stage arrays take about 2.3 KB per row.
# Measured with tracemalloc on a 2-core Xeon: at 10^5 rows one batch took
# 0.50 s and a 200 MB peak, 4096-row blocks 0.28-0.33 s and 11 MB; at 10^6
# rows 4096-row blocks took 3.1 s and 25 MB, 8192-row ones 3.1 s and 34 MB.
_SWEEP_BLOCK = 4096


def _lossy_fidelities(kappa2, eta_t, **plan_kwargs):
    """Teleportation fidelity of the loss-adapted strategy at every kappa2, batched.

    ``kappa2`` is a float array, run in blocks of ``_SWEEP_BLOCK`` rows.  Rows
    are independent, so a block's fidelities have the bits of any other
    split.  The entangling stage of :func:`entangle` runs on the covariance
    alone, since the outcomes never enter a covariance, and no transfer map
    is formed for it.  A fidelity outside [0, 1] is a DegeneracyError
    naming its row's kappa2 (see :func:`_unit_interval`).
    """
    fidelities = np.empty(len(kappa2))
    for rows, entangling, local in _sweep_blocks(kappa2, eta_t, _SWEEP_BLOCK, **plan_kwargs):
        _, cov, _ = _entangling_stage(entangling)
        fidelities[rows] = _teleport_stage(cov[:4, :4], local)
    return _unit_interval(fidelities, lambda row: f"kappa2 = {float(kappa2[row])!r}")


def simulated_lossy_fidelity(kappa2, eta_t, **plan_kwargs):
    """Teleportation fidelity of the loss-adapted strategy at one operating point."""
    return float(_lossy_fidelities(np.array([float(kappa2)]), eta_t, **plan_kwargs)[0])


def lossy_fidelity_sweep(kappa2_values, eta_t, **plan_kwargs):
    """Sweep kappa2 at fixed eta_t, as columns.

    Returns ``(kappa2, f_simulated, f_closed_form, best)``: the kappa2 values,
    the simulated fidelities and :func:`fidelity_lossy` as float arrays, and
    the index of the simulated argmax.  ``plan_kwargs`` are those of
    :func:`make_plans`.  The column runs in blocks of ``_SWEEP_BLOCK`` rows,
    and the closed form is evaluated once over it, with the same checks.
    """
    kappa2 = np.array(kappa2_values, dtype=float)
    if len(kappa2) < 2:
        raise ValueError("sweep needs at least two kappa2 values")
    f_simulated = _lossy_fidelities(kappa2, eta_t, **plan_kwargs)
    f_closed_form = fidelity_lossy(kappa2, eta_t)
    return kappa2, f_simulated, f_closed_form, int(np.argmax(f_simulated))
