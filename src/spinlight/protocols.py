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
measurement compose into one affine-Gaussian channel over the two samples it
measures and both light pulses, unmeasured.  Each stage pushes it once, for
a whole batch of operating points, as a rows-only factor F = [X | N] under
the pass kernel of :func:`~spinlight.interaction.apply_pass` and the quarter
turns, each pass's returned vacua appended as columns: samples with mean mu
and covariance S leave as mean X mu and covariance X S X^T + N N^T / 2.  F
is (quadrature, column, operating point), batch-last like every kernel
operand, and each pass updates only the columns injected so far.  A round's
parameters are :class:`RoundPlan`'s five fields, each a float (one plan's)
or an array over the operating points (a sweep block's kappa).

The kick writes x rows from p rows only, losses damp one mode each and the
turns are exact signed swaps, so the register splits into two quadrature
sectors that no step mixes: x1, x2, pulse 1's x and pulse 2's p, and the rest.
A mode's x and p rows lie in different sectors, so they share one column of F,
and no sector's rows carry the other's zero columns.  Round 1's pulse
conditions only the x sector, round 2's only the p sector: the pair x1 - x2,
p1 + p2, measured apart as by Julsgaard, Kozhekin & Polzik, Nature 413, 400
(2001).  The entangling stage conditions each sector's 3 x 3 joint of both
samples and its pulse, Sigma_J = F_J F_J^T / 2, on the pulse: the pair's 2 x 2
sectors sigma_x, sigma_p reach the report.  In the teleport stage, which
pushes sample 1 and the input, round 2's pulse reads their x as they enter,
with response c_x to the input's, and round 1's their p, with c_p.  Each pulse
and the like quadrature of sample 2, untouched by the push, form a 2 x 2 joint
Sigma_J = X_J S X_J^T + N_J N_J^T / 2 (S the pair's sector and the input's
vacuum).  The gain G = [[0, 1/c_x], [1/c_p, 0]] of exactly unit mean transfer
moves x2 by g_x times round 2's outcome and p2 by g_p times round 1's.  The
fidelity is the overlap of the outcome-averaged output with the coherent
input, det(V)^(-1/2) exp(-d^T V^-1 d / 2), by the kernel of
:func:`~spinlight.gaussian.fidelity_coherent`, for V = diag(V_xx, V_pp) + I/2,
V_qq = W Sigma_J W^T with W = [1 g_q], and d the averaged mean's offset from
the input: zero at the unit gain, varying by trial under a manual gain
(anti-diagonal too).  Each stage measures each pulse's x in round order by the
kernel of :func:`~spinlight.gaussian.homodyne`, on the joints alone (the
sweep) or with the means of many trials at one operating point, so
:func:`run_trials` pushes each stage once per run; :func:`entangle` and
:func:`teleport` are its one-trial case, their reports carrying the trial's
outcomes as floats in round order.  One teleport stage serves the sweep,
:func:`teleport` and :func:`run_trials`, and checks each fidelity it makes.

Within a round, the light's two consecutive losses (eps_p after a pass, then
eta_t or eta_d) are that pass's light damping 1 - (1 - a)(1 - b), and the
-pi/2 and +pi/2 turns between the rounds are exact signed swaps, so each
round is two calls of the pass kernel.
"""

import dataclasses
import math
import sys

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
class RoundPlan(ChannelParams):
    """One Bell-measurement round: its pass channel and the light's losses.

    A round plan is its pass channel (kappa, eps_p, eps_a), checked by
    :class:`~spinlight.interaction.ChannelParams`, so it goes wherever a
    channel does.  eta_t is the transmission loss between the two samples the
    round touches; eta_d the detector inefficiency just before the homodyne
    measurement.
    """

    eps_p: float = 0.0
    eps_a: float = 0.0
    eta_t: float = 0.0
    eta_d: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        for name in ("eta_t", "eta_d"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value}")


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
    if not kappa >= 0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    return 0.5 * math.log1p(2.0 * kappa**2)


def fidelity_ideal(kappa):
    """Noise-free teleportation fidelity 1 / (1 + 1/(1 + 2 k^2) + 1/(2 k^2))."""
    if not kappa > 0:
        raise ValueError("fidelity diverges at kappa = 0; kappa must be positive")
    return 1.0 / (1.0 + 1.0 / (1.0 + 2.0 * kappa**2) + 1.0 / (2.0 * kappa**2))


def fidelity_lossy(kappa2, eta_t):
    """First-order fidelity under transmission loss, 2 / (2 + 1/k2^2 + k2^2 eta_t).

    ``kappa2`` may also be a float array, giving the fidelity at each value
    with the same bits as one call per value.
    """
    if not np.all(kappa2 > 0):
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
    above = values > 0.5
    return above if above.ndim else bool(above)


# ---------------------------------------------------------------------------
# deferred-measurement engine


def _push_bell(rounds):
    """The two rounds of a Bell measurement as a rows-only factor F = [X | N].

    The register is the two samples (modes 0 and 1) followed by the light
    pulse of each round, none of them measured.  ``rounds`` holds each
    round's :class:`RoundPlan` fields (kappa, eps_p, eps_a, eta_t, eta_d),
    each a float or a (B,) array.  F is (quadrature, column, B), B = 1 for
    floats, and folded: it starts as 1 in column m of mode m's x and p rows,
    X being its first 2 columns.  Each pass's light damping is eps_p and the
    loss after it, one loss; the pass acts on the columns injected so far
    (the rest are zero), and each vacuum it returns, the sample's, then the
    light's, is appended as one column, sqrt(eps) in that mode's x and p rows.
    """
    modes, batch = 2 + len(rounds), np.broadcast(*sum(rounds, ())).size
    # Two passes a round, each appending two vacua of one column.
    factor = np.zeros((2 * modes, modes + 4 * len(rounds), batch))
    factor[np.arange(2 * modes), np.arange(2 * modes) // 2] = 1.0
    col = modes
    for number, (kappa, eps_p, eps_a, eta_t, eta_d) in enumerate(rounds):
        # Pass the first sample, transmission loss, pass the second sample,
        # detector loss.
        for sample, loss in ((0, eta_t), (1, eta_d)):
            eps_light = 1.0 - (1.0 - eps_p) * (1.0 - loss)
            for mode, eps in _pass(factor[:, :col], 2 + number, sample, kappa, eps_light, eps_a):
                factor[2 * mode : 2 * mode + 2, col] = np.sqrt(eps)
                col += 1
        if number == 0:
            _quarter_turn(factor[:, :col], 0, _TURN_FIRST)
            _quarter_turn(factor[:, :col], 1, _TURN_SECOND)
    return factor


def _outcome_source(rng, forced_outcomes):
    """``values`` and ``sampled`` of :func:`_entangling_stage` for one trial."""
    if (rng is None) == (forced_outcomes is None):
        raise ValueError("provide exactly one outcome source: rng or forced_outcomes")
    if forced_outcomes is None:
        return rng.standard_normal((2, 1)), True
    return _pair("forced_outcomes", forced_outcomes)[:, None], False


# The entangling push's rows by sector: both samples' x and pulse 1's, their p and pulse 2's x.
_SECTORS = np.array([[0, 2, 4], [1, 3, 6]])


def _pair_cov(covs):
    """The (x1, p1, x2, p2) covariance, sigma_x + sigma_p, of the sectors' first row."""
    cov = np.zeros((4, 4))
    cov[0::2, 0::2], cov[1::2, 1::2] = covs[..., 0]
    return cov


# A run whose kicks overflow (kappa near 1e200) fails in _measure on the
# non-finite variance it leaves; numpy's overflow warnings would only repeat
# that ahead of the one-line error, so both stages silence them.
@np.errstate(over="ignore", invalid="ignore")
def _entangling_stage(rounds, values=None, sampled=False, row_name=None):
    """The pair left by vacuum through the entangling ``rounds`` of :func:`_push_bell`.

    Each sector's (3, 3, B) joint F_J F_J^T / 2 of the vacuum samples'
    ``_SECTORS``, with the (3, T) means of T trials at one operating point
    given ``values``, is conditioned on its pulse by one
    :func:`~spinlight.gaussian._measure`, valued by its round's row of
    ``values``: given outcomes or, if ``sampled``, standard normal draws;
    ``row_name`` names a bad variance's row.  Returns the pair's (2, 2, T) means
    or None and (2, 2, 2, B) covariances, and the (2, T) outcomes or None, by sector.
    """
    # F_J's (sector, row, column, B) rows.  Their 12 columns are summed left to right in
    # elementwise numpy: one order for any row and block split, where BLAS's products pick theirs.
    rows = _push_bell(rounds)[_SECTORS]
    covs = VACUUM_VARIANCE * sum(rows[:, :, None, j] * rows[:, None, :, j] for j in range(12))
    # The vacuum mean is zero, and so is its image under the linear channel.
    means = None if values is None else np.zeros((2, 3, values.shape[1]))
    outcomes = [_measure(None if means is None else means[q], covs[q], 2,
                         None if means is None else values[q], sampled, row_name) for q in (0, 1)]
    if means is None:
        return None, covs[:, :2, :2], None
    return means[:, :2], covs[:, :2, :2], np.array(outcomes)


@np.errstate(over="ignore", invalid="ignore")
def _teleport_stage(covs, rounds, gain=None, means=None, input_mean=None, values=None,
                    sampled=False, row_name=None):
    """Local Bell push of sample 1 and the input, gain and fidelity, per sector.

    ``covs`` are the pair's (2, 2, 2, B) sector covariances and ``means`` None
    or their (2, 2, T) means of T trials at one operating point, as
    :func:`_entangling_stage` returns them.  ``gain`` is None for g = 1/c per
    row and sector, or (gx, gp), which needs means; it and ``input_mean`` are
    float arrays, as :func:`_check_teleport_inputs` returns them.  A fidelity
    outside [0, 1], from rounding or an overflow, is a DegeneracyError;
    ``row_name`` names its row, the overlap's and, in a sweep, a singular
    calibration's.  Without means returns the (B,) fidelities; with them,
    ``input_mean`` and the outcome source of :func:`_entangling_stage`, the
    (T,) fidelities, the displaced sample 2's (2, T) means and (2, 2)
    covariance, and the outcomes.
    """
    # The pulses' (sector, column, B) rows, the x sector's (round 2's) first:
    # sector q reads sample 1's quadrature q in column 0, the input's in 1.
    rows = _push_bell(rounds)[[6, 4]]
    f, c = rows[:, 0], rows[:, 1]
    if gain is None and not c.all():
        row, number = np.argwhere(c[::-1].T == 0.0)[0]
        where = (row_name(row) if means is None
                 else f"local round {number + 1}'s kappa = {float(rounds[number][0])!r}")
        raise ValueError("gain calibration failed: measurement outcomes do not respond to the "
                         f"input mean at {where} (kappa too small?)")
    gains = 1.0 / c if gain is None else gain[:, None]
    # Sigma_J = X_J S X_J^T + N_J N_J^T / 2 over (sample 2, pulse), for X_J = [[0, 1, 0],
    # [f, 0, c]] over S, the sector beside the input's vacuum, and N_J's columns summed in
    # order; the outcome-averaged output of W = [1 g] has variance W Sigma_J W^T.
    noise = sum(rows[:, j] * rows[:, j] for j in range(2, 12))
    joints = np.empty((2, 2, 2, rows.shape[2]))
    joints[:, 0, 0], joints[:, 0, 1] = covs[:, 1, 1], covs[:, 1, 0] * f
    joints[:, 1, 0] = f * covs[:, 0, 1]
    joints[:, 1, 1] = (f * covs[:, 0, 0] * f + VACUUM_VARIANCE * c * c) + VACUUM_VARIANCE * noise
    averaged_cov = np.zeros((2, 2, rows.shape[2]))
    averaged_cov[[0, 1], [0, 1]] = ((joints[:, 0, 0] + gains * joints[:, 1, 0])
                                    + (joints[:, 0, 1] + gains * joints[:, 1, 1]) * gains)
    delta = np.zeros(2)
    if means is not None:
        # Each trial's joint means X_J mu and their average W mu_J.  A calibrated
        # gain's offset puts the average on the input mean, a manual gain has none.
        target = input_mean[:, None]
        joint_means = np.stack([means[:, 1], f * means[:, 0] + c * target], axis=1)
        averaged = joint_means[:, 0] + gains * joint_means[:, 1]
        offsets = target - averaged if gain is None else 0.0
        delta = np.zeros_like(averaged) if gain is None else averaged - target
    fidelities = _overlap(averaged_cov, delta, row_name)
    bad = np.flatnonzero(~((fidelities >= 0.0) & (fidelities <= 1.0)))
    if bad.size:
        raise DegeneracyError(
            f"fidelity must lie in [0, 1], got {fidelities[bad[0]]} at {row_name(bad[0])}"
        )
    if means is None:
        return fidelities
    # Round 1's pulse is the p sector's.
    outcomes = np.array([_measure(joint_means[q], joints[q], 1, values[1 - q], sampled)
                         for q in (1, 0)])
    displaced = joint_means[:, 0] + (gains * outcomes[::-1] + offsets)
    return fidelities, displaced, np.diag(joints[:, 0, 0, 0]), outcomes


_EPR = np.array([[1.0, -1.0], [1.0, 1.0]])


# An overflowed pair covariance fails here on its non-finite variances; numpy's
# warnings from the products would only repeat that ahead of the error.
@np.errstate(over="ignore", invalid="ignore")
def _report(covs, fidelity=None, outcomes=()):
    """Report carrying the EPR variances var(x1 - x2), var(p1 + p2) of the pair's sectors."""
    epr_x, epr_p = (float(c @ cov @ c) for c, cov in zip(_EPR, covs))
    if not (math.isfinite(epr_x) and math.isfinite(epr_p)):
        raise DegeneracyError(f"non-finite EPR variance: epr_x = {epr_x!r}, epr_p = {epr_p!r}")
    if epr_x <= 0 or epr_p <= 0:
        raise DegeneracyError(f"non-positive EPR variance: epr_x = {epr_x!r}, epr_p = {epr_p!r}")
    # Where the product leaves the normal floats (it underflows to 0 or
    # overflows), the logs are taken factor by factor.  Adding 0.0 turns the
    # -0.0 of log(1) at kappa = 0 into 0.0 and keeps every other value's bits.
    product = epr_x * epr_p
    if sys.float_info.min <= product <= sys.float_info.max:
        log_product = math.log(product)
    else:
        log_product = math.log(epr_x) + math.log(epr_p)
    r = -0.25 * log_product + 0.0
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
    rounds = [dataclasses.astuple(plan) for plan in (plan_round1, plan_round2)]
    means, covs, outcomes = _entangling_stage(rounds, *_outcome_source(rng, forced_outcomes))
    state = GaussianState(means[..., 0].ravel(order="F"), _pair_cov(covs))
    return state, _report(covs[..., 0], None, tuple(outcomes[:, 0].tolist()))


# ---------------------------------------------------------------------------
# teleportation


def teleport(entangled, input_mean, plan_local_round1, plan_local_round2, gain=None,
             rng=None, forced_outcomes=None):
    """Teleport a coherent collective-spin state onto sample 2.

    ``entangled`` is the two-sample state from :func:`entangle`, with no x-p
    covariance: sample 1 takes part in the local Bell measurement, sample 2
    receives the displacement.  ``input_mean`` is the (x, p) mean of the
    coherent input prepared on a fresh third sample.  Under transmission loss
    the lossy strategy's local rounds run the moderate kappa first and the
    large kappa second, mirroring the entangling rounds.  ``gain`` (gx, gp)
    displaces by dx = gx * m2, dp = gp * m1 for the round outcomes m1, m2; by
    default it is calibrated for unit end-to-end mean transfer.  ``rng`` and
    ``forced_outcomes`` are the outcome source, as in :func:`entangle`.

    Returns the conditional state of sample 2 after the displacement and a
    report whose fidelity is the overlap of the outcome-averaged output with
    the coherent input, the quantity the closed-form expressions describe.
    A fidelity outside [0, 1] is a DegeneracyError (see :func:`_teleport_stage`).
    """
    input_mean, gain = _check_teleport_inputs(input_mean, gain)
    if entangled.n_modes != 2:
        raise ValueError(f"entangled resource must have exactly 2 modes, got {entangled.n_modes}")
    cov = entangled.cov
    if cov[0::2, 1::2].any():
        raise ValueError("entangled resource must have zero x-p covariance, as entangle leaves it")
    rounds = [dataclasses.astuple(plan) for plan in (plan_local_round1, plan_local_round2)]
    # The pair by sector, (x1, x2) then (p1, p2), as the entangling stage leaves it.
    covs = np.array([cov[0::2, 0::2], cov[1::2, 1::2]])[..., None]
    fidelities, mean, output_cov, outcomes = _teleport_stage(
        covs, rounds, gain, entangled.mean.reshape(2, 2).T[..., None], input_mean,
        *_outcome_source(rng, forced_outcomes),
        lambda row: f"input mean {tuple(input_mean.tolist())!r}",
    )
    report = _report(covs[..., 0], float(fidelities[0]), tuple(outcomes[:, 0].tolist()))
    return GaussianState(mean[:, 0], output_cov), report


def _pair(name, value):
    """``value`` as a (2,) float array; a ValueError naming ``name`` unless it is two finite numbers."""
    try:
        values = np.array(value, dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != (2,) or not np.isfinite(values).all():
        raise ValueError(f"{name} must be two finite numbers, got {value!r}")
    return values


def _check_teleport_inputs(input_mean, gain):
    """``input_mean`` and ``gain`` as (2,) float arrays by :func:`_pair`, a None gain kept."""
    return _pair("input_mean", input_mean), None if gain is None else _pair("gain", gain)


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
    the (trials,) fidelities (or None), each in [0, 1] (see :func:`_teleport_stage`).
    A ``trials`` that is not a non-negative integer (bool is refused) is a
    ValueError before any draw.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 0:
        raise ValueError(f"trials must be a non-negative integer, got {trials!r}")
    if input_mean is not None:
        input_mean, gain = _check_teleport_inputs(input_mean, gain)
    draws = rng.standard_normal((trials, 4)).T
    entangling = [dataclasses.astuple(plans[name]) for name in ("entangle1", "entangle2")]
    means, covs, outcomes = _entangling_stage(entangling, draws[:2], True)
    report = _report(covs[..., 0])
    if input_mean is None:
        return outcomes.T.copy(), report, None
    local = [dataclasses.astuple(plans[name]) for name in ("local1", "local2")]
    fidelities, _, _, teleported = _teleport_stage(
        covs, local, gain, means, input_mean, draws[2:], True, lambda trial: f"trial {trial}"
    )
    return np.concatenate([outcomes, teleported]).T.copy(), report, fidelities


# ---------------------------------------------------------------------------
# loss / strength trade-off sweep


def _sweep_blocks(kappa2, eta_t, block_rows, kappa1_multiplier=10.0, eps_p=0.0, eps_a=0.0,
                  eta_d=0.0, eta_t_local=None):
    """Entangling and local rounds of the loss-adapted strategy, by blocks.

    Yields the row slice and each stage's rounds, as :func:`_push_bell`
    takes them, of ``kappa2`` (a float array) ``block_rows`` rows at a time:
    each round's kappa is an array over the block's rows, beside the noise
    settings every row shares.  Entangling rounds run the large kappa1 =
    ``kappa1_multiplier`` * kappa2 first and kappa2 second; the local Bell
    measurement mirrors that (kappa2 first, kappa1 second).  The local
    rounds carry the transmission loss ``eta_t_local``, by default
    ``eta_t``: matching the sqrt(1 - eta_t) weights between the nonlocal and
    local measurements is what cancels the amplified anti-squeezed noise at
    unit gain.  Every row is checked, with the checks of :class:`RoundPlan`,
    before the first block: the noise settings through RoundPlan once, and
    every kappa finite and non-negative, a bad row being named by its kappa2.
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

    for start in range(0, len(kappa2), block_rows):
        rows = slice(start, start + block_rows)
        strong, weak = kappa1[rows], kappa2[rows]
        yield (rows, [(kappa, eps_p, eps_a, eta_t, eta_d) for kappa in (strong, weak)],
               [(kappa, eps_p, eps_a, eta_t_local, eta_d) for kappa in (weak, strong)])


def make_plans(kappa2, eta_t, **plan_kwargs):
    """Round plans of the loss-adapted strategy at one kappa2.

    Returns the RoundPlans ``entangle1``, ``entangle2``, ``local1`` and
    ``local2`` of the one-row :func:`_sweep_blocks` block, which sets the
    round order and takes the ``plan_kwargs`` ``kappa1_multiplier`` (10.0),
    ``eps_p``, ``eps_a``, ``eta_d`` (0.0) and ``eta_t_local`` (``eta_t``).
    """
    _, entangling, local = next(_sweep_blocks(np.array([float(kappa2)]), eta_t, 1,
                                              **plan_kwargs))
    return {name: RoundPlan(*np.hstack(fields).tolist())
            for name, fields in zip(("entangle1", "entangle2", "local1", "local2"),
                                    [*entangling, *local])}


# Rows of one sweep block.  A block's stage arrays take about 1.4 KB per row.
# Peaks measured with tracemalloc on a 2-core Xeon, one BLAS thread: at 10^5
# rows one batch took 0.12 s and 136 MB, 4096-row blocks 0.073 s and 7.8 MB;
# at 10^6 rows 4096-row blocks 0.74 s and 23 MB, 8192-row ones 0.75-0.78 s, 29 MB.
_SWEEP_BLOCK = 4096


def _lossy_fidelities(kappa2, eta_t, **plan_kwargs):
    """Teleportation fidelity of the loss-adapted strategy at every kappa2, batched.

    ``kappa2`` is a float array, run in blocks of ``_SWEEP_BLOCK`` rows.  Rows
    are independent, so a block's fidelities have the bits of any other
    split.  The entangling stage runs on the covariance alone, since the
    outcomes never enter a covariance.  A fidelity outside [0, 1] is a
    DegeneracyError naming its row's kappa2 (see :func:`_teleport_stage`).
    """
    fidelities = np.empty(len(kappa2))
    for rows, entangling, local in _sweep_blocks(kappa2, eta_t, _SWEEP_BLOCK, **plan_kwargs):
        def name(row, block=kappa2[rows]):
            return f"kappa2 = {float(block[row])!r}"
        _, covs, _ = _entangling_stage(entangling, row_name=name)
        fidelities[rows] = _teleport_stage(covs, local, row_name=name)
    return fidelities


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
    if kappa2.ndim != 1:
        raise ValueError(f"kappa2_values must be 1-d, got shape {kappa2.shape}")
    if len(kappa2) < 2:
        raise ValueError("sweep needs at least two kappa2 values")
    f_simulated = _lossy_fidelities(kappa2, eta_t, **plan_kwargs)
    f_closed_form = fidelity_lossy(kappa2, eta_t)
    return kappa2, f_simulated, f_closed_form, int(np.argmax(f_simulated))
