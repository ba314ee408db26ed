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
in-place row/column updates (the step kernels of
:mod:`~spinlight.gaussian` and :mod:`~spinlight.interaction`) to transfer
columns and a covariance together, so X S X^T + Y is pushed through directly
and never formed as a product.  Round parameters are per-row arrays on the
trailing batch axis, so a whole sweep of operating points is one pass.

``entangle`` pushes two samples in vacuum through the channel and conditions
on each pulse's x in round order with :func:`~spinlight.gaussian.homodyne`;
the conditional EPR variances are exact and independent of the outcomes.
``teleport`` pushes the entangled pair plus a fresh input sample through the
local Bell channel and displaces sample 2 by the outcomes.  Besides the
covariance, only the mean map's two columns for the input sample's x and p
are pushed (and the register mean itself in ``teleport``): they give the
responses A of sample 2 and C of the outcomes to the input mean, and the
gain G = (I - A) C^-1 makes the end-to-end mean transfer exactly one.
The reported fidelity is that of the outcome-averaged output,
F = det(W Sigma W^T + I/2)^(-1/2) with W = [I G] and Sigma the joint
covariance of sample 2 and both outcomes; the unit gain makes it independent
of the input amplitude.  The lossy sweep pushes the vacuum covariance through
the entangling rounds, conditions it on each pulse's x with the same kernel
as :func:`~spinlight.gaussian.homodyne`, and pushes the entangled covariance
through the local rounds; its round table is built as arrays from the kappa2
values.  :func:`lossy_fidelity_table` returns its results as columns (kappa2,
simulated and closed-form fidelity) with the argmax row, and
:func:`lossy_fidelity_sweep` is the same table as a list of SweepPoints.

Within a round, the light's two consecutive losses (eps_p after a pass, then
eta_t or eta_d) are one loss 1 - (1 - a)(1 - b), and the -pi/2 and +pi/2
turns between the rounds are exact signed swaps, so each round is two kicks
and four losses.
"""

import dataclasses
import math

import numpy as np

from .gaussian import (
    VACUUM_VARIANCE,
    GaussianState,
    MeasurementRecord,
    ModeIndex,
    ModeLabel,
    _condition,
    _damp,
    _propagate,
    _quarter_turn,
    displace,
    homodyne,
    marginal,
    variance_of,
    fidelity_coherent,
)
from .interaction import ChannelParams, _kick

__all__ = [
    "RoundPlan",
    "ProtocolReport",
    "SweepPoint",
    "squeezing_parameter",
    "fidelity_ideal",
    "fidelity_lossy",
    "lossy_fidelity_bound",
    "optimal_kappa2",
    "classical_bound_check",
    "entangle",
    "teleport",
    "make_plans",
    "simulated_lossy_fidelity",
    "lossy_fidelity_table",
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
    """Run summary: squeezing, EPR variances, fidelity, outcomes, seed, config."""

    r: float
    epr_x: float
    epr_p: float
    fidelity: float = None
    records: tuple = ()
    seed: int = None
    config_echo: dict = None

    def __post_init__(self):
        if self.epr_x < 0 or self.epr_p < 0:
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
    """True iff the fidelity strictly beats the best measure-and-prepare value 1/2."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
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
    ``rounds`` is a :func:`_stack` array.  The light's pass damping eps_p
    and the loss after it are one loss; the sample's damping, applied
    between them in a pass, acts on another mode and commutes with them.
    """
    for number, params in enumerate(rounds):
        kappa, eps_p, eps_a, eta_t, eta_d = params.T
        light = n_atoms + number
        # Pass the first sample, transmission loss, pass the second sample,
        # detector loss.
        for sample, loss in ((first, eta_t), (second, eta_d)):
            _kick(rows, cov, light, sample, kappa)
            _damp(rows, cov, sample, eps_a)
            _damp(rows, cov, light, 1.0 - (1.0 - eps_p) * (1.0 - loss))
        if number == 0:
            _quarter_turn(rows, cov, first, _TURN_FIRST)
            _quarter_turn(rows, cov, second, _TURN_SECOND)


def _bell_rounds(state, forced_outcomes, rng, tag):
    """Measure each pulse's x of a register in round order.

    ``state`` is the register after a Bell channel: the samples followed by
    the two pulses.  ``forced_outcomes`` (one value per round) or ``rng``
    supplies the outcomes.  The measured pulse leaves the register, so each
    pulse in turn sits right after the samples.  Returns the conditional
    state of the samples and the measurement records.
    """
    if forced_outcomes is not None:
        if len(forced_outcomes) != 2:
            raise ValueError("forced_outcomes must hold one value per round")
        sources = [{"forced": float(v)} for v in forced_outcomes]
    elif rng is None:
        raise ValueError("provide rng for sampled outcomes or forced_outcomes")
    else:
        sources = [{"rng": rng}] * 2
    light = state.n_modes - 2
    records = []
    for number, source in enumerate(sources, start=1):
        outcome, state = homodyne(state, light, "x", **source)
        records.append(MeasurementRecord(
            ModeIndex(light, ModeLabel.LIGHT), "x", outcome, f"{tag}:round{number}"
        ))
    return state, tuple(records)


# Rows of the local Bell channel's register (entangled pair, input sample,
# two pulses) that the teleport output depends on: sample 2's (x, p) and the
# x quadratures of the two pulses.
_JOINT = [2, 3, 6, 8]


def _deferred_teleport(entangled_cov, rounds, gain=None, mean=None):
    """Local Bell channel, gain and outcome-averaged output, batched over rows.

    ``entangled_cov`` is the (B, 4, 4) covariance of the entangled pair,
    ``gain`` an optional (B, 2, 2) manual gain, calibrated for unit
    end-to-end mean transfer if None, and ``mean`` an optional (B, 6) mean
    of the pair and the input sample.  The pair, a vacuum input sample and
    the vacuum pulses are pushed through the channel together with the mean
    map's columns for the input's x and p and, if given, the mean.  Returns
    the (B, 10) output mean of the register (None without ``mean``), its
    (B, 10, 10) output covariance, the (B, 2, 4) weights W = [I G] and the
    (B, 2, 2) covariance of the displaced, outcome-averaged sample 2.
    """
    batch = len(entangled_cov)
    cov = _register(10, batch, 4)
    cov[:4, :4] = np.moveaxis(entangled_cov, 0, -1)
    columns = np.zeros((10, 2 if mean is None else 3, batch))
    columns[4, 0] = columns[5, 1] = 1.0
    if mean is not None:
        columns[:6, 2] = mean.T
    _push_bell(columns, cov, 3, 0, 2, rounds)
    columns, cov = np.moveaxis(columns, -1, 0), np.moveaxis(cov, -1, 0)
    sigma = cov[:, _JOINT][:, :, _JOINT]
    if gain is None:
        # G C = I - A for the responses A (sample 2) and C (outcomes) to the
        # input mean; a singular C names its row's first local kappa, the
        # kappa2 of the loss-adapted strategy.
        a, c = columns[:, _JOINT[:2], :2], columns[:, _JOINT[2:], :2]
        c_t, rhs_t = np.swapaxes(c, -1, -2), np.swapaxes(np.eye(2) - a, -1, -2)
        try:
            gain = np.swapaxes(np.linalg.solve(c_t, rhs_t), -1, -2)
        except np.linalg.LinAlgError as exc:
            row = int(np.argmin(np.abs(np.linalg.det(c))))
            raise ValueError(
                "gain calibration failed: measurement outcomes do not respond to the "
                f"input mean at kappa2 = {float(rounds[0][row, 0])!r} (kappa too small?)"
            ) from exc
    weights = np.concatenate([np.broadcast_to(np.eye(2), gain.shape), gain], axis=-1)
    _, averaged_cov = _propagate(None, sigma, weights, 0.0)
    return None if mean is None else columns[:, :, 2], cov, weights, averaged_cov


def _report(pair, fidelity, records, seed, config_echo):
    """Report carrying the EPR variances of a two-sample state."""
    epr_x = variance_of(pair, [1.0, 0.0, -1.0, 0.0])
    epr_p = variance_of(pair, [0.0, 1.0, 0.0, 1.0])
    return ProtocolReport(
        r=-0.25 * math.log(epr_x * epr_p),
        epr_x=epr_x,
        epr_p=epr_p,
        fidelity=fidelity,
        records=records,
        seed=seed,
        config_echo=config_echo,
    )


# ---------------------------------------------------------------------------
# entanglement generation


def entangle(plan_round1, plan_round2, rng=None, forced_outcomes=None, seed=None,
             config_echo=None):
    """Generate a conditionally entangled pair of collective spins.

    Both samples start in vacuum (coherent spin state along the polarization
    axis).  Returns the conditional two-sample state and a report whose EPR
    variances var(x1 - x2), var(p1 + p2) are exact consequences of the
    Gaussian conditioning, independent of the measurement outcomes.
    """
    cov = _register(8, 1, 0)
    _push_bell(None, cov, 2, 0, 1, _stack([(plan_round1, plan_round2)]))
    # The vacuum mean is zero, and so is its image under the linear channel.
    register = GaussianState(np.zeros(8), cov[..., 0])
    state, records = _bell_rounds(register, forced_outcomes, rng, "entangle")
    return state, _report(state, None, records, seed, config_echo)


# ---------------------------------------------------------------------------
# teleportation


def teleport(entangled, input_mean, plan_local_round1, plan_local_round2, gain=None,
             rng=None, forced_outcomes=None, seed=None, config_echo=None):
    """Teleport a coherent collective-spin state onto sample 2.

    Parameters
    ----------
    entangled : GaussianState
        Two-sample state from :func:`entangle`; sample 1 takes part in the
        local Bell measurement, sample 2 receives the displacement.
    input_mean : (float, float)
        Mean (x, p) of the coherent input prepared on the fresh third sample.
    plan_local_round1, plan_local_round2 : RoundPlan
        Settings of the local Bell rounds.  Under transmission loss the lossy
        strategy uses the moderate kappa first and the large kappa second,
        mirroring (in reverse) the entangling rounds.
    gain : (float, float), optional
        Displacement gains (gx, gp) applied as dx = gx * m2, dp = gp * m1,
        where m1, m2 are the two round outcomes.  Default: calibrated
        automatically for unit end-to-end mean transfer.
    rng, forced_outcomes
        Outcome source for the physical run, as in :func:`entangle`.

    Returns
    -------
    (output, report) : (GaussianState, ProtocolReport)
        ``output`` is the conditional single-mode state of sample 2 after the
        displacement.  ``report.fidelity`` is the overlap of the
        outcome-averaged output state with the coherent input, the quantity
        the closed-form expressions describe.
    """
    if entangled.n_modes != 2:
        raise ValueError(
            f"entangled resource must have exactly 2 modes, got {entangled.n_modes}"
        )
    rounds = _stack([(plan_local_round1, plan_local_round2)])
    input_mean = np.array([float(input_mean[0]), float(input_mean[1])])
    mean = np.concatenate([entangled.mean, input_mean])

    manual = None if gain is None else np.array([[[0.0, gain[0]], [gain[1], 0.0]]], float)
    pushed, cov, weights, averaged_cov = _deferred_teleport(
        entangled.cov[None], rounds, manual, mean[None]
    )
    pushed, weights = pushed[0], weights[0]
    # Without offset the outcome-averaged output has mean W mu_J.  A calibrated
    # gain's offset moves it to the input mean, cancelling what the entangled
    # pair's mean feeds in; a manual gain comes without offset.
    unshifted = weights @ pushed[_JOINT]
    averaged_mean = input_mean if gain is None else unshifted
    offset = averaged_mean - unshifted
    averaged = GaussianState(averaged_mean, averaged_cov[0])
    fidelity = fidelity_coherent(averaged, 0, input_mean)

    register = GaussianState(pushed, cov[0])
    final_state, records = _bell_rounds(register, forced_outcomes, rng, "teleport")
    shift = weights[:, 2:] @ np.array([rec.outcome for rec in records]) + offset
    output = displace(marginal(final_state, [1]), 0, shift[0], shift[1])

    return output, _report(entangled, fidelity, records, seed, config_echo)


# ---------------------------------------------------------------------------
# loss / strength trade-off sweep


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    kappa2: float
    eta_t: float
    f_simulated: float
    f_closed_form: float
    is_argmax: bool


def make_plans(kappa2, eta_t, kappa1_multiplier=10.0, eps_p=0.0, eps_a=0.0,
               eta_d=0.0, eta_t_local=None):
    """Round plans of the loss-adapted strategy.

    Entangling rounds run the large kappa first and kappa2 second; the local
    Bell measurement mirrors that (kappa2 first, large kappa second).  The
    local rounds carry the same transmission loss by default: matching the
    sqrt(1 - eta_t) weights between the nonlocal and local measurements is
    what cancels the amplified anti-squeezed noise at unit gain.
    """
    kappa1 = kappa1_multiplier * kappa2
    if eta_t_local is None:
        eta_t_local = eta_t
    noise = dict(eps_p=eps_p, eps_a=eps_a, eta_d=eta_d)
    return {
        "entangle1": RoundPlan(kappa=kappa1, eta_t=eta_t, **noise),
        "entangle2": RoundPlan(kappa=kappa2, eta_t=eta_t, **noise),
        "local1": RoundPlan(kappa=kappa2, eta_t=eta_t_local, **noise),
        "local2": RoundPlan(kappa=kappa1, eta_t=eta_t_local, **noise),
    }


def _sweep_rounds(kappa2_values, eta_t, kappa1_multiplier=10.0, eps_p=0.0, eps_a=0.0,
                  eta_d=0.0, eta_t_local=None):
    """Entangling and local :func:`_stack` tables of :func:`make_plans`, per kappa2.

    Built as arrays rather than from 4 RoundPlans per row, with the same
    checks: the noise settings through RoundPlan once, and every kappa finite
    and non-negative, a bad row being named by its kappa2.
    """
    if eta_t_local is None:
        eta_t_local = eta_t
    for transmission in (eta_t, eta_t_local):
        RoundPlan(kappa=0.0, eps_p=eps_p, eps_a=eps_a, eta_t=transmission, eta_d=eta_d)
    kappa2 = np.asarray(kappa2_values, dtype=float)
    kappa1 = kappa1_multiplier * kappa2
    with np.errstate(invalid="ignore"):
        bad = ~(np.isfinite(kappa1) & np.isfinite(kappa2) & (kappa1 >= 0) & (kappa2 >= 0))
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            "kappa must be finite and non-negative, got kappa1 = "
            f"{float(kappa1[row])!r} at kappa2 = {float(kappa2[row])!r}"
        )

    def table(kappa_first, kappa_second, transmission):
        rounds = np.empty((2, len(kappa2), 5))
        rounds[0, :, 0], rounds[1, :, 0] = kappa_first, kappa_second
        rounds[:, :, 1:] = (eps_p, eps_a, transmission, eta_d)
        return rounds

    return table(kappa1, kappa2, eta_t), table(kappa2, kappa1, eta_t_local)


def _lossy_fidelities(kappa2, eta_t, **plan_kwargs):
    """Teleportation fidelity of the loss-adapted strategy at every kappa2, batched.

    ``kappa2`` is a float array.  The entangling channel acts on the vacuum
    covariance in place, so no transfer map is formed for it, and the
    covariance is conditioned on each pulse's x in round order as
    :func:`entangle` does; the outcomes never enter a covariance.
    """
    entangling, local = _sweep_rounds(kappa2, eta_t, **plan_kwargs)
    cov = _register(8, len(kappa2), 0)
    _push_bell(None, cov, 2, 0, 1, entangling)
    for pulse_x in (4, 6):
        _condition(None, cov, pulse_x, None)
    _, _, _, averaged_cov = _deferred_teleport(np.moveaxis(cov[:4, :4], -1, 0), local)
    overlap = averaged_cov + VACUUM_VARIANCE * np.eye(2)
    det = overlap[:, 0, 0] * overlap[:, 1, 1] - overlap[:, 0, 1] * overlap[:, 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        fidelities = 1.0 / np.sqrt(det)
    bad = np.flatnonzero(~((fidelities >= 0.0) & (fidelities <= 1.0)))
    if bad.size:
        raise ValueError(
            f"fidelity must lie in [0, 1], got {fidelities[bad[0]]} at "
            f"kappa2 = {float(kappa2[bad[0]])!r}"
        )
    return fidelities


def simulated_lossy_fidelity(kappa2, eta_t, **plan_kwargs):
    """Teleportation fidelity of the loss-adapted strategy at one operating point."""
    return float(_lossy_fidelities(np.array([float(kappa2)]), eta_t, **plan_kwargs)[0])


def lossy_fidelity_table(kappa2_values, eta_t, **plan_kwargs):
    """Sweep kappa2 at fixed eta_t, as columns.

    Returns ``(kappa2, f_simulated, f_closed_form, best)``: the kappa2 values,
    the simulated fidelities and :func:`fidelity_lossy` as float arrays, and
    the index of the simulated argmax.  ``plan_kwargs`` go to
    :func:`make_plans`.  The whole column runs as one batch, and the closed
    form is evaluated once over it, with the same checks.
    """
    kappa2 = np.array([float(k) for k in kappa2_values])
    if len(kappa2) < 2:
        raise ValueError("sweep needs at least two kappa2 values")
    f_simulated = _lossy_fidelities(kappa2, eta_t, **plan_kwargs)
    f_closed_form = fidelity_lossy(kappa2, eta_t)
    return kappa2, f_simulated, f_closed_form, int(np.argmax(f_simulated))


def lossy_fidelity_sweep(kappa2_values, eta_t, **plan_kwargs):
    """Sweep kappa2 at fixed eta_t; marks the simulated argmax row.

    One :class:`SweepPoint` per row of :func:`lossy_fidelity_table`.
    """
    kappa2, f_simulated, f_closed_form, best = lossy_fidelity_table(
        kappa2_values, eta_t, **plan_kwargs
    )
    return [
        SweepPoint(
            kappa2=k2,
            eta_t=eta_t,
            f_simulated=f,
            f_closed_form=closed,
            is_argmax=(i == best),
        )
        for i, (k2, f, closed) in enumerate(
            zip(kappa2.tolist(), f_simulated.tolist(), f_closed_form.tolist())
        )
    ]
