import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlight import (
    DegeneracyError,
    GaussianState,
    ProtocolReport,
    RoundPlan,
    append_vacuum,
    apply_pass,
    classical_bound_check,
    displace,
    entangle,
    fidelity_ideal,
    fidelity_lossy,
    homodyne,
    loss_channel,
    lossy_fidelity_bound,
    lossy_fidelity_sweep,
    make_plans,
    optimal_kappa2,
    run_trials,
    simulated_lossy_fidelity,
    squeezing_parameter,
    teleport,
    vacuum_state,
    variance_of,
)
from conftest import bell_channel


def _ideal(kappa):
    return RoundPlan(kappa=kappa)


def _entangled(kappa):
    state, _ = entangle(_ideal(kappa), _ideal(kappa), forced_outcomes=(0.0, 0.0))
    return state


# ---------------------------------------------------------------------------
# closed forms


def test_squeezing_parameter_values():
    assert squeezing_parameter(5.0) == pytest.approx(0.5 * math.log(51.0), rel=1e-12)
    assert abs(squeezing_parameter(5.0) - 2.0) < 0.05
    assert squeezing_parameter(0.0) == 0.0
    assert squeezing_parameter(1 / math.sqrt(2)) == pytest.approx(
        0.5 * math.log(2.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        squeezing_parameter(-1.0)


def test_fidelity_ideal_values():
    assert fidelity_ideal(5.0) == pytest.approx(0.96190, abs=1e-5)
    assert fidelity_ideal(1.0) == pytest.approx(6.0 / 11.0, rel=1e-12)
    assert fidelity_ideal(1e6) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        fidelity_ideal(0.0)


def test_fidelity_lossy_values():
    k2 = optimal_kappa2(0.2)
    assert k2 == pytest.approx(1.4953, abs=1e-4)
    assert fidelity_lossy(k2, 0.2) == pytest.approx(1 / (1 + math.sqrt(0.2)), rel=1e-12)
    assert fidelity_lossy(2.0, 0.0) == pytest.approx(2.0 / (2.0 + 0.25), rel=1e-12)
    with pytest.raises(ValueError):
        fidelity_lossy(2.0, 1.0)
    with pytest.raises(ValueError):
        fidelity_lossy(0.0, 0.2)


def test_lossy_optimum_against_grid_search():
    # Grid-search oracle confirms the analytic argmax for several loss rates.
    grid = np.linspace(0.2, 10.0, 200)
    for eta_t in (0.05, 0.2, 0.5):
        values = [fidelity_lossy(k, eta_t) for k in grid]
        best = grid[int(np.argmax(values))]
        step = grid[1] - grid[0]
        assert abs(best - optimal_kappa2(eta_t)) <= step
        assert max(values) <= lossy_fidelity_bound(eta_t) + 1e-12


def test_classical_bound_check():
    assert classical_bound_check(0.6910)
    assert not classical_bound_check(0.5)
    assert not classical_bound_check(0.4)
    with pytest.raises(ValueError):
        classical_bound_check(1.5)


def test_classical_bound_check_takes_a_float_array():
    assert classical_bound_check(np.array([0.4, 0.6])).tolist() == [False, True]
    with pytest.raises(ValueError, match=r"got 1\.5$"):
        classical_bound_check(np.array([0.6, 1.5]))


def test_classical_bound_check_takes_a_list_and_gives_a_float_a_bool():
    assert classical_bound_check([0.6, 0.4]).tolist() == [True, False]
    assert classical_bound_check(0.6) is True
    assert classical_bound_check(0.4) is False


@pytest.mark.parametrize("call", [
    lambda: squeezing_parameter(math.nan),
    lambda: fidelity_ideal(math.nan),
    lambda: fidelity_lossy(np.array([math.nan, 1.0]), 0.2),
], ids=["squeezing_parameter", "fidelity_ideal", "fidelity_lossy"])
def test_closed_forms_reject_nan(call):
    with pytest.raises(ValueError, match="kappa"):
        call()


# ---------------------------------------------------------------------------
# entanglement generation


def test_ideal_entanglement_at_reference_strength():
    state, report = entangle(_ideal(5.0), _ideal(5.0), forced_outcomes=(0.0, 0.0))
    assert report.epr_x == pytest.approx(1.0 / 51.0, abs=1e-9)
    assert report.epr_p == pytest.approx(1.0 / 51.0, abs=1e-9)
    assert report.r == pytest.approx(0.5 * math.log(51.0), abs=1e-9)
    assert state.n_modes == 2


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_epr_variances_match_closed_form(kappa):
    _, report = entangle(_ideal(kappa), _ideal(kappa), forced_outcomes=(0.0, 0.0))
    expected = 1.0 / (1.0 + 2.0 * kappa**2)
    assert report.epr_x == pytest.approx(expected, abs=1e-9)
    assert report.epr_p == pytest.approx(expected, abs=1e-9)
    assert math.exp(-2.0 * squeezing_parameter(kappa)) == pytest.approx(
        expected, abs=1e-9
    )


def test_no_interaction_leaves_two_vacua():
    _, report = entangle(_ideal(0.0), _ideal(0.0), forced_outcomes=(0.0, 0.0))
    assert report.epr_x == pytest.approx(1.0, abs=1e-12)
    assert report.epr_p == pytest.approx(1.0, abs=1e-12)
    assert report.r == pytest.approx(0.0, abs=1e-12)


def test_round_one_pins_x_difference():
    # Regression lock for the rotation convention: a strong first round and a
    # negligible second round must leave var(x1 - x2) squeezed by kappa1.
    kappa1 = 4.0
    state, _ = entangle(_ideal(kappa1), _ideal(1e-6), forced_outcomes=(0.0, 0.0))
    assert variance_of(state, [1, 0, -1, 0]) == pytest.approx(
        1.0 / (1.0 + 2.0 * kappa1**2), abs=1e-9
    )
    assert variance_of(state, [0, 1, 0, 1]) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("cov_x, cov_p, message", [
    (0.75, 0.0, "epr_x = -0.5, epr_p = 1.0"),
    (0.0, -0.75, "epr_x = 1.0, epr_p = -0.5"),
    (0.75, -0.75, "epr_x = -0.5, epr_p = -0.5"),
])
def test_report_names_non_positive_epr_variances(cov_x, cov_p, message):
    # A pair covariance that rounding drove unphysical: var(x1 - x2) or
    # var(p1 + p2) is not positive, even when the product of both is.
    from spinlight.protocols import _report

    cov = 0.5 * np.eye(4)
    cov[0, 2] = cov[2, 0] = cov_x
    cov[1, 3] = cov[3, 1] = cov_p
    with pytest.raises(DegeneracyError, match=f"^non-positive EPR variance: {message}$"):
        _report(cov)
    assert _report(0.5 * np.eye(4)).epr_x == 1.0


def test_report_rejects_nan_epr_variances():
    from spinlight.protocols import _report

    with pytest.raises(DegeneracyError, match="^non-finite EPR variance: epr_x = nan, epr_p = nan$"):
        _report(np.full((4, 4), np.nan))
    with pytest.raises(ValueError, match="EPR variances must be non-negative"):
        ProtocolReport(r=0.0, epr_x=float("nan"), epr_p=1.0)


def test_zero_kappa_squeezing_is_positive_zero():
    # -log(1) / 4 is -0.0, which an artifact would print as "-0".
    _, report = entangle(RoundPlan(kappa=0.0), RoundPlan(kappa=0.0), forced_outcomes=(0.0, 0.0))
    assert math.copysign(1.0, report.r) == 1.0


@pytest.mark.parametrize("forced", [-2.0, 0.0, 2.0])
def test_entangle_outcome_independence(forced):
    _, base = entangle(_ideal(3.0), _ideal(3.0), forced_outcomes=(0.0, 0.0))
    _, moved = entangle(_ideal(3.0), _ideal(3.0), forced_outcomes=(forced, -forced))
    assert moved.epr_x == base.epr_x
    assert moved.epr_p == base.epr_p
    assert moved.r == base.r


def test_entangle_sampling_is_seed_deterministic():
    rng_a = np.random.default_rng(77)
    rng_b = np.random.default_rng(77)
    _, rep_a = entangle(_ideal(2.0), _ideal(2.0), rng=rng_a)
    _, rep_b = entangle(_ideal(2.0), _ideal(2.0), rng=rng_b)
    assert rep_a.outcomes == rep_b.outcomes


def test_measured_combination_weights_under_loss():
    # The outcome couples to sqrt(1 - eta_t) p1 + p2 in roundated variables:
    # light passes sample 1, is attenuated, then passes sample 2.
    eta_t = 0.37
    plan = RoundPlan(kappa=1.7, eta_t=eta_t)

    def light_mean_after_pass(displaced_mode):
        state = displace(vacuum_state(2), displaced_mode, 0.0, 1.0)
        state = append_vacuum(state, 1)
        state = apply_pass(state, 2, 0, plan.channel())
        state = loss_channel(state, 2, eta_t)
        state = apply_pass(state, 2, 1, plan.channel())
        return state.mean[4]

    ratio = light_mean_after_pass(0) / light_mean_after_pass(1)
    assert ratio == pytest.approx(math.sqrt(1.0 - eta_t), abs=1e-10)


def test_round_two_weights_under_loss():
    # After the inter-round rotations the second round reads
    # sqrt(1 - eta_t) x1 - x2 of the original variables: the prior mean of
    # the second outcome, once the first is conditioned on a zero outcome.
    eta_t = 0.37
    plan = dataclasses.astuple(RoundPlan(kappa=1.3, eta_t=eta_t))
    transfer, noise = bell_channel(2, 0, 1, [plan, plan])

    def second_round_mean(displaced_mode):
        state = displace(vacuum_state(2), displaced_mode, 1.0, 0.0)
        deferred = GaussianState(
            transfer[0] @ state.mean, transfer[0] @ state.cov @ transfer[0].T + noise[0]
        )
        _, after_first = homodyne(deferred, 2, "x", forced=0.0)
        return after_first.mean[4]

    ratio = second_round_mean(0) / second_round_mean(1)
    assert ratio == pytest.approx(-math.sqrt(1.0 - eta_t), abs=1e-10)


@pytest.mark.parametrize("eta_d", [0.05, 0.2])
def test_detector_inefficiency_equals_rescaled_kappa_for_r(eta_d):
    kappa = 5.0
    lossy = RoundPlan(kappa=kappa, eta_d=eta_d)
    rescaled = RoundPlan(kappa=kappa * math.sqrt(1.0 - eta_d))
    _, rep_lossy = entangle(lossy, lossy, forced_outcomes=(0.0, 0.0))
    _, rep_rescaled = entangle(rescaled, rescaled, forced_outcomes=(0.0, 0.0))
    assert rep_lossy.r == pytest.approx(rep_rescaled.r, abs=1e-6)
    assert rep_lossy.epr_x == pytest.approx(rep_rescaled.epr_x, abs=1e-9)


# ---------------------------------------------------------------------------
# teleportation


@pytest.mark.parametrize("kappa", [1.0, 2.0, 5.0, 10.0])
def test_ideal_fidelity_matches_closed_form(kappa):
    _, report = teleport(
        _entangled(kappa), (0.0, 0.0), _ideal(kappa), _ideal(kappa),
        forced_outcomes=(0.0, 0.0),
    )
    assert report.fidelity == pytest.approx(fidelity_ideal(kappa), abs=1e-6)


def test_fidelity_independent_of_input_mean():
    state = _entangled(5.0)
    fidelities = []
    for mean in [(0.0, 0.0), (2.0, -1.0), (-5.0, 3.0)]:
        _, report = teleport(
            state, mean, _ideal(5.0), _ideal(5.0), forced_outcomes=(0.0, 0.0)
        )
        fidelities.append(report.fidelity)
    assert max(fidelities) - min(fidelities) < 1e-9


def _prior_outcome_means(entangled, input_mean, plans):
    """Outcome means with zero innovation: the pulses' x means of the deferred
    local Bell channel applied to the entangled pair plus the input sample."""
    transfer, _ = bell_channel(3, 0, 2, [dataclasses.astuple(plan) for plan in plans])
    register = displace(append_vacuum(entangled, 1), 2, *input_mean)
    return tuple(transfer[0][[6, 8]] @ register.mean)


def test_output_mean_tracks_input_zero_innovation():
    # Zero-innovation outcomes leave the conditional output mean exactly on
    # the input mean when the calibrated unit gain is used.
    plans = (_ideal(3.0), _ideal(3.0))
    for entangle_outcomes in [(0.0, 0.0), (0.8, -1.1)]:
        state, _ = entangle(*plans, forced_outcomes=entangle_outcomes)
        for mean in [(0.0, 0.0), (1.7, -0.4)]:
            output, _ = teleport(
                state, mean, *plans,
                forced_outcomes=_prior_outcome_means(state, mean, plans),
            )
            assert np.allclose(output.mean, mean, atol=1e-10)


def test_manual_unit_gain_reproduces_calibrated_fidelity():
    # Supplying the calibrated gains by hand must give the same averaged
    # fidelity as automatic calibration (same displacement rule, zero offset
    # at zero input).  The calibrated gain G = (I - A) C^-1 comes from the
    # dense channel's responses A of sample 2 and C of the outcomes to the
    # input mean.
    state = _entangled(3.0)
    transfer, _ = bell_channel(3, 0, 2, [dataclasses.astuple(_ideal(3.0))] * 2)
    a, c = transfer[0][[2, 3]][:, [4, 5]], transfer[0][[6, 8]][:, [4, 5]]
    gain_matrix = (np.eye(2) - a) @ np.linalg.inv(c)
    assert gain_matrix[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert gain_matrix[1, 1] == pytest.approx(0.0, abs=1e-12)
    manual = (gain_matrix[0, 1], gain_matrix[1, 0])

    _, auto = teleport(
        state, (0.0, 0.0), _ideal(3.0), _ideal(3.0), forced_outcomes=(0.0, 0.0)
    )
    _, by_hand = teleport(
        state, (0.0, 0.0), _ideal(3.0), _ideal(3.0), gain=manual,
        forced_outcomes=(0.0, 0.0),
    )
    assert by_hand.fidelity == pytest.approx(auto.fidelity, abs=1e-12)


def test_teleport_fidelity_outcome_independent():
    state = _entangled(4.0)
    values = []
    for forced in [(-2.0, 1.0), (0.0, 0.0), (2.0, -3.0)]:
        _, report = teleport(
            state, (0.3, 0.7), _ideal(4.0), _ideal(4.0), forced_outcomes=forced
        )
        values.append(report.fidelity)
    assert max(values) - min(values) < 1e-12


def test_teleport_fidelity_independent_of_entangle_outcomes():
    fidelities = []
    for forced in [(-2.0, 0.5), (0.0, 0.0), (2.0, 2.0)]:
        state, _ = entangle(_ideal(4.0), _ideal(4.0), forced_outcomes=forced)
        _, report = teleport(
            state, (0.0, 0.0), _ideal(4.0), _ideal(4.0), forced_outcomes=(0.0, 0.0)
        )
        fidelities.append(report.fidelity)
    assert max(fidelities) - min(fidelities) < 1e-12


@pytest.mark.parametrize("eta_d", [0.05, 0.2])
def test_detector_inefficiency_equals_rescaled_kappa_for_fidelity(eta_d):
    kappa = 5.0
    lossy = RoundPlan(kappa=kappa, eta_d=eta_d)
    rescaled = RoundPlan(kappa=kappa * math.sqrt(1.0 - eta_d))

    state_lossy, _ = entangle(lossy, lossy, forced_outcomes=(0.0, 0.0))
    _, rep_lossy = teleport(
        state_lossy, (0.0, 0.0), lossy, lossy, forced_outcomes=(0.0, 0.0)
    )
    state_scaled, _ = entangle(rescaled, rescaled, forced_outcomes=(0.0, 0.0))
    _, rep_scaled = teleport(
        state_scaled, (0.0, 0.0), rescaled, rescaled, forced_outcomes=(0.0, 0.0)
    )
    assert rep_lossy.fidelity == pytest.approx(rep_scaled.fidelity, abs=1e-6)


def test_manual_gain_breaks_input_independence():
    state = _entangled(2.0)
    _, tuned = teleport(
        state, (2.0, -1.0), _ideal(2.0), _ideal(2.0), forced_outcomes=(0.0, 0.0)
    )
    _, detuned = teleport(
        state, (2.0, -1.0), _ideal(2.0), _ideal(2.0), gain=(0.0, 0.0),
        forced_outcomes=(0.0, 0.0),
    )
    assert detuned.fidelity < tuned.fidelity


@pytest.mark.parametrize("gain", [None, (0.9, -1.1)])
def test_batched_trials_equal_one_run_per_generator(gain):
    # One push per stage for all trials gives, for trial t, the bits of one
    # entangle and one teleport call on the run's generator advanced by 4 t
    # draws, outcomes and fidelities alike.
    plans = make_plans(1.5, 0.2, eps_p=0.01, eps_a=0.02, eta_d=0.05)
    input_mean = (0.7, -0.4)
    outcomes, report, fidelities = run_trials(
        plans, np.random.default_rng(42), 7, input_mean, gain
    )
    entangled, _ = run_trials(plans, np.random.default_rng(42), 7)[:2]
    assert outcomes.shape == (7, 4) and entangled.shape == (7, 2)
    assert np.array_equal(entangled, outcomes[:, :2])
    for trial, (row, fidelity) in enumerate(zip(outcomes, fidelities)):
        rng = np.random.default_rng(42)
        rng.standard_normal(4 * trial)
        pair, ent = entangle(plans["entangle1"], plans["entangle2"], rng=rng)
        _, tel = teleport(pair, input_mean, plans["local1"], plans["local2"], gain=gain,
                          rng=rng)
        one = ent.outcomes + tel.outcomes
        assert np.array_equal(row, one)
        assert fidelity == tel.fidelity
        assert (report.epr_x, report.epr_p, report.r) == (ent.epr_x, ent.epr_p, ent.r)
    assert (len(set(fidelities.tolist())) == 1) == (gain is None)
    # A run is a prefix of any longer run on the same seed.
    longer, _, longer_fidelities = run_trials(
        plans, np.random.default_rng(42), 20, input_mean, gain
    )
    assert np.array_equal(longer[:7], outcomes)
    assert np.array_equal(longer_fidelities[:7], fidelities)


def test_manual_gain_trials_build_no_gaussian_state(monkeypatch):
    # The per-trial fidelities of a manual gain come from one batched overlap,
    # not from one GaussianState per trial.
    constructions = []
    real = GaussianState.__post_init__

    def counting(self):
        constructions.append(self)
        real(self)

    monkeypatch.setattr(GaussianState, "__post_init__", counting)
    plans = make_plans(1.5, 0.2, eps_p=0.01, eps_a=0.02, eta_d=0.05)
    _, _, fidelities = run_trials(plans, np.random.default_rng(0), 64, (0.7, -0.4), (0.9, -1.1))
    assert fidelities.shape == (64,)
    assert len(constructions) == 0


def _protocol_call(protocol, **sources):
    plan = _ideal(1.0)
    if protocol == "entangle":
        return entangle(plan, plan, **sources)
    return teleport(vacuum_state(2), (0.0, 0.0), plan, plan, **sources)


@pytest.mark.parametrize("protocol", ["entangle", "teleport"])
@pytest.mark.parametrize("sources, message", [
    ({}, "provide exactly one outcome source: rng or forced_outcomes"),
    ({"rng": "both", "forced_outcomes": (0.0, 0.0)},
     "provide exactly one outcome source: rng or forced_outcomes"),
    ({"forced_outcomes": (0.0, 0.0, 0.0)}, "forced_outcomes must hold one value per round"),
], ids=["neither", "both", "three-forced"])
def test_protocols_take_exactly_one_outcome_source(protocol, sources, message):
    # The rule of homodyne: an rng beside forced outcomes is an error, not ignored.
    if "rng" in sources:
        sources = dict(sources, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _protocol_call(protocol, **sources)


def test_teleport_requires_two_mode_resource():
    with pytest.raises(ValueError):
        teleport(
            vacuum_state(3), (0.0, 0.0), _ideal(1.0), _ideal(1.0),
            forced_outcomes=(0.0, 0.0),
        )


def test_gain_calibration_needs_responsive_outcomes():
    with pytest.raises(ValueError):
        teleport(
            vacuum_state(2), (0.0, 0.0), _ideal(0.0), _ideal(0.0),
            forced_outcomes=(0.0, 0.0),
        )


@pytest.mark.parametrize("kappas, number", [((2.0, 0.0), 2), ((0.0, 2.0), 1), ((0.0, 0.0), 1)])
def test_gain_calibration_names_the_silent_round_and_its_kappa(kappas, number):
    # Each sector's response belongs to one local round: round 1's pulse
    # responds to the input's p, round 2's to its x.
    plans = [RoundPlan(kappa) for kappa in kappas]
    message = (r"^gain calibration failed: measurement outcomes do not respond to the input "
               rf"mean at local round {number}'s kappa = 0\.0 \(kappa too small\?\)$")
    with pytest.raises(ValueError, match=message):
        teleport(_entangled(2.0), (0.0, 0.0), *plans, forced_outcomes=(0.0, 0.0))
    with pytest.raises(ValueError, match=message):
        run_trials({"entangle1": _ideal(2.0), "entangle2": _ideal(2.0), "local1": plans[0],
                    "local2": plans[1]}, np.random.default_rng(0), 3, (0.0, 0.0))


def test_teleport_takes_a_resource_without_x_p_covariance():
    # The sector form carries the pair as sigma_x + sigma_p, as entangle
    # leaves it; a resource that correlates x with p is refused, not dropped.
    state = _entangled(2.0)
    cov = state.cov.copy()
    cov[0, 3] = cov[3, 0] = 0.1
    with pytest.raises(ValueError, match="entangled resource must have zero x-p covariance"):
        teleport(GaussianState(state.mean, cov), (0.0, 0.0), _ideal(2.0), _ideal(2.0),
                 forced_outcomes=(0.0, 0.0))


def test_sweep_names_the_row_whose_gain_calibration_fails():
    with pytest.raises(ValueError, match=r"gain calibration failed: .*kappa2 = 0\.0"):
        lossy_fidelity_sweep([0.0, 1.0], 0.2)
    with pytest.raises(ValueError, match=r"gain calibration failed: .*kappa2 = 0\.0"):
        lossy_fidelity_sweep([1.0, 2.0, 0.0], 0.2)


def test_sweep_rejects_fidelity_outside_unit_interval(monkeypatch):
    import spinlight.protocols as protocols

    real = protocols._overlap

    def inflated(averaged_cov, delta, *rest):
        averaged_cov = averaged_cov.copy()
        averaged_cov[1] = -0.4 * np.eye(2)  # det(cov + I/2) = 0.01, so F = 10
        return real(averaged_cov, delta, *rest)

    monkeypatch.setattr(protocols, "_overlap", inflated)
    with pytest.raises(DegeneracyError, match=r"fidelity must lie in \[0, 1\].*kappa2 = 2\.0"):
        lossy_fidelity_sweep([1.0, 2.0, 3.0], 0.2)


# ---------------------------------------------------------------------------
# loss-adapted strategy


def test_lossy_operating_point_agrees_with_closed_form():
    eta_t = 0.2
    k2 = optimal_kappa2(eta_t)
    f_sim = simulated_lossy_fidelity(k2, eta_t)
    f_closed = fidelity_lossy(k2, eta_t)
    assert abs(f_sim - f_closed) / f_closed < 0.02
    assert classical_bound_check(f_sim)


def test_asymmetric_strategy_beats_symmetric():
    eta_t = 0.2
    k2 = optimal_kappa2(eta_t)
    f_asym = simulated_lossy_fidelity(k2, eta_t)
    f_sym = simulated_lossy_fidelity(k2, eta_t, kappa1_multiplier=1.0)
    assert f_asym > f_sym


def test_fidelity_monotone_in_each_noise_rate():
    base = dict(kappa2=2.0, eta_t=0.05)

    def run(**kwargs):
        merged = {**base, **kwargs}
        eta_t = merged.pop("eta_t")
        kappa2 = merged.pop("kappa2")
        return simulated_lossy_fidelity(kappa2, eta_t, **merged)

    for knob, values in [
        ("eta_t", [0.0, 0.1, 0.25, 0.4]),
        ("eta_d", [0.0, 0.1, 0.3]),
        ("eps_p", [0.0, 0.02, 0.06]),
        ("eps_a", [0.0, 0.02, 0.06]),
    ]:
        if knob == "eta_t":
            fids = [simulated_lossy_fidelity(2.0, v) for v in values]
        else:
            fids = [run(**{knob: v}) for v in values]
        assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:])), knob


def test_sweep_finds_the_analytic_optimum():
    eta_t = 0.2
    grid = np.linspace(0.2, 10.0, 200)
    kappa2, f_simulated, _, best = lossy_fidelity_sweep(grid, eta_t)
    step = grid[1] - grid[0]
    assert abs(kappa2[best] - optimal_kappa2(eta_t)) <= step
    # unimodal tail: fidelity decreases past the argmax
    past = f_simulated[kappa2 >= kappa2[best]].tolist()
    assert all(a >= b - 1e-12 for a, b in zip(past, past[1:]))


def test_high_loss_can_defeat_the_bound():
    f_sim = simulated_lossy_fidelity(0.5, 0.9)
    assert f_sim < 0.52
    assert lossy_fidelity_bound(0.9) == pytest.approx(0.5132, abs=1e-4)


def test_overflowed_overlap_is_a_degeneracy():
    # The calibrated gain grows like 1/kappa2, so at kappa2 = 1e-160 the
    # averaged output covariance overflows; the overlap names that rather
    # than return nan.
    with pytest.raises(DegeneracyError, match="overlap matrix has a non-finite entry"):
        simulated_lossy_fidelity(1e-160, 0.0)


def test_round_plan_validation():
    for kappa in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa"):
            RoundPlan(kappa=kappa)
    with pytest.raises(ValueError):
        RoundPlan(kappa=1.0, eta_t=1.0)
    with pytest.raises(ValueError):
        RoundPlan(kappa=1.0, eps_p=-0.1)


# ---------------------------------------------------------------------------
# the sweep's vectorised round table


def test_make_plans_orders_the_rounds_of_the_loss_adapted_strategy():
    # Large kappa first when entangling, mirrored in the local Bell
    # measurement, whose transmission loss defaults to eta_t.
    noise = dict(eps_p=0.02, eps_a=0.01, eta_d=0.1)
    assert make_plans(1.5, 0.2, kappa1_multiplier=3.0, eta_t_local=0.3, **noise) == {
        "entangle1": RoundPlan(kappa=4.5, eta_t=0.2, **noise),
        "entangle2": RoundPlan(kappa=1.5, eta_t=0.2, **noise),
        "local1": RoundPlan(kappa=1.5, eta_t=0.3, **noise),
        "local2": RoundPlan(kappa=4.5, eta_t=0.3, **noise),
    }
    assert make_plans(1.5, 0.2)["local2"] == RoundPlan(kappa=15.0, eta_t=0.2)
    with pytest.raises(ValueError, match=r"kappa must be finite.*kappa2 = -1\.0"):
        make_plans(-1.0, 0.2)


def test_sweep_round_table_equals_round_plans():
    # Each round's fields, broadcast over the block's rows, are the fields of
    # each row's RoundPlan.
    from spinlight.protocols import _sweep_blocks

    kappa2 = [0.3, 1.5, 9.5]
    kwargs = dict(kappa1_multiplier=3.0, eps_p=0.02, eps_a=0.01, eta_d=0.1,
                  eta_t_local=0.3)
    _, entangling, local = next(_sweep_blocks(np.array(kappa2), 0.2, len(kappa2), **kwargs))
    plans = [make_plans(k2, 0.2, **kwargs) for k2 in kappa2]
    names = ("entangle1", "entangle2", "local1", "local2")
    for name, fields in zip(names, [*entangling, *local]):
        rows = np.transpose(np.broadcast_arrays(*fields))
        assert np.array_equal(rows, [dataclasses.astuple(p[name]) for p in plans])


def test_bell_push_takes_float_noise_and_passes_only_injected_columns(monkeypatch):
    # A round's fields are floats or (B,) arrays: a kappa array beside float
    # noise pushes the bits of every field broadcast over the rows.  Each
    # pass updates only the columns injected so far, two more each time.
    import spinlight.protocols as protocols

    real, seen = protocols._pass, []

    def spy(rows, *args):
        seen.append(rows.shape[1])
        return real(rows, *args)

    monkeypatch.setattr(protocols, "_pass", spy)
    kappa = np.array([0.3, 1.5, 9.5])
    rounds = [(kappa, 0.02, 0.01, 0.2, 0.1), (3.0 * kappa, 0.02, 0.01, 0.3, 0.1)]
    factor = protocols._push_bell(rounds)
    assert seen == [4, 6, 8, 10]
    broadcast = [tuple(np.broadcast_to(f, kappa.shape) for f in r) for r in rounds]
    assert np.array_equal(protocols._push_bell(broadcast), factor)


def test_factor_callers_append_the_vacua_their_pass_returns(monkeypatch):
    # Neither the Bell push nor the dense grid builder restates a pass's
    # damping: right after each pass, the columns it appends hold sqrt(eps) in
    # the x and p rows of exactly the modes that _pass returned, in that order.
    # The push's folded factor gives a vacuum one column, the grid builder
    # two; the grid builder skips a zero eps and puts the light before the atom.
    import spinlight.maxwell_bloch as maxwell_bloch
    import spinlight.protocols as protocols
    from spinlight.interaction import ChannelParams
    from spinlight.maxwell_bloch import Grid

    real_pass, real_turn = protocols._pass, protocols._quarter_turn
    pending, checked = [], []

    def appended(rows):
        # The columns appended since the last pass, before any later step acts.
        if not pending:
            return
        width, vacua, columns = pending.pop()
        assert rows.shape[1] == width + columns * len(vacua)
        for mode, eps in vacua:
            want = np.zeros_like(rows[:, :columns])
            want[2 * mode, 0] = want[2 * mode + 1, columns - 1] = np.sqrt(eps)
            assert np.array_equal(rows[:, width : width + columns], want)
            width += columns
        checked.append(len(vacua))

    def spy_on(module, order, columns):
        def spy(rows, *args):
            appended(rows)
            vacua = real_pass(rows, *args)
            pending.append((rows.shape[1], order(vacua), columns))
            return vacua

        monkeypatch.setattr(module, "_pass", spy)

    def turn_spy(rows, *args):
        appended(rows)
        return real_turn(rows, *args)

    spy_on(protocols, list, 1)
    monkeypatch.setattr(protocols, "_quarter_turn", turn_spy)
    kappa = np.array([0.3, 1.5, 9.5])
    rounds = [(kappa, 0.02, 0.01, 0.2, 0.1), (3.0 * kappa, 0.0, 0.03, 0.3, 0.0)]
    appended(protocols._push_bell(rounds))
    assert checked == [2, 2, 2, 2]

    spy_on(maxwell_bloch, lambda vacua: [(m, e) for m, e in vacua[::-1] if e > 0], 2)
    for eps_p, eps_a, count in ((0.3, 0.1, 2), (0.0, 0.1, 1), (0.3, 0.0, 1)):
        checked.clear()
        grid = Grid(n_z=2, n_tau=3)
        channel = ChannelParams(kappa=0.7, eps_p=eps_p, eps_a=eps_a)
        transfer = maxwell_bloch.build_transfer_from_channel(channel, grid)
        appended(np.hstack([transfer.signal, transfer.noise]))
        assert checked == [count] * 6


def test_every_push_is_the_two_sample_bell_primitive(monkeypatch):
    # Both stages push the same primitive, two samples and the two pulses:
    # the teleport stage measures sample 1 and the input, and sample 2 does
    # not ride the push.
    import spinlight.protocols as protocols

    real, heights = protocols._push_bell, []

    def spy(*args):
        factor = real(*args)
        heights.append(factor.shape[0])
        return factor

    monkeypatch.setattr(protocols, "_push_bell", spy)
    plans = make_plans(1.2, 0.2, eps_p=0.01, eta_d=0.05, eta_t_local=0.3)
    state, _ = entangle(plans["entangle1"], plans["entangle2"], forced_outcomes=(0.4, -1.1))
    teleport(state, (0.7, -0.4), plans["local1"], plans["local2"],
             forced_outcomes=(0.2, 0.5))
    run_trials(plans, np.random.default_rng(3), 4, input_mean=(0.7, -0.4))
    lossy_fidelity_sweep([0.3, 1.5, 9.5], 0.2)
    assert heights == [8] * 6


def test_sweep_conditions_like_entangle(monkeypatch):
    # The sweep conditions its batched covariance with the kernel homodyne
    # uses, so each row's entangled pair equals entangle's, bit for bit.
    import spinlight.protocols as protocols

    real = protocols._teleport_stage
    seen = []

    def spy(covs, *args, **kwargs):
        # Each row's (x1, p1, x2, p2) covariance from the pair's sectors.
        seen.append([protocols._pair_cov(covs[..., row, None]) for row in range(covs.shape[-1])])
        return real(covs, *args, **kwargs)

    monkeypatch.setattr(protocols, "_teleport_stage", spy)
    kappa2 = [0.3, 1.5, 9.5]
    kwargs = dict(kappa1_multiplier=3.0, eps_p=0.02, eps_a=0.01, eta_d=0.1,
                  eta_t_local=0.3)
    lossy_fidelity_sweep(kappa2, 0.2, **kwargs)
    (pairs,) = seen
    for k2, pair in zip(kappa2, pairs):
        plans = make_plans(k2, 0.2, **kwargs)
        state, _ = entangle(plans["entangle1"], plans["entangle2"],
                            forced_outcomes=(0.4, -1.1))
        assert np.array_equal(pair, state.cov)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_sweep_names_the_row_with_a_bad_kappa2(bad):
    pattern = rf"kappa must be finite and non-negative.*kappa2 = {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=pattern):
        lossy_fidelity_sweep([1.0, bad, 2.0], 0.2)
    with pytest.raises(ValueError, match=pattern):
        simulated_lossy_fidelity(bad, 0.2)


@pytest.mark.parametrize("multiplier", [float("nan"), float("inf"), -float("inf")])
def test_sweep_rejects_non_finite_kappa1_multiplier(multiplier):
    with pytest.raises(ValueError, match=r"kappa must be finite.*kappa2 = 1\.0"):
        lossy_fidelity_sweep([1.0, 2.0], 0.2, kappa1_multiplier=multiplier)


@pytest.mark.parametrize("name, field", [
    ("eps_p", "eps_p"), ("eps_a", "eps_a"), ("eta_d", "eta_d"), ("eta_t_local", "eta_t"),
])
@pytest.mark.parametrize("value", [1.0, -0.1, float("nan")])
def test_sweep_rejects_noise_outside_unit_interval(name, field, value):
    with pytest.raises(ValueError, match=rf"{field} must lie in \[0, 1\)"):
        lossy_fidelity_sweep([1.0, 2.0], 0.2, **{name: value})


@pytest.mark.parametrize("values, eta_t, message", [
    ([1.0], 0.2, "sweep needs at least two kappa2 values"),
    ([1.0, 2.0], 1.0, r"eta_t must lie in \[0, 1\), got 1\.0"),
    ([1.0, 2.0], -0.1, r"eta_t must lie in \[0, 1\), got -0\.1"),
    ([1.0, "x"], 0.2, "could not convert string to float"),
])
def test_sweep_rejects_bad_arguments(values, eta_t, message):
    with pytest.raises(ValueError, match=message):
        lossy_fidelity_sweep(values, eta_t)


def test_sweep_columns_are_float64_with_the_argmax_row():
    kappa2_values = np.linspace(0.2, 10.0, 57)
    kwargs = dict(kappa1_multiplier=3.0, eps_p=0.02, eps_a=0.01, eta_d=0.1,
                  eta_t_local=0.3)
    kappa2, f_simulated, f_closed_form, best = lossy_fidelity_sweep(
        kappa2_values, 0.2, **kwargs
    )
    assert kappa2.dtype == f_simulated.dtype == f_closed_form.dtype == np.float64
    assert best == int(np.argmax(f_simulated))
    # The closed-form column is fidelity_lossy's value at each row, bit for bit.
    assert f_closed_form.tolist() == [fidelity_lossy(float(k2), 0.2) for k2 in kappa2_values]


# ---------------------------------------------------------------------------
# blocked sweep


def test_sweep_blocks_give_the_bits_of_one_batch_and_of_one_row_runs(monkeypatch):
    # Rows are independent, so 2.5 blocks give the concatenation of their
    # per-block calls, the bits of one batch, and on their first rows the
    # bits of one-row runs.
    import spinlight.protocols as protocols

    block = protocols._SWEEP_BLOCK
    kappa2 = np.linspace(0.2, 10.0, 5 * block // 2)
    kwargs = dict(kappa1_multiplier=3.0, eps_p=0.02, eps_a=0.01, eta_d=0.1, eta_t_local=0.3)
    blocked = protocols._lossy_fidelities(kappa2, 0.2, **kwargs)
    per_block = [protocols._lossy_fidelities(kappa2[start:start + block], 0.2, **kwargs)
                 for start in range(0, len(kappa2), block)]
    assert len(per_block) == 3 and blocked.tobytes() == np.concatenate(per_block).tobytes()
    one_rows = [simulated_lossy_fidelity(k2, 0.2, **kwargs) for k2 in kappa2[:2000]]
    assert blocked[:2000].tolist() == one_rows
    monkeypatch.setattr(protocols, "_SWEEP_BLOCK", len(kappa2))
    assert protocols._lossy_fidelities(kappa2, 0.2, **kwargs).tobytes() == blocked.tobytes()


def test_every_sweep_row_is_checked_before_the_first_block(monkeypatch):
    # A bad kappa2 in the last block is a config error, even where an earlier
    # block would fail on its own.
    import spinlight.protocols as protocols

    monkeypatch.setattr(protocols, "_SWEEP_BLOCK", 2)
    with pytest.raises(ValueError, match=r"kappa must be finite.*kappa2 = -1\.0"):
        lossy_fidelity_sweep([0.0, 1.0, 2.0, 3.0, -1.0], 0.2)
    with pytest.raises(ValueError, match=r"gain calibration failed: .*kappa2 = 0\.0"):
        lossy_fidelity_sweep([1.0, 2.0, 3.0, 0.0], 0.2)


def test_a_fidelity_outside_the_unit_interval_names_its_trial(monkeypatch):
    import spinlight.protocols as protocols

    real = protocols._overlap

    def inflated(averaged_cov, delta, row_name=None):
        fidelities = real(averaged_cov, delta, row_name)
        fidelities[2] = np.nan
        return fidelities

    monkeypatch.setattr(protocols, "_overlap", inflated)
    with pytest.raises(DegeneracyError, match=r"fidelity must lie in \[0, 1\], got nan at trial 2"):
        run_trials(make_plans(1.5, 0.2), np.random.default_rng(0), 4, (0.0, 0.0), (1.0, 1.0))


def test_teleport_classifies_a_bad_fidelity_as_run_trials_does():
    # A manual gain of 1e150 overflows the averaged output: a nan fidelity.
    plans, gain = make_plans(1.5, 0.2), (1e150, 1e150)
    with pytest.raises(DegeneracyError, match=r"got nan at trial 0$"):
        run_trials(plans, np.random.default_rng(0), 1, (0.0, 0.0), gain)
    # The same draws one call at a time: trial 0's pair and its teleport.
    rng = np.random.default_rng(0)
    pair, _ = entangle(plans["entangle1"], plans["entangle2"], rng)
    with pytest.raises(DegeneracyError, match=r"got nan at input mean \(0\.0, 0\.0\)$"):
        teleport(pair, (0.0, 0.0), plans["local1"], plans["local2"], gain, rng)


@pytest.mark.parametrize("gain, message", [
    (1e150, r"fidelity must lie in \[0, 1\], got nan"),
    (1e160, "overlap matrix has a non-finite entry"),
])
def test_teleport_names_both_kinds_of_overflowed_fidelity_by_its_input_mean(gain, message):
    # The overlap's own check and the unit-interval check name the same row:
    # the input mean in teleport, the trial in run_trials.
    plans = make_plans(1.5, 0.2)
    pair, _ = entangle(plans["entangle1"], plans["entangle2"], forced_outcomes=(0.0, 0.0))
    with pytest.raises(DegeneracyError, match=rf"^{message} at input mean \(0\.7, -0\.3\)$"):
        teleport(pair, (0.7, -0.3), plans["local1"], plans["local2"], (gain, gain),
                 forced_outcomes=(0.0, 0.0))
    with pytest.raises(DegeneracyError, match=rf"^{message} at trial 0$"):
        run_trials(plans, np.random.default_rng(0), 2, (0.7, -0.3), (gain, gain))


# ---------------------------------------------------------------------------
# quadrature sectors

# The pushed register's sectors: x1, x2, pulse 1's x, pulse 2's p; the rest.
_X_SECTOR, _P_SECTOR = [0, 2, 4, 7], [1, 3, 5, 6]


@st.composite
def _round_pairs(draw):
    """Entangling and local rounds as _push_bell takes them, lossless or noisy.

    Every field is a float, or, in a batch of B rows, a float or a (B,) array.
    """
    batch, lossless = draw(st.sampled_from([None, 1, 3])), draw(st.booleans())

    def field(low, high):
        values = st.floats(low, high)
        if batch is None or draw(st.booleans()):
            return draw(values)
        return np.array(draw(st.lists(values, min_size=batch, max_size=batch)))

    def round_():
        noise = [0.0] * 4 if lossless else [field(0.0, 0.9) for _ in range(4)]
        return (field(0.05, 20.0), *noise)

    return [round_(), round_()], [round_(), round_()]


@given(rounds=_round_pairs())
@settings(max_examples=80, deadline=None)
def test_both_stages_split_into_two_quadrature_sectors(rounds):
    # The exact zeros the sector form relies on, on the dense channel of
    # each push (conftest.bell_channel): the vacuum samples' covariance
    # X X^T / 2 + Y and each stage's joint have no cross-sector entry, the
    # outcomes' response C to the input mean is anti-diagonal, and the
    # teleported x-p covariance is zero.
    import spinlight.protocols as protocols

    entangling, local = rounds
    channels = [bell_channel(2, 0, 1, pushed) for pushed in (entangling, local)]
    vacuum_covs = [0.5 * transfer @ np.swapaxes(transfer, -1, -2) + noise
                   for transfer, noise in channels]
    for cov in vacuum_covs:
        assert not cov[:, _X_SECTOR][:, :, _P_SECTOR].any()
    # The entangling joint over (x1, p1, x2, p2, pulse 1's x, pulse 2's x).
    joint = vacuum_covs[0][:, [0, 1, 2, 3, 4, 6]][:, :, [0, 1, 2, 3, 4, 6]]
    assert not joint[:, [0, 2, 4]][:, :, [1, 3, 5]].any()
    # The teleport joint over (x2, p2, o1, o2): the conditioned pair and the
    # input's vacuum through the local push of sample 1 and the input.
    _, covs, _ = protocols._entangling_stage(entangling)
    transfer, noise = channels[1]
    batch = max(covs.shape[-1], len(transfer))
    response = np.zeros((batch, 4, 6))
    response[:, 0, 2] = response[:, 1, 3] = 1.0
    response[:, 2:, [0, 1, 4, 5]] = transfer[:, [4, 6]]
    inputs = np.zeros((batch, 6, 6))
    inputs[:, :4, :4] = [protocols._pair_cov(covs[..., [row % covs.shape[-1]]])
                         for row in range(batch)]
    inputs[:, 4, 4] = inputs[:, 5, 5] = 0.5
    joint = response @ inputs @ np.swapaxes(response, -1, -2)
    joint[:, 2:, 2:] += noise[:, [4, 6]][:, :, [4, 6]]
    assert not joint[:, [0, 3]][:, :, [1, 2]].any()
    c = transfer[:, [4, 6], 2:4]
    assert not c[:, [0, 1], [0, 1]].any() and c[:, [0, 1], [1, 0]].all()
    # The teleported state of the batch's first row, one plan per round.
    plans = [RoundPlan(*(float(np.ravel(field)[0]) for field in fields))
             for fields in (*entangling, *local)]
    pair, _ = entangle(*plans[:2], forced_outcomes=(0.3, -0.8))
    output, _ = teleport(pair, (0.7, -0.4), *plans[2:], forced_outcomes=(-0.2, 0.5))
    assert output.cov[0, 1] == 0.0 and output.cov[1, 0] == 0.0


@given(rounds=_round_pairs())
@settings(max_examples=80, deadline=None)
def test_folded_bell_factor_against_the_dense_channel(rounds):
    # The push stores each mode's x and p columns as one, which is exact
    # because no row of the dense channel (conftest.bell_channel) has a
    # cross-sector entry: the x sector's rows read only the samples' p
    # columns and the p sector's only their x columns.  So the folded
    # transfer is bit for bit the pair sum of the dense one, and each
    # sector's noise Gram N_S N_S^T / 2 is its Y, up to rounding.  Each kick
    # adds kappa times a row to a row, so no entry either side forms exceeds
    # s = (1 + 2 kappa1)(1 + 2 kappa2); each side rounds an entry of Y some
    # tens of times (eight steps, then a sum of ten products) on terms of
    # size up to s^2, so the two agree within 64 eps s^2.  Pulse 1's
    # back-action cancels in p1 + p2, which pulse 2 reads, so the error
    # scales with s^2 and not with the entry.
    import spinlight.protocols as protocols

    for pushed in rounds:
        factor = np.moveaxis(protocols._push_bell(pushed), -1, 0)
        transfer, noise = bell_channel(2, 0, 1, pushed)
        assert not transfer[:, _X_SECTOR][:, :, [0, 2]].any()
        assert not transfer[:, _P_SECTOR][:, :, [1, 3]].any()
        assert not noise[:, _X_SECTOR][:, :, _P_SECTOR].any()
        assert np.array_equal(factor[..., :2], transfer[..., 0::2] + transfer[..., 1::2])
        size = (1.0 + 2.0 * pushed[0][0]) * (1.0 + 2.0 * pushed[1][0])
        bound = 64 * np.finfo(float).eps * np.broadcast_to(size, len(factor)) ** 2
        for sector in (_X_SECTOR, _P_SECTOR):
            rows, want = factor[:, sector, 2:], noise[:, sector][:, :, sector]
            error = np.abs(0.5 * rows @ np.swapaxes(rows, -1, -2) - want)
            assert (error.max(axis=(1, 2)) <= bound).all()


class _ZeroDraws:
    """A generator stand-in whose standard normal draws are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


@given(kappa2=st.floats(0.2, 10.0), eta_t=st.floats(0.01, 0.9), eps=st.floats(0.0, 0.05),
       eta_d=st.floats(0.0, 0.2), multiplier=st.floats(1.0, 10.0))
@settings(max_examples=40, deadline=None)
def test_manual_sector_gains_reproduce_the_calibrated_sweep(kappa2, eta_t, eps, eta_d,
                                                          multiplier):
    # The calibrated gain is anti-diagonal, (1/c_x, 1/c_p) for the responses
    # of round 2's pulse to the input's x and of round 1's to its p.  Given by
    # hand it gives the sweep's fidelity in every trial whose outcomes sit on
    # their prior means (zero draws), where the manual gain needs no offset.
    import spinlight.protocols as protocols

    kwargs = dict(kappa1_multiplier=multiplier, eps_p=eps, eps_a=eps, eta_d=eta_d)
    plans = make_plans(kappa2, eta_t, **kwargs)
    factor = protocols._push_bell([dataclasses.astuple(plans[name])
                                   for name in ("local1", "local2")])[..., 0]
    gain = (1.0 / factor[6, 1], 1.0 / factor[4, 1])
    _, _, fidelities = run_trials(plans, _ZeroDraws(), 3, (0.7, -0.4), gain)
    swept = simulated_lossy_fidelity(kappa2, eta_t, **kwargs)
    assert np.max(np.abs(fidelities / swept - 1.0)) <= 1e-12
