import dataclasses
import math

import numpy as np
import pytest
from scipy import constants

from spinlight import (
    ChannelParams,
    PhysicalParams,
    apply_pass,
    derive_channel,
    kappa_from_density,
    symplectic_form,
    vacuum_state,
    validate_regime,
    variance_of,
)
from spinlight import interaction
from spinlight.gaussian import _state_step, homodyne
from conftest import (
    REFERENCE_LAMBDA0,
    assert_step_matches_dense,
    random_physical_state,
    reference_lambda0,
)


def _symmetric_params(**overrides):
    gamma = 2.0 * math.pi * 6e6
    base = dict(
        lambda0=780e-9,
        L=0.01,
        rho=2e18,
        Delta=200 * gamma,
        gamma=gamma,
        gamma_prime=gamma,
    )
    base.update(overrides)
    return PhysicalParams(**base)


# ---------------------------------------------------------------------------
# physical constants


def test_constants_equal_scipy_values():
    assert interaction.SPEED_OF_LIGHT == constants.c
    assert interaction.EPSILON_0 == constants.epsilon_0
    assert interaction.HBAR == constants.hbar


# ---------------------------------------------------------------------------
# derive_channel


def test_consistency_identity_symmetric_inputs():
    # kappa = 2 sqrt(eps_p eps_a) Delta / sqrt(gamma gamma') holds exactly.
    params = _symmetric_params()
    ch = derive_channel(params)
    identity = (
        2.0
        * math.sqrt(ch.eps_p * ch.eps_a)
        * params.Delta
        / math.sqrt(params.gamma * params.gamma_prime)
    )
    assert identity == pytest.approx(ch.kappa, rel=1e-12)


def test_consistency_identity_asymmetric_rates():
    gamma = 2.0 * math.pi * 6e6
    params = _symmetric_params(gamma_prime=0.4 * gamma)
    ch = derive_channel(params)
    identity = (
        2.0
        * math.sqrt(ch.eps_p * ch.eps_a)
        * params.Delta
        / math.sqrt(params.gamma * params.gamma_prime)
    )
    assert identity == pytest.approx(ch.kappa, rel=1e-9)


def test_doubling_detuning_power_laws():
    params = _symmetric_params()
    ch1 = derive_channel(params)
    ch2 = derive_channel(dataclasses.replace(params, Delta=2 * params.Delta))
    assert ch2.kappa == pytest.approx(ch1.kappa / 2, rel=1e-12)
    assert ch2.eps_p == pytest.approx(ch1.eps_p / 4, rel=1e-12)
    assert ch2.eps_a == pytest.approx(ch1.eps_a / 4, rel=1e-12)


def test_reference_operating_point(reference_params):
    # rho = 5e12 cm^-3, L = 2 cm, Delta = 300 gamma, number matching, and
    # lambda0 inverted from the column-density form to hit kappa = 5.  The
    # inversion lands on 2 pi x 1e-7 m (recorded fixture value).
    assert reference_lambda0() == pytest.approx(REFERENCE_LAMBDA0, rel=1e-12)
    ch = derive_channel(reference_params)
    assert ch.kappa == pytest.approx(5.0, rel=1e-9)
    assert ch.eps_p == pytest.approx(1.0 / 120.0, rel=1e-9)
    assert ch.eps_a == pytest.approx(1.0 / 120.0, rel=1e-9)
    assert ch.eps_p < 0.01
    # eps = kappa * gamma/(2 Delta) * sqrt(gamma'/gamma) at number matching
    expected = (
        ch.kappa
        * reference_params.gamma
        / (2 * reference_params.Delta)
        * math.sqrt(reference_params.gamma_prime / reference_params.gamma)
    )
    assert ch.eps_p == pytest.approx(expected, rel=1e-9)


def test_monotonicity_in_numbers_and_coupling():
    params = _symmetric_params()
    ch = derive_channel(params)
    more_photons = derive_channel(
        dataclasses.replace(params, Np=2 * params.Np)
    )
    assert more_photons.kappa > ch.kappa
    assert more_photons.eps_p == pytest.approx(ch.eps_p, rel=1e-12)  # Np-free
    assert more_photons.eps_a == pytest.approx(2 * ch.eps_a, rel=1e-12)

    bigger_g = derive_channel(
        dataclasses.replace(params, g_coupling=2 * params.g_coupling)
    )
    assert bigger_g.kappa == pytest.approx(4 * ch.kappa, rel=1e-12)

    # Na enters through rho at fixed geometry (Na is pinned to rho A L / 2).
    denser = derive_channel(
        PhysicalParams(
            lambda0=params.lambda0, L=params.L, rho=2 * params.rho,
            Delta=params.Delta, gamma=params.gamma,
            gamma_prime=params.gamma_prime, g_coupling=params.g_coupling,
        )
    )
    assert denser.kappa > ch.kappa


def test_positivity_validation():
    with pytest.raises(ValueError):
        _symmetric_params(Delta=-1.0)
    with pytest.raises(ValueError):
        _symmetric_params(rho=0.0)


@pytest.mark.parametrize("overrides, message", [
    ({"gamma_prime": -1.0}, "gamma_prime must be non-negative"),
    ({"A": -1.0}, "A must be positive"),
    ({"Np": -1.0}, "Na and Np must be positive"),
    ({"g_coupling": -1.0}, "g_coupling must be positive"),
    ({"dipole": -1.0}, "dipole, omega0 and area must be positive"),
    # rho * A * L = 1e-300 * 1e-30 * 1e-2 underflows to 0: no atoms.
    ({"rho": 1e-300, "A": 1e-30, "L": 1e-2}, "Na and Np must be positive"),
], ids=["gamma-prime", "area", "photons", "coupling", "dipole", "column-underflow"])
def test_a_bad_physical_input_raises_naming_it(overrides, message):
    with pytest.raises(ValueError) as error:
        _symmetric_params(**overrides)
    assert str(error.value) == message


def test_dipole_from_linewidth_rejects_a_negative_rate():
    with pytest.raises(ValueError) as error:
        interaction.dipole_from_linewidth(-1.0, 2.0 * math.pi * constants.c / 780e-9)
    assert str(error.value) == "gamma must be non-negative and omega0 positive"


def test_atom_number_consistency_check():
    params = _symmetric_params()
    with pytest.raises(ValueError):
        dataclasses.replace(params, Na=1.5 * params.Na)


def test_gamma_zero_requires_explicit_coupling():
    with pytest.raises(ValueError):
        _symmetric_params(gamma=0.0)
    params = _symmetric_params(gamma=0.0, gamma_prime=0.0, g_coupling=0.05)
    ch = derive_channel(params)
    assert ch.eps_p == 0.0
    assert ch.eps_a == 0.0
    assert ch.kappa > 0.0


# ---------------------------------------------------------------------------
# kappa_from_density


def test_density_form_agrees_with_microscopic_route():
    # Core self-consistency oracle: g from the dipole moment, gamma from that
    # same dipole, 2 Na = rho A L, Np = Na.
    for lam, L, rho, ratio in [
        (REFERENCE_LAMBDA0, 0.02, 5e18, 300.0),
        (780e-9, 0.01, 2e18, 150.0),
        (852e-9, 0.03, 8e17, 500.0),
    ]:
        gamma = 2.0 * math.pi * 5e6
        params = PhysicalParams(
            lambda0=lam, L=L, rho=rho, Delta=ratio * gamma,
            gamma=gamma, gamma_prime=gamma,
        )
        ch = derive_channel(params)
        assert kappa_from_density(params) == pytest.approx(ch.kappa, rel=1e-6)


def test_density_form_linear_in_length():
    params = _symmetric_params()
    doubled = PhysicalParams(
        lambda0=params.lambda0, L=2 * params.L, rho=params.rho,
        Delta=params.Delta, gamma=params.gamma, gamma_prime=params.gamma_prime,
    )
    assert kappa_from_density(doubled) == pytest.approx(
        2 * kappa_from_density(params), rel=1e-12
    )


def test_density_form_depends_on_column_density_only():
    params = _symmetric_params()
    traded = PhysicalParams(
        lambda0=params.lambda0, L=params.L / 2, rho=2 * params.rho,
        Delta=params.Delta, gamma=params.gamma, gamma_prime=params.gamma_prime,
    )
    assert kappa_from_density(traded) == pytest.approx(
        kappa_from_density(params), rel=1e-12
    )


def test_density_form_requires_number_matching():
    params = _symmetric_params()
    with pytest.raises(ValueError):
        kappa_from_density(dataclasses.replace(params, Np=2 * params.Np))


# ---------------------------------------------------------------------------
# validate_regime


def test_reference_regime_all_pass(reference_params):
    ch = derive_channel(reference_params)
    report = validate_regime(reference_params, ch)
    assert report.all_pass
    assert report.fresnel == pytest.approx(1.0, rel=1e-12)


def test_kappa_vs_sqrt_n_failure():
    params = _symmetric_params()
    report = validate_regime(
        dataclasses.replace(params, Np=10.0),
        ChannelParams(kappa=5.0, eps_p=0.001, eps_a=0.001),
    )
    assert not report.kappa_vs_sqrt_n


def test_jump_count_equals_eps_p_times_np(reference_params):
    ch = derive_channel(reference_params)
    report = validate_regime(reference_params, ch)
    assert report.jump_count_estimate == pytest.approx(
        ch.eps_p * reference_params.Np, rel=1e-12
    )


def test_detuning_below_its_cutoff_is_not_large():
    # Delta = 200 gamma passes the Delta / gamma > 50 cutoff; 40 gamma does not.
    for ratio, large in ((200.0, True), (40.0, False)):
        params = _symmetric_params(Delta=ratio * 2.0 * math.pi * 6e6)
        report = validate_regime(params, derive_channel(params))
        assert report.detuning_large is large


# ---------------------------------------------------------------------------
# apply_pass


def test_pass_moments_match_matrix_oracle():
    # eps = 0, vacuum input: direct 4x4 arithmetic gives the moments.
    kappa = 1.9
    ch = ChannelParams(kappa=kappa, eps_p=0.0, eps_a=0.0)
    out = apply_pass(vacuum_state(2), 0, 1, ch)
    assert out.cov[0, 0] == pytest.approx((1 + kappa**2) / 2, abs=1e-14)
    assert out.cov[1, 1] == pytest.approx(0.5, abs=1e-15)
    assert out.cov[0, 3] == pytest.approx(-kappa / 2, abs=1e-14)


def _dense_kick(dim, light, atom, kappa):
    transfer = np.eye(dim)
    transfer[2 * light, 2 * atom + 1] = -kappa
    transfer[2 * atom, 2 * light + 1] = -kappa
    return transfer, np.zeros((dim, dim))


@pytest.mark.parametrize("batch", [None, 1, 7])
@pytest.mark.parametrize("light, atom", [(2, 0), (0, 1)])
def test_kick_kernel_matches_dense_form(batch, light, atom):
    kappa = np.random.default_rng(12).uniform(0.0, 1.0, size=batch)
    assert_step_matches_dense(
        interaction._kick, _dense_kick, (light, atom, kappa), batch
    )


def test_pass_with_zero_kappa_is_pure_loss():
    ch = ChannelParams(kappa=0.0, eps_p=0.3, eps_a=0.2)
    state = random_physical_state(np.random.default_rng(4), 2)
    out = apply_pass(state, 0, 1, ch)
    from spinlight import loss_channel

    expected = loss_channel(loss_channel(state, 0, 0.3), 1, 0.2)
    assert np.allclose(out.cov, expected.cov, atol=1e-14)
    assert np.allclose(out.mean, expected.mean, atol=1e-14)


def test_pass_returns_the_atom_vacuum_then_the_light_vacuum():
    rows = np.eye(6)
    assert interaction._pass(rows, 2, 0, 1.5, 0.3, 0.1) == ((0, 0.1), (2, 0.3))
    assert interaction._kick(rows, 2, 0, 1.5) == ()


def test_pass_map_is_symplectic():
    omega = symplectic_form(2)
    matrix = np.eye(4)
    interaction._kick(matrix, 0, 1, 3.7)
    assert np.array_equal(matrix.T @ omega @ matrix, omega)


def test_pass_preserves_heisenberg_for_random_states():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        state = random_physical_state(rng, 2)
        ch = ChannelParams(
            kappa=float(rng.uniform(0, 6)),
            eps_p=float(rng.uniform(0, 0.5)),
            eps_a=float(rng.uniform(0, 0.5)),
        )
        out = apply_pass(state, 0, 1, ch)
        assert out.heisenberg_margin() >= -1e-9


def test_pass_rejects_same_mode():
    ch = ChannelParams(kappa=1.0, eps_p=0.0, eps_a=0.0)
    with pytest.raises(ValueError):
        apply_pass(vacuum_state(2), 1, 1, ch)


def test_pass_ordering_is_irrelevant_without_loss():
    # Passing through ensemble 1 then 2 equals 2 then 1: the conserved p
    # quadratures make the two kicks commute exactly.
    ch = ChannelParams(kappa=2.2, eps_p=0.0, eps_a=0.0)
    state = vacuum_state(3)  # light = 0, atoms = 1, 2
    onetwo = apply_pass(apply_pass(state, 0, 1, ch), 0, 2, ch)
    twoone = apply_pass(apply_pass(state, 0, 2, ch), 0, 1, ch)
    assert np.array_equal(onetwo.cov, twoone.cov)
    assert (
        variance_of(onetwo, [1, 0, 0, 0, 0, 0])
        == pytest.approx((1 + 2 * ch.kappa**2) / 2, abs=1e-14)
    )


def test_sign_flip_is_unobservable_in_variances():
    # Flipping the sign of kappa is a phase-space reflection: all variances
    # and conditional variances are unchanged.
    kappa = 1.3
    diagonals = []
    conditioned = []
    for sign in (+1.0, -1.0):
        # The light (mode 0) kicks both atoms (modes 1 and 2).
        out = vacuum_state(3)
        for atom in (1, 2):
            out = _state_step(out, interaction._kick, 0, atom, sign * kappa)
        diagonals.append(np.diag(out.cov).copy())
        _, posterior = homodyne(out, 0, "x", forced=0.0)
        conditioned.append(variance_of(posterior, [0.0, 1.0, 0.0, 1.0]))
    assert np.array_equal(diagonals[0], diagonals[1])
    assert conditioned[0] == pytest.approx(conditioned[1], abs=1e-14)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(kappa=-1.0, eps_p=0.0, eps_a=0.0)
    with pytest.raises(ValueError):
        ChannelParams(kappa=1.0, eps_p=1.0, eps_a=0.0)
