"""Microscopic coupling parameters for one light pass through a spin ensemble.

Translates experimental inputs (wavelength, geometry, density, detuning, decay
rates, photon and atom numbers) into the three coefficients of the collective
pass channel,

    x_p' = sqrt(1 - eps_p) (x_p - kappa * p_a) + sqrt(eps_p) * x_noise
    x_a' = sqrt(1 - eps_a) (x_a - kappa * p_p) + sqrt(eps_a) * x_noise
    p'   = sqrt(1 - eps)   p                   + sqrt(eps)   * p_noise

and applies that channel to a :class:`~spinlight.gaussian.GaussianState`.
One in-place kernel, ``_pass`` (the kick, then atomic and light damping), is
the pass that :func:`apply_pass`, the protocols' Bell rounds and the
Maxwell-Bloch grid cells all run.

All quantities are SI.  Photon/atom number accounting: ``Np`` is HALF the
total pulse photon number (the pulse carries ``2 * Np`` photons split over the
two circular polarizations, and ``Np`` is the classical Stokes normalization
used to build the canonical light quadratures).  Likewise the sample holds
``2 * Na`` atoms with ``2 * Na = rho * A * L``.  Keep this factor of two in
mind when comparing against photon-counting conventions.
"""

import dataclasses
import math

from .gaussian import _damp, _mode_of, _state_step, _targets

# CODATA 2022 values, bit-equal to scipy.constants (c, epsilon_0, hbar).
SPEED_OF_LIGHT = 299792458.0  # m/s
EPSILON_0 = 8.8541878188e-12  # F/m
HBAR = 1.0545718176461565e-34  # J s

__all__ = [
    "PhysicalParams",
    "ChannelParams",
    "RegimeReport",
    "dipole_from_linewidth",
    "coupling_from_dipole",
    "derive_channel",
    "kappa_from_density",
    "validate_regime",
    "apply_pass",
]


def dipole_from_linewidth(gamma, omega0):
    """Transition dipole moment that reproduces a given decay rate.

    Inverts gamma = omega0^3 d^2 / (3 pi eps0 hbar c^3).
    """
    if gamma < 0 or omega0 <= 0:
        raise ValueError("gamma must be non-negative and omega0 positive")
    omega3 = _power("omega0", omega0, 3)
    return math.sqrt(3.0 * math.pi * EPSILON_0 * HBAR * SPEED_OF_LIGHT**3 * gamma / omega3)


def _power(name, value, exponent, error=ValueError):
    """``value ** exponent``; a result past the float range is an ``error`` naming ``name``."""
    try:
        return value**exponent
    except OverflowError:
        raise error(
            f"{name}**{exponent} overflows the float range at {name} = {value!r}"
        ) from None


def coupling_from_dipole(dipole, omega0, area):
    """Single-pass coupling |g| of a dipole to the focused continuum mode.

    Normalization constant fixed by requiring the (Np, Na, g) route of
    :func:`derive_channel` to match the column-density form of
    :func:`kappa_from_density`; do not change one without the other.
    """
    if dipole <= 0 or omega0 <= 0 or area <= 0:
        raise ValueError("dipole, omega0 and area must be positive")
    return dipole * math.sqrt(omega0 / (2.0 * math.pi * HBAR * EPSILON_0 * area))


@dataclasses.dataclass(frozen=True)
class PhysicalParams:
    """Microscopic inputs for one ensemble-light interface.

    Parameters
    ----------
    lambda0 : float
        Optical wavelength (m).
    L : float
        Ensemble length along the beam (m).
    rho : float
        Atomic number density (m^-3).
    Delta : float
        Detuning from the excited states (rad/s).
    gamma : float
        Decay rate to the directly coupled ground state (rad/s).  Zero is
        allowed as the explicit lossless idealization.
    gamma_prime : float
        Cross decay rate to the other ground state (rad/s); zero allowed.
    A : float, optional
        Beam / ensemble cross section (m^2).  Defaults to lambda0 * L, the
        unit-Fresnel-number pencil geometry.
    Na : float, optional
        Half the atom number.  Defaults to rho * A * L / 2 and must satisfy
        2 * Na = rho * A * L (1e-6 relative) when supplied.
    Np : float, optional
        Half the pulse photon number.  Defaults to Na (number matching).
    g_coupling : float, optional
        Coupling |g|.  Defaults to coupling_from_dipole(dipole, ...).
    dipole : float, optional
        Transition dipole (C m).  Defaults to dipole_from_linewidth(gamma),
        which requires gamma > 0.
    """

    lambda0: float
    L: float
    rho: float
    Delta: float
    gamma: float
    gamma_prime: float
    A: float = None
    Na: float = None
    Np: float = None
    g_coupling: float = None
    dipole: float = None

    def __post_init__(self):
        for name in ("lambda0", "L", "rho", "Delta"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name in ("gamma", "gamma_prime"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.A is None:
            object.__setattr__(self, "A", self.lambda0 * self.L)
        if self.A <= 0:
            raise ValueError("A must be positive")
        column = self.rho * self.A * self.L
        if self.Na is None:
            object.__setattr__(self, "Na", 0.5 * column)
        elif abs(2.0 * self.Na - column) > 1e-6 * column:
            raise ValueError(
                f"inconsistent atom number: 2*Na = {2 * self.Na:.6e} but "
                f"rho*A*L = {column:.6e}"
            )
        if self.Np is None:
            object.__setattr__(self, "Np", self.Na)
        if self.Na <= 0 or self.Np <= 0:
            raise ValueError("Na and Np must be positive")
        if self.dipole is None and self.g_coupling is None:
            if self.gamma <= 0:
                raise ValueError(
                    "g_coupling (or dipole) must be supplied when gamma is zero"
                )
            object.__setattr__(
                self, "dipole", dipole_from_linewidth(self.gamma, self.omega0)
            )
        if self.g_coupling is None:
            object.__setattr__(
                self,
                "g_coupling",
                coupling_from_dipole(self.dipole, self.omega0, self.A),
            )
        if self.g_coupling <= 0:
            raise ValueError("g_coupling must be positive")

    @property
    def omega0(self):
        """Carrier frequency 2 pi c / lambda0 (rad/s)."""
        return 2.0 * math.pi * SPEED_OF_LIGHT / self.lambda0


@dataclasses.dataclass(frozen=True)
class ChannelParams:
    """The (kappa, eps_p, eps_a) triple defining one collective pass."""

    kappa: float
    eps_p: float
    eps_a: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa is stored as a finite magnitude, got {self.kappa}")
        for name in ("eps_p", "eps_a"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value}")


# Cutoffs of validate_regime's checks; they encode 'much less than'.
_EPS_MAX = 0.05
_KAPPA_OVER_SQRT_N_MAX = 0.01
_DETUNING_RATIO_MIN = 50.0
_FRESNEL_TOLERANCE = 0.5


@dataclasses.dataclass(frozen=True)
class RegimeReport:
    """Outcome of the regime-of-validity checks (report only, never raises)."""

    fresnel: float
    fresnel_ok: bool
    eps_small: bool
    kappa_vs_sqrt_n: bool
    detuning_large: bool
    jump_count_estimate: float

    @property
    def all_pass(self):
        return (
            self.fresnel_ok
            and self.eps_small
            and self.kappa_vs_sqrt_n
            and self.detuning_large
        )


def derive_channel(params):
    """Channel coefficients from microscopic inputs.

    kappa = 2 sqrt(Np Na) |g|^2 / (Delta c)       (stored as a magnitude)
    eps_p = Na |g|^2 gamma / (Delta^2 c)
    eps_a = Np |g|^2 gamma' / (Delta^2 c)

    The sign of the interaction is a phase-space reflection with no effect on
    variances, squeezing or fidelities, so only |kappa| is kept.
    """
    g2 = _power("g_coupling", params.g_coupling, 2)
    delta2 = _power("Delta", params.Delta, 2)
    kappa = 2.0 * math.sqrt(params.Np * params.Na) * g2 / (params.Delta * SPEED_OF_LIGHT)
    eps_p = params.Na * g2 * params.gamma / (delta2 * SPEED_OF_LIGHT)
    eps_a = params.Np * g2 * params.gamma_prime / (delta2 * SPEED_OF_LIGHT)
    if not (eps_p < 1.0 and eps_a < 1.0):
        raise ValueError(
            f"damping out of range (eps_p={eps_p:.3e}, eps_a={eps_a:.3e}); "
            "inputs are outside the perturbative regime"
        )
    return ChannelParams(kappa=kappa, eps_p=eps_p, eps_a=eps_a)


def kappa_from_density(params):
    """Interaction strength in column-density form, 3 rho lambda0^2 L gamma / (8 pi^2 Delta).

    Valid only under number matching Np = Na; agrees with
    ``derive_channel(params).kappa`` when g is derived from the dipole moment
    and gamma from that same dipole.
    """
    if abs(params.Np - params.Na) > 1e-9 * max(params.Np, params.Na):
        raise ValueError(
            f"density form requires Np = Na, got Np={params.Np:.6e}, Na={params.Na:.6e}"
        )
    return (
        3.0
        * params.rho
        * params.lambda0**2
        * params.L
        * params.gamma
        / (8.0 * math.pi**2 * params.Delta)
    )


def validate_regime(params, channel):
    """Evaluate the validity conditions behind the linearized pass channel.

    Checks eps << 1, kappa << sqrt(N), Delta >> gamma and Fresnel number near
    one, against the fixed cutoffs above.  Also reports the expected number of
    spontaneous-emission jump events, Np Na |g|^2 gamma / (Delta^2 c), which
    equals eps_p * Np; collective observables tolerate a large value.
    """
    fresnel = params.A / (params.lambda0 * params.L)
    jump = (
        params.Np
        * params.Na
        * params.g_coupling**2
        * params.gamma
        / (params.Delta**2 * SPEED_OF_LIGHT)
    )
    detuning_large = (
        params.gamma == 0.0 or params.Delta / params.gamma > _DETUNING_RATIO_MIN
    )
    return RegimeReport(
        fresnel=fresnel,
        fresnel_ok=abs(fresnel - 1.0) < _FRESNEL_TOLERANCE,
        eps_small=max(channel.eps_p, channel.eps_a) < _EPS_MAX,
        kappa_vs_sqrt_n=channel.kappa
        < _KAPPA_OVER_SQRT_N_MAX * math.sqrt(min(params.Np, params.Na)),
        detuning_large=detuning_large,
        jump_count_estimate=jump,
    )


def _kick(rows, cov, light, atom, kappa):
    """In place: the lossless two-mode kick x_p -= kappa p_a, x_a -= kappa p_p.

    Acts along the leading (quadrature) axis of ``rows`` and of both axes of
    ``cov`` (see :func:`~spinlight.gaussian._targets`); ``kappa`` is a scalar
    or an array over the trailing batch axes.  Neither updated row feeds the
    other, so the order of the two updates does not matter.
    """
    for block in _targets(rows, cov):
        block[2 * light] -= kappa * block[2 * atom + 1]
        block[2 * atom] -= kappa * block[2 * light + 1]


def _pass(rows, cov, light, atom, kappa, eps_p, eps_a):
    """In place: one pass, the kick, then atomic and light damping (which commute)."""
    _kick(rows, cov, light, atom, kappa)
    _damp(rows, cov, atom, eps_a)
    _damp(rows, cov, light, eps_p)


def apply_pass(state, light, atom, channel):
    """One light-through-ensemble pass on a register state.

    Applies the lossless two-mode kick, then the atomic damping eps_a and the
    light damping eps_p (damping acts on the already-kicked quadratures).
    """
    light_idx = _mode_of(state, light)
    atom_idx = _mode_of(state, atom)
    if light_idx == atom_idx:
        raise ValueError("light and atom must be distinct modes")
    return _state_step(
        state, _pass, light_idx, atom_idx, channel.kappa, channel.eps_p, channel.eps_a
    )
