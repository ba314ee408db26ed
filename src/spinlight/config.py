"""Flat key-value run configuration.

Grammar (one statement per line)::

    # full-line comment (first non-blank character '#')
    key = value

Keys are dotted lowercase identifiers (``physical.rho``, ``rounds.entangle1.kappa``).
Values are numbers, ``true``/``false``, or bare strings.  All quantities are
SI; ``physical.rho`` additionally accepts a ``cm^-3`` suffix
(``rho = 5e12 cm^-3``) converted to m^-3 at parse time.

Exactly one of the ``physical.*`` or ``channel.*`` sections must provide the
interaction parameters; if both are present they must agree (the channel
derived from the physical inputs is compared coefficient by coefficient).

Overrides: environment variables with the ``SPINLIGHT_`` prefix replace file
keys (dots become double underscores, e.g. ``SPINLIGHT_ROUNDS__ENTANGLE1__KAPPA``),
and command-line flags override both.

Recognized keys (defaults in parentheses):

    physical.lambda0            wavelength, m
    physical.length             ensemble length, m
    physical.area               cross section, m^2       (lambda0 * length)
    physical.rho                density, m^-3 or 'cm^-3' suffix
    physical.delta              detuning, rad/s
    physical.gamma              decay rate, rad/s
    physical.gamma_prime        cross decay rate, rad/s
    physical.t                  pulse duration, s        (1e-6)
    physical.na                 half atom number         (rho*area*length/2)
    physical.np                 half photon number       (na)
    physical.g_coupling         coupling |g|             (from dipole)
    physical.dipole             dipole moment, C m       (from gamma)
    channel.kappa               interaction strength
    channel.eps_p               light damping            (0)
    channel.eps_a               atomic damping           (0)
    noise.eta_t                 transmission loss 1->2   (0)
    noise.eta_t_local           transmission loss 1->3   (noise.eta_t)
    noise.eta_d                 detector inefficiency    (0)
    rounds.{entangle1,entangle2,local1,local2}.{kappa,eps_p,eps_a,eta_t,eta_d}
                                per-round overrides of the defaults above
    protocol.kappa1_multiplier  large-kappa factor for sweeps (10)
    input.x, input.p            teleport input mean      (0, 0)
    gain.x, gain.p              manual displacement gains (calibrated if absent)
    sweep.min, sweep.max        kappa2 sweep range
    sweep.steps                 grid size (>= 2)
    sweep.param                 swept parameter          (kappa2)
    mb.min_grid, mb.max_grid    dyadic grid range        (4, 64)
    mb.tol_kappa, mb.tol_eps    mb-validate tolerances   (0.01, 0.05)
    seed                        64-bit unsigned          (0)
    trials                      independent runs         (1)
    output.path                 artifact path            (stdout)
    output.format               json | csv               (json)
"""

import dataclasses
import math
import re

import numpy as np

from .interaction import ChannelParams, PhysicalParams, derive_channel
from .protocols import RoundPlan

__all__ = [
    "ConfigError",
    "RunConfig",
    "SweepSpec",
    "MbSpec",
    "ENV_PREFIX",
    "parse_config_text",
    "serialize_config",
    "apply_env_overrides",
    "resolve_run_config",
]

ENV_PREFIX = "SPINLIGHT_"

_KEY_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

_ROUND_NAMES = ("entangle1", "entangle2", "local1", "local2")
_ROUND_FIELDS = ("kappa", "eps_p", "eps_a", "eta_t", "eta_d")

_PHYSICAL_KEYS = {
    "lambda0": "lambda0",
    "length": "L",
    "area": "A",
    "rho": "rho",
    "delta": "Delta",
    "gamma": "gamma",
    "gamma_prime": "gamma_prime",
    "t": "T",
    "na": "Na",
    "np": "Np",
    "g_coupling": "g_coupling",
    "dipole": "dipole",
}


class ConfigError(ValueError):
    """Configuration problem; ``key`` names the offending entry."""

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key


def _parse_scalar(text):
    text = text.strip()
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text):
    """Parse config text into a flat {key: scalar} mapping."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(key, "not a valid dotted lowercase key")
        if key in mapping:
            raise ConfigError(key, "duplicate key")
        mapping[key] = _parse_scalar(value)
    return mapping


def _format_scalar(value):
    """Text of one scalar: ``true``/``false`` for booleans, 17 significant digits for floats."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def serialize_config(mapping):
    """Canonical text form: sorted keys, 17-significant-digit floats."""
    lines = [f"{key} = {_format_scalar(mapping[key])}" for key in sorted(mapping)]
    return "\n".join(lines) + ("\n" if lines else "")


def apply_env_overrides(mapping, environ):
    """Overlay SPINLIGHT_* environment variables onto a parsed mapping."""
    merged = dict(mapping)
    for name in sorted(name for name in environ if name.startswith(ENV_PREFIX)):
        key = name[len(ENV_PREFIX):].lower().replace("__", ".")
        if not _KEY_RE.match(key):
            raise ConfigError(name, "environment override is not a valid key")
        merged[key] = _parse_scalar(environ[name])
    return merged


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    param: str
    minimum: float
    maximum: float
    steps: int

    def values(self):
        step = (self.maximum - self.minimum) / (self.steps - 1)
        return [self.minimum + i * step for i in range(self.steps)]


@dataclasses.dataclass(frozen=True)
class MbSpec:
    min_grid: int = 4
    max_grid: int = 64
    tol_kappa: float = 0.01
    tol_eps: float = 0.05

    def grids(self):
        sizes = []
        n = self.min_grid
        while n <= self.max_grid:
            sizes.append(n)
            n *= 2
        return sizes


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings.  ``echo`` is the merged flat mapping."""

    channel: ChannelParams
    physical: PhysicalParams
    plans: dict
    input_mean: tuple
    gain: tuple
    kappa1_multiplier: float
    eta_t: float
    eta_t_local: float
    eta_d: float
    sweep: SweepSpec
    mb: MbSpec
    seed: int
    trials: int
    out_path: str
    out_format: str
    echo: dict


def _take(mapping, key, default=None, kind=float):
    if key not in mapping:
        return default
    value = mapping[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(key, f"expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(key, f"must be finite, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(key, f"expected an integer, got {value!r}")
        return value
    if kind is str:
        return str(value)
    raise AssertionError(kind)


def _parse_density(mapping):
    if "physical.rho" not in mapping:
        return None
    value = mapping["physical.rho"]
    if isinstance(value, str):
        match = re.match(r"^([-+0-9.eE]+)\s*(cm\^-3|m\^-3)$", value.strip())
        if not match:
            raise ConfigError(
                "physical.rho", f"cannot parse density {value!r} (units: m^-3, cm^-3)"
            )
        number = float(match.group(1))
        return number * 1e6 if match.group(2) == "cm^-3" else number
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("physical.rho", f"expected a number, got {value!r}")
    return float(value)


def _build_physical(mapping):
    keys = [k for k in mapping if k.startswith("physical.")]
    if not keys:
        return None
    kwargs = {}
    for key in keys:
        short = key.split(".", 1)[1]
        if short not in _PHYSICAL_KEYS:
            raise ConfigError(key, "unknown physical parameter")
        kwargs[_PHYSICAL_KEYS[short]] = _take(mapping, key)
    try:
        return PhysicalParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError("physical", str(exc)) from None


def _build_channel(mapping):
    if not any(k.startswith("channel.") for k in mapping):
        return None
    for key in mapping:
        if key.startswith("channel.") and key not in (
            "channel.kappa",
            "channel.eps_p",
            "channel.eps_a",
        ):
            raise ConfigError(key, "unknown channel parameter")
    kappa = _take(mapping, "channel.kappa")
    if kappa is None:
        raise ConfigError("channel.kappa", "required when a channel section is given")
    eps_p = _take(mapping, "channel.eps_p", 0.0)
    eps_a = _take(mapping, "channel.eps_a", 0.0)
    try:
        return ChannelParams(kappa=kappa, eps_p=eps_p, eps_a=eps_a)
    except ValueError as exc:
        raise ConfigError("channel", str(exc)) from None


_KNOWN_TOP = {
    "seed",
    "trials",
    "output.path",
    "output.format",
    "noise.eta_t",
    "noise.eta_t_local",
    "noise.eta_d",
    "protocol.kappa1_multiplier",
    "input.x",
    "input.p",
    "gain.x",
    "gain.p",
    "sweep.param",
    "sweep.min",
    "sweep.max",
    "sweep.steps",
    "mb.min_grid",
    "mb.max_grid",
    "mb.tol_kappa",
    "mb.tol_eps",
}


def resolve_run_config(mapping):
    """Validate a flat mapping and build the resolved RunConfig."""
    mapping = dict(mapping)
    if "physical.rho" in mapping:
        # Unit aliases are resolved at parse time so that the echoed config
        # (and hence every artifact) is identical across alias spellings.
        mapping["physical.rho"] = _parse_density(mapping)
    for key in mapping:
        if key.startswith(("physical.", "channel.")):
            continue
        if key.startswith("rounds."):
            parts = key.split(".")
            if (
                len(parts) != 3
                or parts[1] not in _ROUND_NAMES
                or parts[2] not in _ROUND_FIELDS
            ):
                raise ConfigError(key, "unknown round setting")
            continue
        if key not in _KNOWN_TOP:
            raise ConfigError(key, "unknown key")

    physical = _build_physical(mapping)
    channel = _build_channel(mapping)
    if physical is None and channel is None:
        raise ConfigError(
            "channel", "a parameter source is required: physical.* or channel.*"
        )
    if physical is not None:
        derived = derive_channel(physical)
        if channel is not None:
            for name in ("kappa", "eps_p", "eps_a"):
                want, got = getattr(derived, name), getattr(channel, name)
                scale = max(abs(want), abs(got), 1e-300)
                if abs(want - got) > 1e-6 * scale:
                    raise ConfigError(
                        f"channel.{name}",
                        f"inconsistent with physical parameters: "
                        f"derived {want:.9e}, configured {got:.9e}",
                    )
        channel = derived

    eta_t = _take(mapping, "noise.eta_t", 0.0)
    eta_t_local = _take(mapping, "noise.eta_t_local", eta_t)
    eta_d = _take(mapping, "noise.eta_d", 0.0)
    for key, value in (("noise.eta_t", eta_t), ("noise.eta_t_local", eta_t_local),
                       ("noise.eta_d", eta_d)):
        if not 0.0 <= value < 1.0:
            raise ConfigError(key, f"must lie in [0, 1), got {value}")

    plans = {}
    for name in _ROUND_NAMES:
        local = name.startswith("local")
        defaults = {
            "kappa": channel.kappa,
            "eps_p": channel.eps_p,
            "eps_a": channel.eps_a,
            "eta_t": eta_t_local if local else eta_t,
            "eta_d": eta_d,
        }
        kwargs = {
            field: _take(mapping, f"rounds.{name}.{field}", defaults[field])
            for field in _ROUND_FIELDS
        }
        try:
            plans[name] = RoundPlan(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"rounds.{name}", str(exc)) from None

    gain = None
    if "gain.x" in mapping or "gain.p" in mapping:
        if not ("gain.x" in mapping and "gain.p" in mapping):
            raise ConfigError("gain.x", "gain.x and gain.p must be given together")
        gain = (_take(mapping, "gain.x"), _take(mapping, "gain.p"))

    sweep = None
    if any(k.startswith("sweep.") for k in mapping):
        param = _take(mapping, "sweep.param", "kappa2", kind=str)
        if param != "kappa2":
            raise ConfigError("sweep.param", f"only 'kappa2' is supported, got {param!r}")
        minimum = _take(mapping, "sweep.min")
        maximum = _take(mapping, "sweep.max")
        steps = _take(mapping, "sweep.steps", kind=int)
        if minimum is None or maximum is None or steps is None:
            raise ConfigError("sweep.min", "sweep needs sweep.min, sweep.max, sweep.steps")
        if steps < 2:
            raise ConfigError("sweep.steps", f"need at least 2 steps, got {steps}")
        if not 0.0 < minimum < maximum:
            raise ConfigError("sweep.min", "need 0 < sweep.min < sweep.max")
        sweep = SweepSpec(param=param, minimum=minimum, maximum=maximum, steps=steps)

    mb = MbSpec(
        min_grid=_take(mapping, "mb.min_grid", 4, kind=int),
        max_grid=_take(mapping, "mb.max_grid", 64, kind=int),
        tol_kappa=_take(mapping, "mb.tol_kappa", 0.01),
        tol_eps=_take(mapping, "mb.tol_eps", 0.05),
    )
    if mb.min_grid < 1 or mb.max_grid < mb.min_grid:
        raise ConfigError("mb.min_grid", "need 1 <= mb.min_grid <= mb.max_grid")

    seed = _take(mapping, "seed", 0, kind=int)
    if not 0 <= seed < 2**64:
        raise ConfigError("seed", f"must be a 64-bit unsigned integer, got {seed}")
    trials = _take(mapping, "trials", 1, kind=int)
    if trials < 1:
        raise ConfigError("trials", f"must be at least 1, got {trials}")
    out_format = _take(mapping, "output.format", "json", kind=str)
    if out_format not in ("json", "csv"):
        raise ConfigError("output.format", f"must be json or csv, got {out_format!r}")

    input_mean = (_take(mapping, "input.x", 0.0), _take(mapping, "input.p", 0.0))

    return RunConfig(
        channel=channel,
        physical=physical,
        plans=plans,
        input_mean=input_mean,
        gain=gain,
        kappa1_multiplier=_take(mapping, "protocol.kappa1_multiplier", 10.0),
        eta_t=eta_t,
        eta_t_local=eta_t_local,
        eta_d=eta_d,
        sweep=sweep,
        mb=mb,
        seed=seed,
        trials=trials,
        out_path=_take(mapping, "output.path", None, kind=str),
        out_format=out_format,
        # The artifact destination does not affect the computation, so it is
        # left out of the echo; everything else is reproducibility input.
        echo={k: v for k, v in sorted(mapping.items()) if k != "output.path"},
    )
