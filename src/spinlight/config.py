"""Flat key-value run configuration.

Grammar (one statement per line)::

    # full-line comment (first non-blank character '#')
    key = value

Keys are dotted lowercase identifiers (``physical.rho``, ``rounds.entangle1.kappa``).
Values are numbers, ``true``/``false``, or bare strings; the value of a text
key (``output.path``, ``output.format``, ``sweep.param``) is its text as
written.  All quantities are SI; ``physical.rho`` additionally accepts a
``cm^-3`` suffix (``rho = 5e12 cm^-3``) converted to m^-3 at parse time.

Exactly one of the ``physical.*`` or ``channel.*`` sections must provide the
interaction parameters; if both are present they must agree (the channel
derived from the physical inputs is compared coefficient by coefficient).

Overrides: environment variables with the ``SPINLIGHT_`` prefix replace file
keys (dots become double underscores, e.g. ``SPINLIGHT_ROUNDS__ENTANGLE1__KAPPA``),
and command-line flags override both.  All three are read by one scalar
reader, so a value means the same wherever it is given.

Every key is declared once, in ``_SCHEMA``, with its kind, default and
allowed values.  That one table rejects unknown keys, checks each value's
type, finiteness and range, fills in the defaults and renders the key table
below, so an error in a single value names its key.  Only the rules across
keys are code: the physical and channel sections agree,
``sweep.min < sweep.max`` and ``mb.min_grid <= mb.max_grid``; what
:class:`~spinlight.interaction.PhysicalParams` finds inconsistent among the
physical inputs, and a derived figure that overflows the float range
(``Delta**2`` at ``physical.delta = 1e160``), is reported under ``physical``.

The upper bounds of ``trials``, ``sweep.steps`` and ``mb.max_grid`` are
resource caps, each at a size that was run.  Its row gives the wall time and
peak RSS of that run: a fresh process writing to a file, in either format,
in an 8 GB, 2-core Xeon container, with numpy 2.4 and one BLAS thread.

Recognized keys, with their allowed values and default.  A default
``= key`` is that key's value; a ``required`` key must be given once any
key of its section is; other text says what computes the value::

"""

import dataclasses
import functools
import math
import re
import sys

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
    "apply_env_overrides",
    "resolve_run_config",
]

ENV_PREFIX = "SPINLIGHT_"

_KEY_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


class ConfigError(ValueError):
    """Configuration problem; ``key`` names the offending entry."""

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}")
        self.key = key


def _parse_scalar(key, text):
    """The value of ``key`` written as ``text``, in a file, a variable or a flag.

    A text key keeps its text as given (``output.path = 2024.10`` is not the
    number 2024.1); any other value is a boolean, an int, a float or text.
    """
    if (row := _SCHEMA.get(key)) is not None and row.kind is _text:
        return text
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    # int() reads no '.' and no exponent, so such text is not tried as one.
    if "." not in low and "e" not in low:
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
        mapping[key] = _parse_scalar(key, value.strip())
    return mapping


def apply_env_overrides(mapping, environ):
    """Overlay SPINLIGHT_* environment variables onto a parsed mapping."""
    merged = dict(mapping)
    for name in sorted(name for name in environ if name.startswith(ENV_PREFIX)):
        key = name[len(ENV_PREFIX):].lower().replace("__", ".")
        if not _KEY_RE.match(key):
            raise ConfigError(name, "environment override is not a valid key")
        merged[key] = _parse_scalar(key, environ[name].strip())
    return merged


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    param: str
    minimum: float
    maximum: float
    steps: int

    def values(self):
        """The ``steps`` grid values ``minimum + i * step`` as a float64 array.

        Near the float range the last values may overflow to ``inf``, as they
        would in Python floats, and the sweep reports that row.
        """
        step = (self.maximum - self.minimum) / (self.steps - 1)
        with np.errstate(over="ignore"):
            return self.minimum + np.arange(self.steps) * step


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
    # The checked value of every schema key, by key.
    _values: dict

    @functools.cached_property
    def plans(self):
        """Each round's :class:`~spinlight.protocols.RoundPlan`, by round name.

        Built on first read, so a command that runs no round builds none; the
        schema has checked every field a plan checks.
        """
        return {name: RoundPlan(**{field: self._values[key]
                                   for key, field in _GROUPS[f"rounds.{name}"]})
                for name in _ROUND_NAMES}


# ---------------------------------------------------------------------------
# the schema


_DENSITY_RE = re.compile(r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(cm\^-3|m\^-3)$")


def _number(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(key, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, inf, or an int no float holds
        raise ConfigError(key, f"must be finite, got {value!r}")
    return float(value)


def _integer(key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(key, f"expected an integer, got {value!r}")
    return value


def _text(key, value):
    return str(value)


def _density(key, value):
    """A number, or text with an ``m^-3`` or ``cm^-3`` unit, in m^-3.

    The alias is resolved here so that the echoed config (and hence every
    artifact) is identical across alias spellings.
    """
    if isinstance(value, str):
        match = _DENSITY_RE.match(value.strip())
        if not match:
            raise ConfigError(key, f"cannot parse density {value!r} (units: m^-3, cm^-3)")
        value = float(match.group(1)) * (1e6 if match.group(2) == "cm^-3" else 1.0)
    return _number(key, value)


class _Ref(str):
    """A default that is the value of the key it names."""


class _Later(str):
    """A default given by no value here; the text says what computes it."""


_REQUIRED = _Later("required")


def _bound(text):
    """One interval bound: a number, ``inf`` or an integer power such as ``2^22``."""
    base, _, power = text.partition("^")
    return int(base) ** int(power) if power else float(text)


def _reader(key, kind, allowed):
    """``raw -> value`` for one key: ``kind(key, raw)``, then a check of ``allowed``."""
    if not allowed:
        return functools.partial(kind, key)
    choices = low = high = None
    if allowed[0] in "[(":
        # An open bound becomes the nearest closed one: the next integer for
        # an integer key, the next float for a number.
        low, high = (_bound(text) for text in allowed[1:-1].split(", "))
        if kind is _integer:
            low, high = low + (allowed[0] == "("), high - (allowed[-1] == ")")
        else:
            low = low if allowed[0] == "[" else math.nextafter(low, math.inf)
            high = high if allowed[-1] == "]" else math.nextafter(high, -math.inf)
    else:
        choices = allowed.split(" | ")

    def read(raw):
        value = kind(key, raw)
        if not (value in choices if choices else low <= value <= high):
            rule = "be one of" if choices else "lie in"
            raise ConfigError(key, f"must {rule} {allowed}, got {value!r}")
        return value

    return read


class _Key:
    """One schema row.

    ``read(raw)`` returns the checked value: ``kind(key, raw)`` reads it and
    ``allowed`` bounds it, as interval text such as ``[0, 1)``, choices such
    as ``json | csv``, or None for any value of the kind.  ``field`` names
    the value in the dataclass its group builds; it defaults to the key's
    last part.
    """

    def __init__(self, key, kind, default, allowed, doc, field=None):
        self.kind, self.default, self.allowed, self.doc = kind, default, allowed, doc
        self.field, self.section = field or key.rpartition(".")[2], key.partition(".")[0]
        self.read = _reader(key, kind, allowed)
        # A key not given reads as the value of the key ``ref``, else as ``value``.
        self.ref = default if isinstance(default, _Ref) else None
        self.value = None if isinstance(default, (_Ref, _Later)) else default


_ROUND_NAMES = ("entangle1", "entangle2", "local1", "local2")

_SCHEMA = {key: _Key(key, *row) for key, row in {
    # key: (kind, default, allowed, doc[, field])
    "physical.lambda0": (_number, _REQUIRED, "(0, inf)", "wavelength, m"),
    "physical.length": (_number, _REQUIRED, "(0, inf)", "ensemble length, m", "L"),
    "physical.area": (_number, _Later("lambda0 * length"), "(0, inf)", "cross section, m^2", "A"),
    "physical.rho": (_density, _REQUIRED, "(0, inf)", "density, m^-3 or 'cm^-3' suffix"),
    "physical.delta": (_number, _REQUIRED, "(0, inf)", "detuning, rad/s", "Delta"),
    "physical.gamma": (_number, _REQUIRED, "[0, inf)", "decay rate, rad/s"),
    "physical.gamma_prime": (_number, _REQUIRED, "[0, inf)", "cross decay rate, rad/s"),
    "physical.na": (_number, _Later("rho * area * length / 2"), "(0, inf)", "half atom number",
                    "Na"),
    "physical.np": (_number, _Later("na"), "(0, inf)", "half photon number", "Np"),
    "physical.g_coupling": (_number, _Later("from dipole"), "(0, inf)", "coupling |g|"),
    "physical.dipole": (_number, _Later("from gamma"), "(0, inf)", "dipole moment, C m"),
    "channel.kappa": (_number, _REQUIRED, "[0, inf)", "interaction strength"),
    "channel.eps_p": (_number, 0.0, "[0, 1)", "light damping"),
    "channel.eps_a": (_number, 0.0, "[0, 1)", "atomic damping"),
    "noise.eta_t": (_number, 0.0, "[0, 1)", "transmission loss 1->2"),
    "noise.eta_t_local": (_number, _Ref("noise.eta_t"), "[0, 1)", "transmission loss 1->3"),
    "noise.eta_d": (_number, 0.0, "[0, 1)", "detector inefficiency"),
    **{f"rounds.{name}.{field}": (_number, _Ref(default), allowed, f"{name} round's {field}")
       for name in _ROUND_NAMES for field, default, allowed in (
           ("kappa", "channel.kappa", "[0, inf)"),
           ("eps_p", "channel.eps_p", "[0, 1)"),
           ("eps_a", "channel.eps_a", "[0, 1)"),
           ("eta_t", "noise.eta_t_local" if name.startswith("local") else "noise.eta_t", "[0, 1)"),
           ("eta_d", "noise.eta_d", "[0, 1)"),
       )},
    "protocol.kappa1_multiplier": (_number, 10.0, "[0, inf)", "large-kappa factor for sweeps"),
    "input.x": (_number, 0.0, None, "teleport input mean, x"),
    "input.p": (_number, 0.0, None, "teleport input mean, p"),
    "gain.x": (_number, _REQUIRED, None, "manual displacement gain (calibrated if no gain.*)"),
    "gain.p": (_number, _REQUIRED, None, "manual displacement gain"),
    "sweep.param": (_text, "kappa2", "kappa2", "swept parameter"),
    "sweep.min": (_number, _REQUIRED, "(0, inf)", "lower end of the sweep", "minimum"),
    "sweep.max": (_number, _REQUIRED, "(0, inf)", "upper end of the sweep", "maximum"),
    "sweep.steps": (_integer, _REQUIRED, "[2, 10^6]", "grid size; cap: 2.4-3.5 s, 76 MB"),
    "mb.min_grid": (_integer, MbSpec.min_grid, "[1, inf)", "smallest dyadic grid"),
    "mb.max_grid": (_integer, MbSpec.max_grid, "[1, 2^22]", "largest grid; cap: 0.1-0.2 s, 29 MB"),
    "mb.tol_kappa": (_number, MbSpec.tol_kappa, "[0, inf)", "mb-validate tolerance on kappa"),
    "mb.tol_eps": (_number, MbSpec.tol_eps, "[0, inf)", "mb-validate tolerance on eps"),
    "seed": (_integer, 0, "[0, 2^64)", "seed of the run's one outcome stream"),
    "trials": (_integer, 1, "[1, 10^5]", "independent runs; cap (teleport): 0.2-0.6 s, 58 MB"),
    "output.path": (_text, _Later("stdout"), None, "artifact path"),
    "output.format": (_text, "json", "json | csv", "artifact format"),
}.items()}

# (key, field) pairs and required keys by group: the key without its last
# part (``sweep``, ``rounds.local1``).
_GROUPS, _REQUIRED_KEYS = {}, {}
for _key, _row in _SCHEMA.items():
    _GROUPS.setdefault(_key.rpartition(".")[0], []).append((_key, _row.field))
    if _row.default is _REQUIRED:
        _REQUIRED_KEYS.setdefault(_key.rpartition(".")[0], []).append(_key)
_DEFAULTS = {key: row.value for key, row in _SCHEMA.items()}
# Defaults that name another key, filled in schema order: each names an earlier key.
_REFS = [(key, row.ref) for key, row in _SCHEMA.items() if row.ref]


def _key_table():
    """The docstring's key table: key, allowed values, default and meaning per row."""
    lines = []
    for key, row in _SCHEMA.items():
        default = f"= {row.ref}" if row.ref else str(row.default)
        lines.append(f"    {key:<27} {row.allowed or '':<11} {default:<24} {row.doc}")
    return "\n".join(lines) + "\n"


__doc__ = (__doc__ or "") + _key_table()


def _fields(values, mapping, group):
    """A group's values by the field names of the dataclass it builds.

    Each required key of the group must be in ``mapping``.
    """
    for key in _REQUIRED_KEYS.get(group, ()):
        if key not in mapping:
            raise ConfigError(key, f"required when any {group}.* key is given")
    return {field: values[key] for key, field in _GROUPS[group]}


def resolve_run_config(mapping):
    """Validate a flat mapping and build the resolved RunConfig."""
    values, given = dict(_DEFAULTS), set()
    for key, raw in mapping.items():
        row = _SCHEMA.get(key)
        if row is None:
            raise ConfigError(key, "unknown key")
        values[key] = row.read(raw)
        given.add(row.section)

    channel = ChannelParams(**_fields(values, mapping, "channel")) if "channel" in given else None
    physical = None
    if "physical" in given:
        fields = _fields(values, mapping, "physical")
        try:
            physical = PhysicalParams(**fields)
            derived = derive_channel(physical)
        except ValueError as exc:
            raise ConfigError("physical", str(exc)) from None
        for key, field in _GROUPS["channel"] if channel is not None else ():
            want, got = getattr(derived, field), getattr(channel, field)
            if not math.isclose(want, got, rel_tol=1e-6, abs_tol=1e-306):
                raise ConfigError(
                    key,
                    f"inconsistent with physical parameters: "
                    f"derived {want:.9e}, configured {got:.9e}",
                )
        channel = derived
    if channel is None:
        raise ConfigError(
            "channel", "a parameter source is required: physical.* or channel.*"
        )
    # The rounds' defaults read the channel in use, derived or configured.
    values.update((key, getattr(channel, field)) for key, field in _GROUPS["channel"])
    for key, ref in _REFS:
        if key not in mapping:
            values[key] = values[ref]

    gain = tuple(_fields(values, mapping, "gain").values()) if "gain" in given else None
    sweep = SweepSpec(**_fields(values, mapping, "sweep")) if "sweep" in given else None
    if sweep is not None and not sweep.minimum < sweep.maximum:
        raise ConfigError("sweep.min", "need sweep.min < sweep.max")
    mb = MbSpec(**_fields(values, mapping, "mb"))
    if mb.max_grid < mb.min_grid:
        raise ConfigError("mb.min_grid", "need mb.min_grid <= mb.max_grid")

    # The artifact destination does not affect the computation, so it is
    # left out of the echo; everything else is reproducibility input, as
    # given but for the density, which is echoed in m^-3.
    echo = {k: v for k, v in sorted(mapping.items()) if k != "output.path"}
    if "physical.rho" in echo:
        echo["physical.rho"] = values["physical.rho"]
    return RunConfig(
        channel=channel,
        physical=physical,
        input_mean=(values["input.x"], values["input.p"]),
        gain=gain,
        kappa1_multiplier=values["protocol.kappa1_multiplier"],
        eta_t=values["noise.eta_t"],
        eta_t_local=values["noise.eta_t_local"],
        eta_d=values["noise.eta_d"],
        sweep=sweep,
        mb=mb,
        seed=values["seed"],
        trials=values["trials"],
        out_path=values["output.path"],
        out_format=values["output.format"],
        echo=echo,
        _values=values,
    )
