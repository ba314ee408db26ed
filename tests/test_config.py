import collections.abc
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinlight import config
from spinlight.config import (
    ConfigError,
    apply_env_overrides,
    parse_config_text,
    resolve_run_config,
)

IDEAL = """
# ideal operating point
channel.kappa = 5.0
seed = 42
trials = 3
output.format = csv
"""

PHYSICAL = """
physical.lambda0 = 6.283185307179586e-07
physical.length = 0.02
physical.rho = 5e12 cm^-3
physical.gamma = 3.141592653589793e7
physical.gamma_prime = 3.141592653589793e7
physical.delta = 9.42477796076938e9
"""


def test_parse_basic_types():
    mapping = parse_config_text("a = 1\nb = 2.5\nc = true\nd = hello\n")
    assert mapping == {"a": 1, "b": 2.5, "c": True, "d": "hello"}


def test_a_text_key_keeps_its_text():
    # 2024.10 is the path's text in a file and in a variable, not 2024.1.
    mapping = parse_config_text("output.path = 2024.10\nsweep.param = 1.50\nseed = 7\n")
    assert mapping == {"output.path": "2024.10", "sweep.param": "1.50", "seed": 7}
    merged = apply_env_overrides({}, {"SPINLIGHT_OUTPUT__PATH": " 2024.10 "})
    assert merged == {"output.path": "2024.10"}


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config_text("BadKey = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")


def test_resolve_ideal_channel():
    cfg = resolve_run_config(parse_config_text(IDEAL))
    assert cfg.channel.kappa == 5.0
    assert cfg.plans["entangle1"].kappa == 5.0
    assert cfg.plans["local2"].eta_t == 0.0
    assert cfg.seed == 42 and cfg.trials == 3
    assert cfg.out_format == "csv"


def test_resolve_physical_with_density_alias():
    cfg = resolve_run_config(parse_config_text(PHYSICAL))
    assert cfg.physical.rho == pytest.approx(5e18)
    assert cfg.channel.kappa == pytest.approx(5.0, rel=1e-6)
    # the echo carries the converted SI value, so artifacts are identical
    # across alias spellings
    assert cfg.echo["physical.rho"] == pytest.approx(5e18)
    si = PHYSICAL.replace("5e12 cm^-3", "5e18")
    cfg_si = resolve_run_config(parse_config_text(si))
    assert cfg_si.echo == cfg.echo


def test_requires_exactly_one_parameter_source():
    with pytest.raises(ConfigError):
        resolve_run_config({"seed": 1})


def test_both_sources_must_agree():
    mapping = parse_config_text(PHYSICAL)
    mapping["channel.kappa"] = 5.0
    mapping["channel.eps_p"] = 1.0 / 120.0
    mapping["channel.eps_a"] = 1.0 / 120.0
    cfg = resolve_run_config(mapping)  # consistent: fine
    assert cfg.channel.kappa == pytest.approx(5.0, rel=1e-6)

    mapping["channel.kappa"] = 4.0
    with pytest.raises(ConfigError) as err:
        resolve_run_config(mapping)
    assert "channel.kappa" in str(err.value)


def test_unknown_key_is_named():
    with pytest.raises(ConfigError) as err:
        resolve_run_config({"channel.kappa": 1.0, "channel.oops": 2})
    assert "channel.oops" in str(err.value)
    with pytest.raises(ConfigError) as err:
        resolve_run_config({"channel.kappa": 1.0, "misc.thing": 2})
    assert "misc.thing" in str(err.value)


def test_env_overrides_and_precedence():
    mapping = parse_config_text(IDEAL)
    merged = apply_env_overrides(
        mapping,
        {
            "SPINLIGHT_SEED": "7",
            "SPINLIGHT_ROUNDS__ENTANGLE1__KAPPA": "2.5",
            "UNRELATED": "x",
        },
    )
    cfg = resolve_run_config(merged)
    assert cfg.seed == 7
    assert cfg.plans["entangle1"].kappa == 2.5
    assert cfg.plans["entangle2"].kappa == 5.0


def test_env_overrides_read_only_prefixed_variables():
    class Environ(collections.abc.Mapping):
        """Holds one override among variables whose values must not be read."""

        names = ("HOME", "SPINLIGHT_SEED", "PATH")

        def __getitem__(self, name):
            if not name.startswith("SPINLIGHT_"):
                raise AssertionError(f"read {name}")
            return "7"

        def __iter__(self):
            return iter(self.names)

        def __len__(self):
            return len(self.names)

    assert apply_env_overrides({}, Environ()) == {"seed": 7}


def test_round_and_noise_defaults():
    mapping = parse_config_text(IDEAL)
    mapping["noise.eta_t"] = 0.2
    mapping["noise.eta_d"] = 0.05
    cfg = resolve_run_config(mapping)
    # local rounds inherit the transmission loss unless overridden
    assert cfg.plans["entangle1"].eta_t == 0.2
    assert cfg.plans["local1"].eta_t == 0.2
    assert cfg.plans["local1"].eta_d == 0.05
    mapping["noise.eta_t_local"] = 0.0
    cfg = resolve_run_config(mapping)
    assert cfg.plans["local1"].eta_t == 0.0
    assert cfg.plans["entangle1"].eta_t == 0.2


def test_sweep_spec_validation():
    mapping = parse_config_text(IDEAL)
    mapping.update({"sweep.min": 0.2, "sweep.max": 10.0, "sweep.steps": 200})
    cfg = resolve_run_config(mapping)
    values = cfg.sweep.values()
    assert len(values) == 200
    assert values[0] == pytest.approx(0.2)
    assert values[-1] == pytest.approx(10.0)

    mapping["sweep.steps"] = 1
    with pytest.raises(ConfigError):
        resolve_run_config(mapping)


def test_invalid_values_are_rejected():
    for key, value in [
        ("seed", -1),
        ("trials", 0),
        ("output.format", "xml"),
        ("noise.eta_t", 1.0),
    ]:
        mapping = parse_config_text(IDEAL)
        mapping[key] = value
        with pytest.raises(ConfigError):
            resolve_run_config(mapping)


FLOAT_KEYS = [key for key, row in config._SCHEMA.items()
              if row.kind in (config._number, config._density)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_values_are_rejected_by_key(key, value):
    base = PHYSICAL if key.startswith("physical.") else IDEAL
    mapping = parse_config_text(base)
    mapping.update({"sweep.min": 0.2, "sweep.max": 10.0, "sweep.steps": 20,
                    "gain.x": 1.0, "gain.p": 1.0})
    mapping[key] = value
    with pytest.raises(ConfigError) as err:
        resolve_run_config(mapping)
    assert err.value.key == key
    assert "must be finite" in str(err.value)


def test_an_integer_beyond_the_float_range_is_rejected_by_key():
    # It would overflow converting to float, which is not a numerical failure.
    with pytest.raises(ConfigError) as err:
        resolve_run_config(parse_config_text("channel.kappa = 1" + "0" * 400))
    assert err.value.key == "channel.kappa"
    assert "must be finite" in str(err.value)


def test_float_keys_keep_the_keys_checked_before_the_schema():
    assert {"channel.kappa", "channel.eps_p", "sweep.max", "gain.x", "input.p", "noise.eta_t",
            "rounds.local2.kappa", "physical.rho", "mb.tol_eps"} < set(FLOAT_KEYS)


def _bound(text):
    base, _, power = text.partition("^")
    return int(base) ** int(power) if power else float(text)


def _edge_cases():
    """(key, value just outside its range, inclusive edge or None) per finite schema bound."""
    cases = []
    for key, row in config._SCHEMA.items():
        if not (row.allowed and row.allowed[0] in "[("):
            continue
        integer = row.kind is config._integer
        low, high = map(_bound, row.allowed[1:-1].split(", "))
        for bound, closed, direction in ((low, row.allowed[0] == "[", -1),
                                         (high, row.allowed[-1] == "]", 1)):
            if math.isinf(bound):
                continue
            if integer:
                bound = int(bound)
            if not closed:
                cases.append((key, bound, None))
            elif integer:
                cases.append((key, bound + direction, bound))
            else:
                cases.append((key, math.nextafter(bound, direction * math.inf), bound))
    return cases


EDGE_CASES = _edge_cases()


def _edge_base(key):
    """A valid mapping in which any inclusive edge of ``key`` resolves."""
    if key.startswith("physical."):
        # A coupling makes the lossless edge physical.gamma = 0 valid.
        return {**parse_config_text(PHYSICAL), "physical.g_coupling": 1e-4}
    return {**parse_config_text(IDEAL), "sweep.min": 0.2, "sweep.max": 10.0,
            "sweep.steps": 20, "mb.min_grid": 1}


@pytest.mark.parametrize("key, outside, edge", EDGE_CASES,
                         ids=[f"{key}-{outside!r}" for key, outside, _ in EDGE_CASES])
def test_bounded_keys_reject_just_outside_and_accept_the_edge(key, outside, edge):
    mapping = _edge_base(key)
    mapping[key] = outside
    with pytest.raises(ConfigError) as err:
        resolve_run_config(mapping)
    assert err.value.key == key
    assert f"must lie in {config._SCHEMA[key].allowed}, got " in str(err.value)
    if edge is not None:
        mapping[key] = edge
        cfg = resolve_run_config(mapping)
        assert cfg.echo[key] == edge


@pytest.mark.parametrize("key, cap", [("trials", 10**5), ("sweep.steps", 10**6),
                                      ("mb.max_grid", 2**22)])
def test_resource_caps(key, cap):
    mapping = parse_config_text(IDEAL)
    mapping.update({"sweep.min": 0.2, "sweep.max": 10.0, "sweep.steps": 20})
    mapping[key] = cap
    resolve_run_config(mapping)  # accepted; nothing of that size is run here
    mapping[key] = cap + 1
    with pytest.raises(ConfigError) as err:
        resolve_run_config(mapping)
    assert err.value.key == key


@pytest.mark.parametrize("mapping, key", [
    ({"channel.eps_p": 0.1}, "channel.kappa"),
    ({"physical.length": 0.02}, "physical.lambda0"),
])
def test_a_missing_required_key_is_named(mapping, key):
    with pytest.raises(ConfigError) as err:
        resolve_run_config(mapping)
    assert err.value.key == key
    assert str(err.value).endswith("required when any " + key.split(".")[0] + ".* key is given")


def test_cross_key_rules_name_their_key():
    for extra, key in [({"sweep.min": 2.0, "sweep.max": 1.0, "sweep.steps": 3}, "sweep.min"),
                       ({"mb.min_grid": 8, "mb.max_grid": 4}, "mb.min_grid")]:
        with pytest.raises(ConfigError) as err:
            resolve_run_config({"channel.kappa": 1.0, **extra})
        assert err.value.key == key


def test_defaults_follow_their_reference_keys():
    # Each default that names a key names an earlier one, so one pass in
    # schema order fills them all.
    keys = list(config._SCHEMA)
    for key, row in config._SCHEMA.items():
        if row.ref:
            assert keys.index(row.ref) < keys.index(key)
    cfg = resolve_run_config({"channel.kappa": 2.0, "channel.eps_a": 0.01,
                              "noise.eta_t_local": 0.3, "noise.eta_d": 0.1})
    assert cfg.plans["local2"] == config.RoundPlan(2.0, 0.0, 0.01, 0.3, 0.1)
    assert cfg.plans["entangle1"] == config.RoundPlan(2.0, 0.0, 0.01, 0.0, 0.1)


def test_docstring_key_table_is_the_schema():
    table = config.__doc__.rpartition("::\n\n")[2].splitlines()
    assert [line.split()[0] for line in table] == list(config._SCHEMA)
    for line, (key, row) in zip(table, config._SCHEMA.items()):
        default = f"= {row.default}" if row.ref else str(row.default)
        assert f" {row.allowed or ''} " in line and f" {default} " in line, line


def _reference_scalar(text):
    """A non-text key's value: a boolean, else int(text), else float(text), else the text."""
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@given(st.text(alphabet="0123456789+-_.eE xinfatyrulsNI\u0660\uff11", max_size=10))
@example("1_000")
@example(" -7 ")
@example("1e3")
@example("-.5")
@example("\u0661\u0662")
def test_a_value_is_read_as_a_boolean_int_float_or_text(text):
    value = config._parse_scalar("channel.kappa", text)
    want = _reference_scalar(text)
    assert type(value) is type(want) and repr(value) == repr(want)
