import collections.abc

import pytest

from spinlight.config import (
    ConfigError,
    apply_env_overrides,
    parse_config_text,
    resolve_run_config,
    serialize_config,
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


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config_text("BadKey = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")


def test_serialize_parse_round_trip_is_idempotent():
    mapping = parse_config_text(IDEAL)
    canon = serialize_config(mapping)
    assert parse_config_text(canon) == mapping
    assert serialize_config(parse_config_text(canon)) == canon


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "key",
    ["channel.kappa", "channel.eps_p", "sweep.max", "gain.x", "input.p",
     "noise.eta_t", "rounds.local2.kappa", "physical.rho", "mb.tol_eps"],
)
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
