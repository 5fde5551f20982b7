"""errors.require, the one check of every numeric setting, through each
class that takes such settings."""

import math

import numpy as np
import pytest

from streamdag.agents import Agent
from streamdag.engine import OnlineConfig
from streamdag.errors import ConfigError, require
from streamdag.rca import RwrConfig
from streamdag.synth import SynthConfig

INF = math.inf


def _online(**kw):
    return OnlineConfig(mode="marlin-m", **kw)


def _synth(**kw):
    return SynthConfig(**{"d": 4, **kw})


def _rwr(**kw):
    return RwrConfig([1.0, 2.0], **kw)


def _agent(**kw):
    return Agent(**{"kind": "specific", "d": 3, "workers": 1, "width": 16, "lr": 0.01,
                    "gamma": 0.99, "seed_seq": np.random.SeedSequence(0), **kw})


# (constructor, field, interval, integer, one value past each finite or open end)
SETTINGS = [
    (_online, "episodes_per_batch", "[1, inf)", True, [0, INF]),
    (_online, "workers", "[1, inf)", True, [0, INF]),
    (_online, "seed", "[0, inf)", True, [-1, INF]),
    (_online, "beta", "[0, 1]", False, [-1e-12, 1.0 + 1e-12]),
    (_online, "xi_threshold", "[0, 1]", False, [-1e-12, 1.0 + 1e-12]),
    (_online, "penalty_lambda1", "[0, inf)", False, [-1e-12, INF]),
    (_online, "penalty_lambda2", "[0, inf)", False, [-1e-12, INF]),
    (_online, "lr", "(0, inf)", False, [0.0, INF]),
    (_online, "gamma", "[0, 1]", False, [-1e-12, 1.0 + 1e-12]),
    (_synth, "d", "[2, inf)", True, [1, INF]),
    (_synth, "m", "[2, inf)", True, [1, INF]),
    (_synth, "e", "[0, inf)", False, [-1e-12, INF]),
    (_synth, "er_expected_degree", "(0, inf]", False, [0.0]),
    (_synth, "n_per_state", "[1, inf)", True, [0, INF]),
    (_synth, "batch_size", "[1, 500]", True, [0, 501]),
    (_synth, "seed", "[0, inf)", True, [-1, INF]),
    (_synth, "noise_scale", "(0, inf)", False, [0.0, INF]),
    (_rwr, "restart_prob", "(0, 1)", False, [0.0, 1.0]),
    (_agent, "lr", "(0, inf)", False, [0.0, INF]),
    (_agent, "gamma", "[0, 1]", False, [-1e-12, 1.0 + 1e-12]),
]

CASES = [
    pytest.param(make, field, interval, integer, value,
                 id=f"{make.__name__[1:]}.{field}={value!r}")
    for make, field, interval, integer, past in SETTINGS
    for value in ["0.5", None, True, math.nan, *past]
]


@pytest.mark.parametrize("make,field,interval,integer,value", CASES)
def test_every_numeric_setting_rejects_a_non_number_or_a_value_outside(
        make, field, interval, integer, value):
    """A string, None, a bool, NaN and a value past either end raise
    ConfigError naming the field; an integer field names that first."""
    not_integer = isinstance(value, bool) or not isinstance(value, int)
    want = "an integer" if integer and not_integer else f"in {interval}"
    with pytest.raises(ConfigError) as info:
        make(**{field: value})
    assert str(info.value) == f"{field} must be {want}, got {value!r}"


@pytest.mark.parametrize("make,field,interval", [
    pytest.param(make, field, interval, id=f"{make.__name__[1:]}.{field}")
    for make, field, interval, _, _ in SETTINGS if interval.endswith(("inf)", "inf]"))
])
def test_every_setting_open_to_inf_rejects_an_integer_beyond_float_range(make, field, interval):
    """Python orders 10**400 below inf, but no float holds it: invalid input,
    as inf is where the interval excludes it."""
    with pytest.raises(ConfigError) as info:
        make(**{field: 10**400})
    assert str(info.value) == f"{field} must be in {interval}, got {10**400!r}"


@pytest.mark.parametrize("make,field,value", [
    (_online, "beta", 0), (_online, "beta", 1.0), (_online, "gamma", 0.0),
    (_online, "gamma", 1), (_online, "xi_threshold", 1.0), (_online, "seed", 0),
    (_online, "penalty_lambda1", 0.0), (_online, "episodes_per_batch", np.int64(1)),
    (_synth, "er_expected_degree", INF), (_synth, "e", 0), (_synth, "batch_size", 500),
    (_synth, "noise_scale", np.float32(0.5)), (_rwr, "restart_prob", 0.999),
    (_agent, "gamma", 0.0), (_agent, "gamma", 1.0), (_agent, "lr", 1e-300),
])
def test_closed_ends_and_numpy_numbers_are_accepted(make, field, value):
    assert getattr(make(**{field: value}), field) == value


def test_require_reads_each_bracket():
    for interval, inside, outside in (("[0, 1]", (0, 1), (-1, 2)),
                                      ("(0, 1)", (0.5,), (0, 1)),
                                      ("(0, inf]", (INF, 1e300), (0,)),
                                      ("(-inf, 0)", (-1,), (-INF, 0)),
                                      ("[-inf, 0]", (-INF, 0), (1,))):
        for v in inside:
            require("x", v, interval)
        for v in outside:
            with pytest.raises(ConfigError, match=r"^x must be in "):
                require("x", v, interval)
    with pytest.raises(ConfigError, match=r"^x must be an integer, got 2\.0$"):
        require("x", 2.0, "[0, 3]", integer=True)
