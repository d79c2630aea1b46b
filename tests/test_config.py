"""Config layer: JSON shapes and paths here, domain rules in the library.

Property tests (``hypothesis``, derandomized) draw configs from the accepted
domain: broad finite floats, and configs built across scales so that the
packet fits the grid.  Loading round-trips through ``config_to_dict``, and
every CLI path ends with status 0 or 2 without writing a non-finite value.
"""
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dirac_toa import cli
from dirac_toa.arrival import PacketSpec
from dirac_toa.config import (
    DEFAULT_CONFIG, ConfigError, config_from_dict, config_to_dict,
)
from dirac_toa.eigenfunctions import ToaEigenfunction, _time_lattice
from dirac_toa.grids import build_grid

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
spin = st.sampled_from([0.5, -0.5])
sign = st.sampled_from([1, -1])


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def unit_pair(draw):
    theta = draw(st.floats(0.0, math.pi / 2))
    a, b = draw(st.floats(-math.pi, math.pi)), draw(st.floats(-math.pi, math.pi))
    c, s = math.cos(theta), math.sin(theta)
    return [c * math.cos(a), c * math.sin(a)], [s * math.cos(b), s * math.sin(b)]


@st.composite
def ordered(draw, low):
    a = draw(low)
    b = draw(finite.filter(lambda v: v > a and math.isfinite(v - a)))
    return a, b


eigen_item = st.one_of(
    st.fixed_dictionaries({"family": st.just("time"), "t": finite, "lam": sign, "s": spin}),
    st.fixed_dictionaries({"family": st.just("position"), "x": finite, "lam": sign, "s": spin}),
    st.fixed_dictionaries(
        {"family": st.just("event"), "x": finite.filter(bool), "b": sign, "s": spin}
    ),
)


@st.composite
def configs(draw, fitting):
    """An accepted config.  With ``fitting`` the packet fits the grid at a
    scale drawn from 1e-200 to 1e200; without it every float is free."""
    c_plus, c_minus = draw(unit_pair())
    if fitting:
        p_max = draw(log_uniform(-200, 200))
        p_min = p_max * draw(log_uniform(-12, -0.05))
        frac = draw(st.floats(0.05, 0.95))
        p0 = p_max * frac * draw(st.sampled_from([1.0, -1.0]))
        sigma_p = p_max * min(frac, 1.0 - frac) / 6.0 * draw(log_uniform(-6, 0))
        t_min = -draw(st.one_of(st.just(0.0), log_uniform(-10, 10)))
        t_max = t_min + draw(log_uniform(-6, 12))
        mass = draw(st.one_of(st.just(0.0), log_uniform(-300, 308)))
        x0 = draw(st.one_of(st.just(0.0), log_uniform(-10, 10).map(lambda v: -v), finite))
    else:
        p_min, p_max = draw(ordered(positive))
        p0, sigma_p, x0 = draw(finite), draw(positive), draw(finite)
        t_min, t_max = draw(ordered(finite))
        mass = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, allow_infinity=False)))
    return {
        "mass": mass,
        "grid": {
            "p_min": p_min, "p_max": p_max,
            "n_points": draw(st.integers(8, 48)), "deriv_order": draw(st.sampled_from([2, 4])),
        },
        "packet": {
            "x0": x0, "p0": p0, "sigma_p": sigma_p,
            "c_plus": c_plus, "c_minus": c_minus, "s": draw(spin),
        },
        "time": {"t_min": t_min, "t_max": t_max, "n_t": draw(st.integers(2, 64))},
        "seed": draw(st.integers(0, 2**64)),
        "eigen": draw(st.lists(eigen_item, max_size=3)),
        "limits": {
            "ratios": draw(st.lists(st.one_of(positive, log_uniform(-6, 0)), min_size=2, max_size=5)),
            "e_max_factor": draw(st.one_of(
                st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
                log_uniform(0.01, 3),
            )),
        },
    }


any_config = st.one_of(configs(fitting=False), configs(fitting=True))
PROPERTY = settings(
    derandomize=True, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def load_quietly(data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the |p0| <= 3 sigma_p warning
        return config_from_dict(data)


@settings(PROPERTY, max_examples=200)
@given(any_config)
def test_config_to_dict_inverts_config_from_dict(data):
    cfg = load_quietly(data)
    assert isinstance(cfg.packet, PacketSpec)
    assert all(isinstance(f, ToaEigenfunction) for f in cfg.eigen)
    echo = config_to_dict(cfg)
    assert load_quietly(echo) == cfg
    assert load_quietly(json.loads(json.dumps(echo, allow_nan=False))) == cfg


def test_default_config_round_trips_exactly():
    assert config_to_dict(config_from_dict(DEFAULT_CONFIG)) == DEFAULT_CONFIG


@pytest.mark.parametrize("command, examples", [("arrival", 100), ("eigen", 100), ("limits", 60)])
def test_cli_exits_0_or_2_and_writes_only_finite_values(assert_finite_outputs, command, examples):
    @settings(PROPERTY, max_examples=examples)
    @given(any_config)
    def run(data):
        with tempfile.TemporaryDirectory() as work:
            path, out = os.path.join(work, "cfg.json"), os.path.join(work, "out")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                assert cli.main([command, "--config", path, "--out", out]) in (0, 2)
            assert_finite_outputs(out)

    run()


def with_field(path, value):
    """DEFAULT_CONFIG with the field at the dotted ``path`` set to ``value``."""
    data = json.loads(json.dumps(DEFAULT_CONFIG))
    *head, last = path.split(".")
    node = data
    for key in head:
        node = node[int(key)] if key.isdigit() else node[key]
    node[last] = value
    return data


def _rejection(call):
    """The message of the ``ValueError`` that ``call()`` raises, or None."""
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            call()
    except ValueError as exc:
        return str(exc)
    return None


@settings(PROPERTY, max_examples=300)
@given(
    p_min=st.one_of(finite, st.sampled_from([0.0, 1e-300, 5e-324])),
    p_max=st.one_of(finite, st.sampled_from([1e-3, 1.0, 1e300])),
    n_points=st.integers(-2, 40),
    deriv_order=st.integers(0, 6),
)
def test_config_rejects_a_grid_exactly_when_build_grid_does(p_min, p_max, n_points, deriv_order):
    grid = {"p_min": p_min, "p_max": p_max, "n_points": n_points, "deriv_order": deriv_order}
    library = _rejection(lambda: build_grid(**grid))
    loaded = _rejection(lambda: config_from_dict({**DEFAULT_CONFIG, "grid": grid}))
    assert loaded == (None if library is None else f"config.grid: {library}")


@settings(PROPERTY, max_examples=300)
@given(t_min=finite, t_max=finite, n_t=st.integers(-2, 40))
@example(t_min=-1e308, t_max=1e308, n_t=11)
@example(t_min=0.0, t_max=5e-324, n_t=2)
def test_config_rejects_a_window_exactly_when_the_time_lattice_does(t_min, t_max, n_t):
    library = _rejection(lambda: _time_lattice((t_min, t_max), n_t))
    time = {"t_min": t_min, "t_max": t_max, "n_t": n_t}
    loaded = _rejection(lambda: config_from_dict({**DEFAULT_CONFIG, "time": time}))
    assert loaded == (None if library is None else f"config.time: {library}")


@pytest.mark.parametrize(
    "path, value, message",
    [
        ("packet.sigma_p", 0.0, "config.packet: sigma_p must be > 0"),
        ("packet.c_minus", [1.0, 0.0], "config.packet: |c+|^2 + |c-|^2 must be 1"),
        ("packet.s", 0.25, "config.packet: spin label must be +0.5 or -0.5"),
        ("eigen.0.s", -1.5, "config.eigen[0]: spin label must be +0.5 or -0.5"),
        ("eigen.1.lam", 2, "config.eigen[1]: sign lam must be +1 or -1"),
        ("eigen.2.b", 0, "config.eigen[2]: sign b must be +1 or -1"),
        ("eigen.2.x", 0.0, "config.eigen[2]: x = 0 degenerates the event family"),
        ("eigen.0.lam", 1.0, "config.eigen[0].lam: expected an integer"),
    ],
)
def test_library_rules_are_reported_with_their_path(path, value, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict(with_field(path, value))
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "path, value, message",
    [
        # |c|**2 raised an OverflowError, a traceback through the CLI
        pytest.param(
            "packet.c_minus", [0.0, -1e308], "config.packet: |c+|^2 + |c-|^2 must be 1, got inf",
            id="c_minus-1e308",
        ),
        # an unhashable family raised a TypeError
        pytest.param(
            "eigen.0.family", ["time"],
            "config.eigen[0].family: must be 'time', 'position' or 'event', got ['time']",
            id="family-list",
        ),
        pytest.param(
            "eigen.2.family", {},
            "config.eigen[2].family: must be 'time', 'position' or 'event', got {}",
            id="family-object",
        ),
    ],
)
def test_a_value_that_breaks_a_rule_is_reported_by_the_rule(path, value, message):
    with pytest.raises(ConfigError) as err:
        config_from_dict(with_field(path, value))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "path, where",
    [
        ("cminus", "config.cminus"),
        ("grid.points", "config.grid.points"),
        ("packet.cminus", "config.packet.cminus"),
        ("time.dt", "config.time.dt"),
        ("eigen.0.x", "config.eigen[0].x"),
        ("eigen.2.lam", "config.eigen[2].lam"),
        ("limits.ratio", "config.limits.ratio"),
    ],
)
def test_unknown_keys_are_rejected(path, where):
    with pytest.raises(ConfigError, match=r"unknown field") as err:
        config_from_dict(with_field(path, 1.0))
    assert str(err.value).startswith(f"{where}: unknown field")


@pytest.mark.parametrize("section, key", [("packet", "sigma_p"), ("grid", "p_min"), ("time", "n_t")])
def test_missing_required_field_is_reported_with_its_path(section, key):
    data = json.loads(json.dumps(DEFAULT_CONFIG))
    del data[section][key]
    with pytest.raises(ConfigError) as err:
        config_from_dict(data)
    assert str(err.value) == f"config.{section}.{key}: missing required field"
