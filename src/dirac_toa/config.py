"""Run configuration: JSON in, the library's own objects out.

``config_from_dict`` is the one place where outside input becomes library
objects.  This module parses JSON shapes and types (objects, required
fields, finite numbers, integers, [re, im] pairs), rejects unknown keys and
checks the fields that no library rule covers (mass sign, limit scan).
``RunConfig`` rejects a seed < 0, which numpy's rng refuses, also when the
CLI's ``--seed`` replaces it.  The library states the domain rules:
``PacketSpec``, the eigenfunction constructors, and the rules of
``build_grid`` and ``_time_lattice``, called here without building anything.
``at_path`` re-raises their ``ValueError`` as a ``ConfigError`` that starts
with the JSON path; the CLI reports it with exit status 2.
``config_to_dict`` is the inverse of ``config_from_dict`` and the config
echo of every sidecar.  Loading does no numerical work, but ``PacketSpec``
raises its |p0| <= 3 sigma_p warning here.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from .arrival import PacketSpec
from .eigenfunctions import _window_rule, event_eigenfunction, position_eigenfunction, time_eigenfunction
from .grids import _grid_rule

__all__ = [
    "ConfigError", "RunConfig", "at_path", "load_config", "config_from_dict",
    "config_to_dict", "DEFAULT_CONFIG",
]


class ConfigError(ValueError):
    """Invalid configuration: bad JSON, a bad field, or a config the library rejects."""


@contextmanager
def at_path(where: str):
    """Re-raise a library ``ValueError`` as a ``ConfigError`` at JSON path ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


DEFAULT_CONFIG = {
    "mass": 1.0,
    "grid": {"p_min": 1e-3, "p_max": 10.0, "n_points": 256, "deriv_order": 4},
    "packet": {
        "x0": -10.0,
        "p0": 2.0,
        "sigma_p": 0.1,
        "c_plus": [1.0, 0.0],
        "c_minus": [0.0, 0.0],
        "s": 0.5,
    },
    "time": {"t_min": -20.0, "t_max": 43.0, "n_t": 1261},
    "seed": 20240810,
    "eigen": [
        {"family": "time", "t": 2.0, "lam": 1, "s": 0.5},
        {"family": "position", "x": 2.0, "lam": 1, "s": 0.5},
        {"family": "event", "x": 3.0, "b": 1, "s": 0.5},
    ],
    "limits": {
        "ratios": [1e-1, 3.16e-2, 1e-2, 3.16e-3, 1e-3, 3.16e-4, 1e-4],
        "e_max_factor": 10.0,
    },
}

# eigen family -> (constructor, name of the t or x label, name of the sign label)
_FAMILIES = {
    "time": (time_eigenfunction, "t", "lam"),
    "position": (position_eigenfunction, "x", "lam"),
    "event": (event_eigenfunction, "x", "b"),
}


@dataclass(frozen=True)
class GridConfig:
    p_min: float
    p_max: float
    n_points: int
    deriv_order: int


@dataclass(frozen=True)
class TimeConfig:
    t_min: float
    t_max: float
    n_t: int


@dataclass(frozen=True)
class LimitsConfig:
    ratios: tuple
    e_max_factor: float


@dataclass(frozen=True)
class RunConfig:
    mass: float
    grid: GridConfig
    packet: PacketSpec
    time: TimeConfig
    seed: int
    eigen: tuple  # of ToaEigenfunction
    limits: LimitsConfig

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"config.seed: must be >= 0, got {self.seed}")


def _object(d, path: str, required, optional=()) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in d:
        if key not in required + optional:
            raise ConfigError(f"{path}.{key}: unknown field")
    for key in required:
        if key not in d:
            raise ConfigError(f"{path}.{key}: missing required field")
    return d


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return x


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _complex_pair(value, path: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: expected [re, im], got {value!r}")
    return complex(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


def _grid_from(d, path: str) -> GridConfig:
    d = _object(d, path, ("p_min", "p_max", "n_points", "deriv_order"))
    p_min = _number(d["p_min"], f"{path}.p_min")
    p_max = _number(d["p_max"], f"{path}.p_max")
    n_points = _integer(d["n_points"], f"{path}.n_points")
    order = _integer(d["deriv_order"], f"{path}.deriv_order")
    with at_path(path):
        _grid_rule(p_min, p_max, n_points, order)
    return GridConfig(p_min, p_max, n_points, order)


def _packet_from(d, path: str, mass: float) -> PacketSpec:
    d = _object(d, path, ("x0", "p0", "sigma_p"), ("c_plus", "c_minus", "s"))
    x0 = _number(d["x0"], f"{path}.x0")
    p0 = _number(d["p0"], f"{path}.p0")
    sigma_p = _number(d["sigma_p"], f"{path}.sigma_p")
    c_plus = _complex_pair(d.get("c_plus", [1.0, 0.0]), f"{path}.c_plus")
    c_minus = _complex_pair(d.get("c_minus", [0.0, 0.0]), f"{path}.c_minus")
    s = _number(d.get("s", 0.5), f"{path}.s")
    with at_path(path):
        return PacketSpec(mass, x0, p0, sigma_p, c_plus, c_minus, s)


def _time_from(d, path: str) -> TimeConfig:
    d = _object(d, path, ("t_min", "t_max", "n_t"))
    t_min = _number(d["t_min"], f"{path}.t_min")
    t_max = _number(d["t_max"], f"{path}.t_max")
    n_t = _integer(d["n_t"], f"{path}.n_t")
    with at_path(path):
        _window_rule(t_min, t_max, n_t)
    return TimeConfig(t_min, t_max, n_t)


def _eigen_from(items, path: str, mass: float) -> tuple:
    if not isinstance(items, list):
        raise ConfigError(f"{path}: expected a list of label objects")
    out = []
    for i, d in enumerate(items):
        here = f"{path}[{i}]"
        if not isinstance(d, dict):
            raise ConfigError(f"{here}: expected an object")
        family = d.get("family")
        if family not in _FAMILIES:
            raise ConfigError(
                f"{here}.family: must be 'time', 'position' or 'event', got {family!r}"
            )
        build, key, sign = _FAMILIES[family]
        _object(d, here, ("family", key), (sign, "s"))
        label = _number(d[key], f"{here}.{key}")
        sign_value = _integer(d.get(sign, 1), f"{here}.{sign}")
        s = _number(d.get("s", 0.5), f"{here}.s")
        with at_path(here):
            out.append(build(label, sign_value, s, mass))
    return tuple(out)


def _limits_from(d, path: str) -> LimitsConfig:
    d = {**DEFAULT_CONFIG["limits"], **_object(d, path, (), ("ratios", "e_max_factor"))}
    ratios = d["ratios"]
    if not isinstance(ratios, list) or len(ratios) < 2:
        raise ConfigError(f"{path}.ratios: expected a list of at least two ratios")
    vals = tuple(_number(r, f"{path}.ratios[{i}]") for i, r in enumerate(ratios))
    if any(r <= 0.0 for r in vals):
        raise ConfigError(f"{path}.ratios: all ratios must be > 0")
    factor = _number(d["e_max_factor"], f"{path}.e_max_factor")
    if factor <= 1.0:
        raise ConfigError(f"{path}.e_max_factor: must be > 1")
    return LimitsConfig(vals, factor)


def config_from_dict(data: dict) -> RunConfig:
    """Parse a JSON-shaped dict; raises ``ConfigError`` with the field's path."""
    data = _object(data, "config", ("mass", "grid", "packet", "time"), ("seed", "eigen", "limits"))
    mass = _number(data["mass"], "config.mass")
    if mass < 0.0:
        raise ConfigError(f"config.mass: must be >= 0, got {mass}")
    grid = _grid_from(data["grid"], "config.grid")
    packet = _packet_from(data["packet"], "config.packet", mass)
    time = _time_from(data["time"], "config.time")
    seed = _integer(data.get("seed", DEFAULT_CONFIG["seed"]), "config.seed")
    eigen = _eigen_from(data.get("eigen", DEFAULT_CONFIG["eigen"]), "config.eigen", mass)
    limits = _limits_from(data.get("limits", DEFAULT_CONFIG["limits"]), "config.limits")
    return RunConfig(
        mass=mass, grid=grid, packet=packet, time=time,
        seed=seed, eigen=eigen, limits=limits,
    )


def config_to_dict(cfg: RunConfig) -> dict:
    """The JSON form of ``cfg``: ``config_from_dict(config_to_dict(cfg)) == cfg``."""
    packet = {k: v for k, v in asdict(cfg.packet).items() if k != "m"}
    for key in ("c_plus", "c_minus"):
        packet[key] = [packet[key].real, packet[key].imag]
    return {
        "mass": cfg.mass,
        "grid": asdict(cfg.grid),
        "packet": packet,
        "time": asdict(cfg.time),
        "seed": cfg.seed,
        "eigen": [{"family": f.family, **f.labels} for f in cfg.eigen],
        "limits": {"ratios": list(cfg.limits.ratios), "e_max_factor": cfg.limits.e_max_factor},
    }


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past the int-conversion limit
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(data)
