"""Run configuration: JSON in, the library's own objects out.

The config file is a run's one input, and ``config_from_dict`` the one place
where it becomes library objects.  Each JSON object is parsed by its field
table, name -> parser of one field kind (``_number``, ``_integer``,
``_complex_pair``, ``_ratios``, ``_family``), through ``_fields``, which
first rejects a non-object, an unknown key and a missing required field.
An omitted optional field takes its ``DEFAULT_CONFIG`` value (an eigen
item's sign label 1 and spin 0.5).  This module checks mass >= 0, seed >= 0
(numpy's rng refuses a negative one) and the limit scan; the library states
the domain rules: ``PacketSpec``, the eigenfunction constructors, and the
rules of ``build_grid`` and ``_time_lattice``, called here without building
anything.  ``at_path`` re-raises their ``ValueError`` as a ``ConfigError``
that starts with the JSON path, which the CLI reports with exit status 2; so
too a ``MemoryError`` or ``OverflowError``, since a size the rules accept can
still be too large to build.  ``config_to_dict`` inverts ``config_from_dict``
and is every sidecar's config echo.  ``RunConfig`` and its section records
are ``typing.NamedTuple``s.  Loading does no numerical work, but
``PacketSpec`` raises its |p0| <= 3 sigma_p warning.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict
from typing import NamedTuple

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
    """Re-raise a library ``ValueError``, ``MemoryError`` or ``OverflowError``
    as a ``ConfigError`` at JSON path ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, MemoryError, OverflowError) as exc:
        raise ConfigError(f"{where}: {str(exc) or 'out of memory'}") from exc


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


class GridConfig(NamedTuple):
    p_min: float
    p_max: float
    n_points: int
    deriv_order: int


class TimeConfig(NamedTuple):
    t_min: float
    t_max: float
    n_t: int


class LimitsConfig(NamedTuple):
    ratios: tuple
    e_max_factor: float


class RunConfig(NamedTuple):
    mass: float
    grid: GridConfig
    packet: PacketSpec
    time: TimeConfig
    seed: int
    eigen: tuple  # of ToaEigenfunction
    limits: LimitsConfig


def _object(d, path: str, fields, defaults: dict) -> dict:
    """The object ``d`` at ``path`` over ``fields``, its omitted ``defaults`` filled in."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in d:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field")
    for key in fields:
        if key not in d and key not in defaults:
            raise ConfigError(f"{path}.{key}: missing required field")
    return {**defaults, **d}


def _fields(d, path: str, kinds: dict, defaults: dict) -> list:
    """The fields of object ``d``, each parsed by its kind in the table ``kinds``, in order."""
    d = _object(d, path, kinds, defaults)
    return [parse(d[key], f"{path}.{key}") for key, parse in kinds.items()]


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


def _ratios(value, path: str) -> tuple:
    if not isinstance(value, list) or len(value) < 2:
        raise ConfigError(f"{path}: expected a list of at least two ratios")
    ratios = tuple(_number(r, f"{path}[{i}]") for i, r in enumerate(value))
    if any(r <= 0.0 for r in ratios):
        raise ConfigError(f"{path}: all ratios must be > 0")
    return ratios


def _family(value, path: str) -> str:
    if not isinstance(value, str) or value not in _FAMILIES:
        raise ConfigError(f"{path}: must be 'time', 'position' or 'event', got {value!r}")
    return value


# the field tables of the sections, in the order of the record fields
_GRID = {"p_min": _number, "p_max": _number, "n_points": _integer, "deriv_order": _integer}
_PACKET = {"x0": _number, "p0": _number, "sigma_p": _number, "c_plus": _complex_pair,
           "c_minus": _complex_pair, "s": _number}
_TIME = {"t_min": _number, "t_max": _number, "n_t": _integer}
_LIMITS = {"ratios": _ratios, "e_max_factor": _number}


def _eigen_from(items, path: str, mass: float) -> tuple:
    if not isinstance(items, list):
        raise ConfigError(f"{path}: expected a list of label objects")
    out = []
    for i, d in enumerate(items):
        here = f"{path}[{i}]"
        if not isinstance(d, dict):
            raise ConfigError(f"{here}: expected an object")
        build, key, sign = _FAMILIES[_family(d.get("family"), f"{here}.family")]
        kinds = {"family": _family, key: _number, sign: _integer, "s": _number}
        _, *labels = _fields(d, here, kinds, {sign: 1, "s": 0.5})
        with at_path(here):
            out.append(build(*labels, mass))
    return tuple(out)


def config_from_dict(data: dict) -> RunConfig:
    """Parse a JSON-shaped dict; raises ``ConfigError`` with the field's path."""
    optional = {k: DEFAULT_CONFIG[k] for k in ("seed", "eigen", "limits")}
    data = _object(data, "config", DEFAULT_CONFIG, optional)
    mass = _number(data["mass"], "config.mass")
    if mass < 0.0:
        raise ConfigError(f"config.mass: must be >= 0, got {mass}")
    grid = GridConfig(*_fields(data["grid"], "config.grid", _GRID, {}))
    with at_path("config.grid"):
        _grid_rule(**grid._asdict())
    optional = {k: DEFAULT_CONFIG["packet"][k] for k in ("c_plus", "c_minus", "s")}
    with at_path("config.packet"):
        packet = PacketSpec(mass, *_fields(data["packet"], "config.packet", _PACKET, optional))
    time = TimeConfig(*_fields(data["time"], "config.time", _TIME, {}))
    with at_path("config.time"):
        _window_rule(time.t_min, time.t_max, time.n_t)
    seed = _integer(data["seed"], "config.seed")
    eigen = _eigen_from(data["eigen"], "config.eigen", mass)
    limits = LimitsConfig(*_fields(data["limits"], "config.limits", _LIMITS, DEFAULT_CONFIG["limits"]))
    if limits.e_max_factor <= 1.0:
        raise ConfigError("config.limits.e_max_factor: must be > 1")
    if seed < 0:
        raise ConfigError(f"config.seed: must be >= 0, got {seed}")
    return RunConfig(mass, grid, packet, time, seed, eigen, limits)


def config_to_dict(cfg: RunConfig) -> dict:
    """The JSON form of ``cfg``: ``config_from_dict(config_to_dict(cfg)) == cfg``."""
    packet = {k: v for k, v in asdict(cfg.packet).items() if k != "m"}
    for key in ("c_plus", "c_minus"):
        packet[key] = [packet[key].real, packet[key].imag]
    return {
        "mass": cfg.mass,
        "grid": cfg.grid._asdict(),
        "packet": packet,
        "time": cfg.time._asdict(),
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
