"""Run configuration: JSON ingestion with field validation.

Complex amplitudes are encoded as two-element [re, im] arrays.  Validation
errors carry the JSON path of the offending field so the CLI can report
them precisely and exit with status 2.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["ConfigError", "RunConfig", "load_config", "config_from_dict", "DEFAULT_CONFIG"]


class ConfigError(ValueError):
    """Invalid configuration (bad JSON or a field constraint violation)."""


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


@dataclass(frozen=True)
class GridConfig:
    p_min: float
    p_max: float
    n_points: int
    deriv_order: int


@dataclass(frozen=True)
class PacketConfig:
    x0: float
    p0: float
    sigma_p: float
    c_plus: complex
    c_minus: complex
    s: float


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
    packet: PacketConfig
    time: TimeConfig
    seed: int
    eigen: tuple = field(default_factory=tuple)
    limits: LimitsConfig = LimitsConfig(tuple(DEFAULT_CONFIG["limits"]["ratios"]), 10.0)


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}: missing required field")
    return d[key]


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


def _spin(value, path: str) -> float:
    s = _number(value, path)
    if s not in (0.5, -0.5):
        raise ConfigError(f"{path}: spin label must be 0.5 or -0.5, got {value!r}")
    return s


def _sign(value, path: str) -> int:
    v = _integer(value, path)
    if v not in (1, -1):
        raise ConfigError(f"{path}: expected +1 or -1, got {value!r}")
    return v


def _grid_from(d, path: str) -> GridConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    p_min = _number(_need(d, "p_min", path), f"{path}.p_min")
    p_max = _number(_need(d, "p_max", path), f"{path}.p_max")
    n_points = _integer(_need(d, "n_points", path), f"{path}.n_points")
    order = _integer(_need(d, "deriv_order", path), f"{path}.deriv_order")
    if not 0.0 < p_min < p_max:
        raise ConfigError(f"{path}: need 0 < p_min < p_max, got ({p_min}, {p_max})")
    if n_points < 8:
        raise ConfigError(f"{path}.n_points: must be >= 8, got {n_points}")
    if order not in (2, 4):
        raise ConfigError(f"{path}.deriv_order: must be 2 or 4, got {order}")
    return GridConfig(p_min, p_max, n_points, order)


def _packet_from(d, path: str) -> PacketConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    x0 = _number(_need(d, "x0", path), f"{path}.x0")
    p0 = _number(_need(d, "p0", path), f"{path}.p0")
    sigma_p = _number(_need(d, "sigma_p", path), f"{path}.sigma_p")
    c_plus = _complex_pair(d.get("c_plus", [1.0, 0.0]), f"{path}.c_plus")
    c_minus = _complex_pair(d.get("c_minus", [0.0, 0.0]), f"{path}.c_minus")
    s = _spin(d.get("s", 0.5), f"{path}.s")
    if sigma_p <= 0.0:
        raise ConfigError(f"{path}.sigma_p: must be > 0, got {sigma_p}")
    total = abs(c_plus) ** 2 + abs(c_minus) ** 2
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"{path}: |c_plus|^2 + |c_minus|^2 must be 1, got {total}")
    return PacketConfig(x0, p0, sigma_p, c_plus, c_minus, s)


def _time_from(d, path: str) -> TimeConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    t_min = _number(_need(d, "t_min", path), f"{path}.t_min")
    t_max = _number(_need(d, "t_max", path), f"{path}.t_max")
    n_t = _integer(_need(d, "n_t", path), f"{path}.n_t")
    if not t_max > t_min:
        raise ConfigError(f"{path}: need t_min < t_max")
    if not math.isfinite(t_max - t_min):
        raise ConfigError(f"{path}: t_max - t_min overflows, got ({t_min}, {t_max})")
    if n_t < 2:
        raise ConfigError(f"{path}.n_t: must be >= 2, got {n_t}")
    return TimeConfig(t_min, t_max, n_t)


def _eigen_from(items, path: str) -> tuple:
    if not isinstance(items, list):
        raise ConfigError(f"{path}: expected a list of label objects")
    out = []
    for i, d in enumerate(items):
        here = f"{path}[{i}]"
        if not isinstance(d, dict):
            raise ConfigError(f"{here}: expected an object")
        family = d.get("family")
        if family not in ("time", "position", "event"):
            raise ConfigError(
                f"{here}.family: must be 'time', 'position' or 'event', got {family!r}"
            )
        label = {"family": family, "s": _spin(d.get("s", 0.5), f"{here}.s")}
        if family == "time":
            label["t"] = _number(_need(d, "t", here), f"{here}.t")
            label["lam"] = _sign(d.get("lam", 1), f"{here}.lam")
        elif family == "position":
            label["x"] = _number(_need(d, "x", here), f"{here}.x")
            label["lam"] = _sign(d.get("lam", 1), f"{here}.lam")
        else:
            label["x"] = _number(_need(d, "x", here), f"{here}.x")
            label["b"] = _sign(d.get("b", 1), f"{here}.b")
            if label["x"] == 0.0:
                raise ConfigError(f"{here}.x: must be nonzero for the event family")
        out.append(label)
    return tuple(out)


def _limits_from(d, path: str) -> LimitsConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    ratios = d.get("ratios", DEFAULT_CONFIG["limits"]["ratios"])
    if not isinstance(ratios, list) or len(ratios) < 2:
        raise ConfigError(f"{path}.ratios: expected a list of at least two ratios")
    vals = tuple(_number(r, f"{path}.ratios[{i}]") for i, r in enumerate(ratios))
    if any(r <= 0.0 for r in vals):
        raise ConfigError(f"{path}.ratios: all ratios must be > 0")
    factor = _number(d.get("e_max_factor", 10.0), f"{path}.e_max_factor")
    if factor <= 1.0:
        raise ConfigError(f"{path}.e_max_factor: must be > 1")
    return LimitsConfig(vals, factor)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be an object")
    mass = _number(_need(data, "mass", "config"), "config.mass")
    if mass < 0.0:
        raise ConfigError(f"config.mass: must be >= 0, got {mass}")
    grid = _grid_from(_need(data, "grid", "config"), "config.grid")
    packet = _packet_from(_need(data, "packet", "config"), "config.packet")
    time = _time_from(_need(data, "time", "config"), "config.time")
    seed = _integer(data.get("seed", DEFAULT_CONFIG["seed"]), "config.seed")
    eigen = _eigen_from(data.get("eigen", DEFAULT_CONFIG["eigen"]), "config.eigen")
    limits = _limits_from(data.get("limits", DEFAULT_CONFIG["limits"]), "config.limits")
    return RunConfig(
        mass=mass, grid=grid, packet=packet, time=time,
        seed=seed, eigen=eigen, limits=limits,
    )


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
