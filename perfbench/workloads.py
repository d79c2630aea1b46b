"""Benchmark workloads: fixed CLI configs and the reason each one exists.

The configs are written out in full rather than derived from
``dirac_toa.config.DEFAULT_CONFIG`` so that the inputs stay fixed even if the
program's defaults change.  ``verify_default`` is today's default config.
"""
from __future__ import annotations

import copy

DEFAULT_SEED = 20240810

_DEFAULT = {
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
    "seed": DEFAULT_SEED,
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


def _with(**changes) -> dict:
    cfg = copy.deepcopy(_DEFAULT)
    for section, fields in changes.items():
        cfg[section].update(fields)
    return cfg


_H = 0.7071067811865476

WORKLOADS = {
    "verify_default": {
        "command": "verify",
        "config": copy.deepcopy(_DEFAULT),
        "why": "the reproduction path every user runs; work is spread over "
        "every layer, and each of the 42 checks is timed by name",
    },
    "arrival_dense": {
        "command": "arrival",
        "config": _with(time={"n_t": 12001}),
        "why": "t-heavy arrival (n_t/N ~ 23) with a narrow single-branch packet "
        "on 512 nodes, 12% of them live; the arrival kernels and the CSV writer dominate",
    },
    "arrival_broad": {
        "command": "arrival",
        "config": _with(
            grid={"p_max": 20.0, "n_points": 1024},
            packet={"p0": 5.0, "sigma_p": 1.5, "c_plus": [_H, 0.0], "c_minus": [0.0, _H]},
            time={"t_min": -45.0, "t_max": 45.0, "n_t": 2501},
        ),
        "why": "node-heavy arrival (n_t/N ~ 1.2) on 2048 nodes, 84% live, both "
        "branches so Pi_interf is non-zero; node pruning cannot help here",
    },
}


def config_for(name: str, seed: int) -> dict:
    """The workload's config with the benchmark seed written into it."""
    cfg = copy.deepcopy(WORKLOADS[name]["config"])
    cfg["seed"] = int(seed)
    return cfg
