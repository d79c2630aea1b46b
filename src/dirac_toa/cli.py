"""Command-line interface: verify / arrival / eigen / limits.

    dirac-toa {verify,arrival,eigen,limits} [--config FILE] [--out DIR] [--seed N]

All commands read a JSON config (a built-in default is used when --config is
omitted) and write deterministic artifacts: CSV curves with 17-significant-
digit scientific notation and JSON sidecars with sorted keys.  Exit status:
0 success, 1 verification failure, 2 invalid configuration.  Status 2 also
covers configs that validate but that the library rejects: a packet that
does not fit on the grid (reported under config.packet) and a time window
that holds no arrival mass (config.time).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import arrival, eigenfunctions, grids, limits
from .config import DEFAULT_CONFIG, ConfigError, RunConfig, config_from_dict, load_config
from .verify import run_all_checks


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_csv(path: str, header: str, columns) -> None:
    rows = [",".join(_fmt(c[i]) for c in columns) for i in range(len(columns[0]))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows))
        fh.write("\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True))
        fh.write("\n")


def _config_echo(cfg: RunConfig) -> dict:
    return {
        "mass": cfg.mass,
        "grid": {
            "p_min": cfg.grid.p_min,
            "p_max": cfg.grid.p_max,
            "n_points": cfg.grid.n_points,
            "deriv_order": cfg.grid.deriv_order,
        },
        "packet": {
            "x0": cfg.packet.x0,
            "p0": cfg.packet.p0,
            "sigma_p": cfg.packet.sigma_p,
            "c_plus": [cfg.packet.c_plus.real, cfg.packet.c_plus.imag],
            "c_minus": [cfg.packet.c_minus.real, cfg.packet.c_minus.imag],
            "s": cfg.packet.s,
        },
        "time": {"t_min": cfg.time.t_min, "t_max": cfg.time.t_max, "n_t": cfg.time.n_t},
        "seed": cfg.seed,
    }


def _build_grid(cfg: RunConfig):
    return grids.build_grid(
        cfg.grid.p_min, cfg.grid.p_max, cfg.grid.n_points, cfg.grid.deriv_order
    )


def cmd_verify(cfg: RunConfig, out_dir: str | None) -> int:
    results = run_all_checks(cfg)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{r.name:<{width}}  max_residual={r.max_residual:.3e}  "
            f"tolerance={r.tolerance:.1e}  {status}"
        )
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(
            os.path.join(out_dir, "verify.json"),
            {"checks": [r.to_dict() for r in results], "config": _config_echo(cfg)},
        )
    return 1 if n_fail else 0


def cmd_arrival(cfg: RunConfig, out_dir: str | None) -> int:
    out_dir = out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    grid = _build_grid(cfg)
    spec = arrival.PacketSpec(
        m=cfg.mass,
        x0=cfg.packet.x0,
        p0=cfg.packet.p0,
        sigma_p=cfg.packet.sigma_p,
        c_plus=cfg.packet.c_plus,
        c_minus=cfg.packet.c_minus,
        s=cfg.packet.s,
    )
    try:
        psi = arrival.build_packet(spec, grid)
    except ValueError as exc:
        raise ConfigError(f"config.packet: {exc}") from exc
    window = (cfg.time.t_min, cfg.time.t_max)
    try:
        dist = arrival.arrival_distribution(psi, cfg.mass, window, cfg.time.n_t)
    except ValueError as exc:
        raise ConfigError(f"config.time: {exc}") from exc
    ts, J = arrival.flux_at_origin(psi, cfg.mass, window, cfg.time.n_t)
    _write_csv(
        os.path.join(out_dir, "arrival.csv"),
        "t,Pi_total,Pi_pos,Pi_neg,Pi_interf",
        (dist.t, dist.Pi_total, dist.Pi_pos, dist.Pi_neg, dist.Pi_interf),
    )
    sidecar = {
        "peak_time": dist.peak_time,
        "flux_peak_time": arrival.peak_location(ts, J),
        "captured_mass": dist.captured_mass,
        "normalization": dist.normalization,
        "warnings": list(dist.warnings),
        "config": _config_echo(cfg),
    }
    _write_json(os.path.join(out_dir, "arrival.json"), sidecar)
    return 0


def _eigen_builder(label: dict, m: float):
    if label["family"] == "time":
        return eigenfunctions.time_eigenfunction(label["t"], label["lam"], label["s"], m)
    if label["family"] == "position":
        return eigenfunctions.position_eigenfunction(label["x"], label["lam"], label["s"], m)
    return eigenfunctions.event_eigenfunction(label["x"], label["b"], label["s"], m)


def _check_resolvable(label: dict, grid, m: float, where: str) -> None:
    """Phase advance per node gap must stay below pi/2 on each half-line."""
    ppos = grid.nodes[grid.positive]
    dp_max = float(np.max(np.diff(ppos)))
    if label["family"] in ("position", "event"):
        limit = np.pi / (2.0 * dp_max)
        if abs(label["x"]) > limit:
            raise ConfigError(
                f"{where}: |x| = {abs(label['x']):.6g} exceeds the grid "
                f"resolution limit {limit:.6g}"
            )
    else:
        E = np.hypot(ppos, m)
        de_max = float(np.max(np.diff(E)))
        limit = np.pi / (2.0 * de_max)
        if abs(label["t"]) > limit:
            raise ConfigError(
                f"{where}: |t| = {abs(label['t']):.6g} exceeds the grid "
                f"resolution limit {limit:.6g}"
            )


def cmd_eigen(cfg: RunConfig, out_dir: str | None) -> int:
    out_dir = out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    grid = _build_grid(cfg)
    index = []
    for i, label in enumerate(cfg.eigen):
        _check_resolvable(label, grid, cfg.mass, f"config.eigen[{i}]")
        func = _eigen_builder(label, cfg.mass)
        vals = func.value(grid.nodes)
        name = f"eigen_{i:02d}.csv"
        cols = [grid.nodes]
        for c in range(4):
            cols.append(vals[:, c].real)
            cols.append(vals[:, c].imag)
        _write_csv(
            os.path.join(out_dir, name),
            "p,re_c1,im_c1,re_c2,im_c2,re_c3,im_c3,re_c4,im_c4",
            cols,
        )
        index.append({"file": name, **label})
    _write_json(
        os.path.join(out_dir, "eigen.json"),
        {"eigenfunctions": index, "config": _config_echo(cfg)},
    )
    return 0


def cmd_limits(cfg: RunConfig, out_dir: str | None) -> int:
    out_dir = out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    if cfg.mass <= 0.0:
        raise ConfigError("config.mass: the limits command requires mass > 0")
    ratios = np.asarray(cfg.limits.ratios, dtype=float)
    rep_u, rep_w = limits.nr_spinor_limit_scan(ratios)
    _write_csv(
        os.path.join(out_dir, "limits_spinor.csv"),
        "ratio,u_error,w_error",
        (ratios, rep_u.errors, rep_w.errors),
    )
    eig_ratios = np.asarray([r for r in ratios if r >= 1e-3], dtype=float)
    if len(eig_ratios) < 2:
        eig_ratios = np.asarray([1e-1, 1e-2, 1e-3])
    rep_eig = limits.nr_eigenfunction_limit_scan(1.0, cfg.packet.s, cfg.mass, eig_ratios)
    _write_csv(
        os.path.join(out_dir, "limits_eigfun.csv"),
        "ratio,eigfun_distance",
        (eig_ratios, rep_eig.errors),
    )
    report = limits.deficiency_diagnostic(cfg.mass, cfg.limits.e_max_factor * cfg.mass)
    _write_json(os.path.join(out_dir, "deficiency.json"), report.to_dict())
    _write_json(
        os.path.join(out_dir, "limits.json"),
        {
            "u_slope": rep_u.fitted_order,
            "w_slope": rep_w.fitted_order,
            "eigfun_order": rep_eig.fitted_order,
            "config": _config_echo(cfg),
        },
    )
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "arrival": cmd_arrival,
    "eigen": cmd_eigen,
    "limits": cmd_limits,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dirac-toa",
        description="Relativistic free-motion time-of-arrival toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify", "run every invariant check and report pass/fail"),
        ("arrival", "compute the arrival-time distribution and flux oracle"),
        ("eigen", "sample eigenfunctions of the arrival operator"),
        ("limits", "nonrelativistic limit tables and deficiency diagnostic"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config path (built-in default if omitted)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else config_from_dict(DEFAULT_CONFIG)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
