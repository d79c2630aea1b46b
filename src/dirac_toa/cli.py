"""Command-line interface: verify / arrival / eigen / limits.

    dirac-toa {verify,arrival,eigen,limits} [--config FILE] [--out DIR] [--seed N]

All commands read a JSON config (a built-in default is used when --config is
omitted) and write deterministic artifacts: CSV curves with 17-significant-
digit scientific notation and JSON sidecars with sorted keys, whose
``config`` is ``config_to_dict`` of the run's config.

Exit status: 0 success, 1 a ``verify`` check failed, 2 invalid input,
reported on stderr as ``config error: WHERE: WHY``; never a traceback.
Status 2 covers a config that ``config_from_dict`` rejects (bad JSON, shape
or type, a non-finite number, an unknown key, a seed < 0, also from
``--seed``, a library domain rule, the grid and window rules among them); a
config that loads but that the library rejects for the command, with WHERE
the config section or field (a packet off the grid or without weight on its
nodes, a window without arrival mass, an eigen label past the grid
resolution by ``ToaEigenfunction.check_resolved``, ratios that admit no
order fit, an overflowing deficiency axis, and for ``verify`` a grid that
cannot hold its fixed packets or whose energies collapse onto m); and a
non-finite result, which the writers refuse with WHERE the file; and an
``--out`` that cannot hold the files, with WHERE ``--out DIR``.  The domain
rules live in the library; a command only names the config path.  Every
artifact of a command is checked before the first file is written, and a
failed write removes the files it wrote, so a run that exits 2 leaves no
file; CSV text is rendered and written in blocks of rows.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import arrival, grids, limits
from .config import (
    DEFAULT_CONFIG, ConfigError, RunConfig, at_path, config_from_dict, config_to_dict, load_config,
)
from .verify import run_all_checks


# rows per rendered CSV block: the text is written as it is rendered, so no
# file's whole text is held in memory
_CSV_ROWS = 1024


def _csv(path: str, header: str, columns) -> tuple:
    """(path, blocks of text) of a CSV with one %.16e cell per value; refuses
    non-finite values before any block is rendered."""
    if not all(np.all(np.isfinite(c)) for c in columns):
        raise ConfigError(f"{path}: non-finite values, not written")
    return path, _csv_blocks(header, columns)


def _csv_blocks(header: str, columns):
    """The header, then the rows ``_CSV_ROWS`` at a time, each block rendered
    by one % over a flat tuple of its cells."""
    yield header
    row = "\n" + ",".join(["%.16e"] * len(columns))
    for i in range(0, len(columns[0]), _CSV_ROWS):
        block = np.column_stack([c[i : i + _CSV_ROWS] for c in columns])
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _json(path: str, obj) -> tuple:
    """(path, [text]) of a JSON document with sorted keys; refuses non-finite values."""
    try:
        return path, [json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)]
    except ValueError as exc:
        raise ConfigError(f"{path}: non-finite values, not written") from exc


def _write_all(out_dir: str, files) -> None:
    """Write the (path, blocks of text) pairs, each block as it comes.  Commands
    call it once every value is checked and every JSON document rendered; an
    ``OSError`` removes the files already written and becomes a ``ConfigError``,
    so a run that exits 2 leaves no file behind."""
    written = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path, blocks in files:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                written.append(path)
                fh.writelines(blocks)
                fh.write("\n")
    except OSError as exc:
        for path in written:
            os.remove(path)
        raise ConfigError(f"--out {out_dir}: {exc}") from exc


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
        _write_all(out_dir, [_json(
            os.path.join(out_dir, "verify.json"),
            {"checks": [r.to_dict() for r in results], "config": config_to_dict(cfg)},
        )])
    return 1 if n_fail else 0


def cmd_arrival(cfg: RunConfig, out_dir: str | None) -> int:
    out_dir = out_dir or "."
    grid = grids.build_grid(**asdict(cfg.grid))
    with at_path("config.packet"):
        psi = arrival.build_packet(cfg.packet, grid)
    window = (cfg.time.t_min, cfg.time.t_max)
    with at_path("config.time"):
        dist = arrival.arrival_distribution(psi, cfg.mass, window, cfg.time.n_t)
    ts, J = arrival.flux_at_origin(psi, cfg.mass, window, cfg.time.n_t)
    table = _csv(
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
        "config": config_to_dict(cfg),
    }
    _write_all(out_dir, [table, _json(os.path.join(out_dir, "arrival.json"), sidecar)])
    return 0


def cmd_eigen(cfg: RunConfig, out_dir: str | None) -> int:
    out_dir = out_dir or "."
    grid = grids.build_grid(**asdict(cfg.grid))
    files, index = [], []
    for i, func in enumerate(cfg.eigen):
        with at_path(f"config.eigen[{i}]"):
            func.check_resolved(grid)
        vals = func.value(grid.nodes)
        name = f"eigen_{i:02d}.csv"
        cols = [grid.nodes, *np.stack([vals.real, vals.imag], axis=-1).reshape(-1, 8).T]
        files.append(_csv(
            os.path.join(out_dir, name),
            "p,re_c1,im_c1,re_c2,im_c2,re_c3,im_c3,re_c4,im_c4",
            cols,
        ))
        index.append({"file": name, "family": func.family, **func.labels})
    files.append(_json(
        os.path.join(out_dir, "eigen.json"),
        {"eigenfunctions": index, "config": config_to_dict(cfg)},
    ))
    _write_all(out_dir, files)
    return 0


def cmd_limits(cfg: RunConfig, out_dir: str | None) -> int:
    out_dir = out_dir or "."
    if cfg.mass <= 0.0:
        raise ConfigError("config.mass: the limits command requires mass > 0")
    ratios = np.asarray(cfg.limits.ratios, dtype=float)
    with at_path("config.limits.ratios"):
        rep_u, rep_w = limits.nr_spinor_limit_scan(ratios)
        rep_eig = limits.nr_eigenfunction_limit_scan(1.0, cfg.packet.s, cfg.mass, ratios)
    files = [
        _csv(
            os.path.join(out_dir, "limits_spinor.csv"),
            "ratio,u_error,w_error",
            (ratios, rep_u.errors, rep_w.errors),
        ),
        _csv(
            os.path.join(out_dir, "limits_eigfun.csv"),
            "ratio,eigfun_distance",
            (rep_eig.ratios, rep_eig.errors),
        ),
    ]
    with at_path("config.limits.e_max_factor"):
        report = limits.deficiency_diagnostic(cfg.mass, cfg.limits.e_max_factor * cfg.mass)
    files.append(_json(os.path.join(out_dir, "deficiency.json"), report.to_dict()))
    files.append(_json(
        os.path.join(out_dir, "limits.json"),
        {
            "u_slope": rep_u.fitted_order,
            "w_slope": rep_w.fitted_order,
            "eigfun_order": rep_eig.fitted_order,
            "config": config_to_dict(cfg),
        },
    ))
    _write_all(out_dir, files)
    return 0


# name -> (command, help text), in the order ``--help`` lists them
_COMMANDS = {
    "verify": (cmd_verify, "run every invariant check and report pass/fail"),
    "arrival": (cmd_arrival, "compute the arrival-time distribution and flux oracle"),
    "eigen": (cmd_eigen, "sample eigenfunctions of the arrival operator"),
    "limits": (cmd_limits, "nonrelativistic limit tables and deficiency diagnostic"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dirac-toa",
        description="Relativistic free-motion time-of-arrival toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config path (built-in default if omitted)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else config_from_dict(DEFAULT_CONFIG)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        return _COMMANDS[args.command][0](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
