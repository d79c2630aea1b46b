"""Child-process entry points that import ``dirac_toa`` in process.

    python perfbench/inproc.py trace OUT.json CLI-ARG...
        Wrap the package's public functions, call ``dirac_toa.cli.main`` with
        the CLI arguments, and write the trace summary and captured stdout.
    python perfbench/inproc.py probe CONFIG.json
        Print the workload's input properties (node count, t samples and the
        share of live nodes in its packet) as one JSON line.

``run.py`` starts these with ``src`` on ``PYTHONPATH`` and pinned BLAS threads.
"""
from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import sys
import traceback

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, instrument  # noqa: E402

LAYERS = ("config", "grids", "algebra", "eigenfunctions", "arrival", "limits", "verify", "cli")
METHODS = (("eigenfunctions", "ToaEigenfunction", "on_grid"),)
# spans whose work is n_t * n_nodes, the base of arrival.ns_per_sample_node
KERNELS = ("arrival.arrival_distribution", "arrival.flux_at_origin")


def live_node_share(values, rel: float = 1e-16) -> float:
    """Share of grid nodes whose spinor norm exceeds ``rel`` times the largest."""
    norms = np.linalg.norm(np.asarray(values).reshape(len(values), -1), axis=1)
    return float(np.count_nonzero(norms > rel * norms.max()) / len(norms))


def _sample_node_size(fn):
    """Size hook returning n_t * n_nodes of one call, or 0 if the signature
    no longer names ``f`` and ``n_t``."""
    sig = inspect.signature(fn)

    def size(*args, **kwargs):
        try:
            bound = sig.bind(*args, **kwargs).arguments
            return int(bound["n_t"]) * int(bound["f"].grid.n_nodes)
        except (KeyError, TypeError, AttributeError):
            return 0

    return size


def trace(out_path: str, argv: list) -> None:
    import dirac_toa  # noqa: F401  (loads every module before rebinding)
    from dirac_toa import arrival, cli

    tracer = Tracer()
    sizes = {
        name: _sample_node_size(getattr(arrival, name.split(".")[1]))
        for name in KERNELS
        if hasattr(arrival, name.split(".")[1])
    }
    wrapped = instrument(tracer, "dirac_toa", LAYERS, METHODS, sizes)
    buf = io.StringIO()
    status, error = None, None
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception:  # the traced run reports a crash instead of dying
        error = traceback.format_exc().strip().splitlines()[-1]
    summary = tracer.summary()
    summary.update(status=status, error=error, stdout=buf.getvalue(), wrapped=wrapped)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


def probe(config_path: str) -> None:
    from dirac_toa import arrival, grids
    from dirac_toa.config import load_config

    cfg = load_config(config_path)
    grid = grids.build_grid(cfg.grid.p_min, cfg.grid.p_max, cfg.grid.n_points, cfg.grid.deriv_order)
    spec = arrival.PacketSpec(
        m=cfg.mass, x0=cfg.packet.x0, p0=cfg.packet.p0, sigma_p=cfg.packet.sigma_p,
        c_plus=cfg.packet.c_plus, c_minus=cfg.packet.c_minus, s=cfg.packet.s,
    )
    psi = arrival.build_packet(spec, grid)
    print(json.dumps({
        "n_nodes": grid.n_nodes,
        "n_t": cfg.time.n_t,
        "n_t_x_n_nodes": cfg.time.n_t * grid.n_nodes,
        "live_node_share": live_node_share(psi.values),
    }))


if __name__ == "__main__":
    if sys.argv[1] == "trace":
        trace(sys.argv[2], sys.argv[3:])
    elif sys.argv[1] == "probe":
        probe(sys.argv[2])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
