"""Command-line interface: verify / arrival / eigen / limits.

    dirac-toa {verify,arrival,eigen,limits} [--config FILE] [--out DIR]

All commands read a JSON config, the run's one input (a built-in default is
used when --config is omitted), and write deterministic artifacts: CSV
curves with 17-significant-digit scientific notation and JSON sidecars with
sorted keys, whose ``config`` is ``config_to_dict`` of the run's config.
``limits`` and ``verify`` run on their first use (see the package
docstring), so ``arrival`` and ``eigen`` load neither of them.

Exit status: 0 success, 1 a ``verify`` check failed, 2 invalid input,
reported on stderr as ``config error: WHERE: WHY``; never a traceback.
Status 2 covers a config that ``config_from_dict`` rejects (bad JSON, shape
or type, a non-finite number, an unknown key, a seed < 0, a library domain
rule, the grid and window rules among them); a config that loads but that
the library rejects for the command, with WHERE the config section or field
(a grid or time lattice too large to allocate, a packet off the grid or
without weight on its nodes, a window without arrival mass, an eigen label
past the grid resolution by ``ToaEigenfunction.check_resolved``, ratios
that admit no order fit, an overflowing deficiency axis, and for ``verify``
a grid that cannot hold its fixed packets or whose energies collapse onto
m); a non-finite result, which the writers refuse with WHERE the file; and
an ``--out`` that cannot hold the files, with WHERE ``--out DIR``.  The
domain rules live in the library; a command only names the config path.
A ``verify`` check whose residual is not finite has failed: it exits 1, and
``verify.json`` records that ``max_residual`` as null; a stdout that cannot
take its report (a closed pipe, a full device) exits 2, WHERE ``stdout``.
Every artifact of a command is checked before the first file is written,
and a failed write removes the files it wrote, so a run that exits 2 leaves
no file; CSV text is rendered and written in blocks of rows.
``python -m dirac_toa.cli`` and the ``dirac-toa`` script run ``launch``,
which ends the process by ``os._exit`` once ``main`` has returned and stdout
and stderr are flushed: interpreter teardown, mostly numpy's, kept an
``arrival`` process alive 21-33 ms after its last byte on a 2-core VM, and
``os._exit`` 1-3 ms.  Every file is closed by then, no module registers an
``atexit`` handler, and argparse's ``SystemExit`` exits the normal way.

Each CSV cell is the bytes of ``'%.16e' % v``, rendered for a whole block by
array operations: with e = floor(log10|v|), |v| 10^(16 - e) is formed to
within 2^-41 (Dekker's exact product with 10^(16 - e) held as hi + lo
doubles) and rounded to the nearest integer D, e moving by one where the
scaled value lies outside [10^16, 10^17) (log10 one off) or D carries to
10^17.  '%' rounds correctly too, and breaks ties to even; a double lies
halfway between two 17-digit decimals only as |v| = m 2^(e - 17) with m odd,
which needs -8 <= e <= 15 (for e >= 16 m exceeds 2^53, for e <= -9 it is
below 1), as 1 + 2^-17 does.  So '%' alone renders a cell whose fraction
lies within 2^-30 of 1/2, and a nonzero cell outside
1e-280 <= |v| <= 1e280, subnormals among them.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import arrival, grids, limits, verify
from .config import (
    DEFAULT_CONFIG, ConfigError, RunConfig, at_path, config_from_dict, config_to_dict, load_config,
)


# rows per rendered CSV block: the text is written as it is rendered, so no
# file's whole text is held in memory
_CSV_ROWS = 1024

# The fast path renders 0 and the finite |x| in [1e-280, 1e280], whose decimal
# exponents e lie in [-_E, _E] once corrected by one; _TENS[:, e + _E] holds
# 10^(16 - e) as the double nearest it and the double nearest the rest, NaN
# until a block needs that e.  _QUADS[i] is the uint32 whose four bytes are the
# ASCII digits of i, zero-padded, for i < 10^4; built on first use.  Both
# cache constants: what they hold never changes a result.
_E = 281
_TENS = np.full((2, 2 * _E + 1), np.nan)
_QUADS = None
# |fraction - 1/2| below which a rounding is left to '%': far above the
# 2^-41 error of the scaled fraction, so it catches every exact tie
_TIE_MARGIN = 2.0**-30


def _csv(path: str, header: str, columns) -> tuple:
    """(path, blocks of text) of a CSV with one %.16e cell per value; refuses
    non-finite values before any block is rendered."""
    if not all(np.all(np.isfinite(c)) for c in columns):
        raise ConfigError(f"{path}: non-finite values, not written")
    return path, _csv_blocks(header, columns)


def _csv_blocks(header: str, columns):
    """The header, then the rows ``_CSV_ROWS`` at a time, each block rendered
    by ``_csv_text``."""
    yield header
    for i in range(0, len(columns[0]), _CSV_ROWS):
        yield _csv_text(np.column_stack([c[i : i + _CSV_ROWS] for c in columns]))


def _tens(e: np.ndarray) -> tuple:
    """(hi, lo) with hi + lo = 10^(16 - e) to about 2^-106 relative, per cell;
    fills the missing ``_TENS`` columns with correctly rounded int divisions."""
    k = e + _E
    hi = _TENS[0].take(k)
    missing = np.isnan(hi)
    if missing.any():
        for j in set(e[missing].tolist()):
            num, den = (10 ** (16 - j), 1) if j <= 16 else (1, 10 ** (j - 16))
            top = num / den
            a, b = top.as_integer_ratio()
            _TENS[:, j + _E] = top, (num * b - a * den) / (den * b)
        hi = _TENS[0].take(k)
    return hi, _TENS[1].take(k)


def _split(x: np.ndarray) -> tuple:
    """Veltkamp's split of x into a 26-bit head and the exact rest."""
    c = 134217729.0 * x  # 2^27 + 1
    head = c - (c - x)
    return head, x - head


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple:
    """(floor, fraction) of a * 10^(16 - e) for |a| in the fast range: Dekker's
    exact product a * hi = p + err, then the lo term, to within 2^-45."""
    hi, lo = _tens(e)
    p = a * hi
    ah, al = _split(a)
    hh, hl = _split(hi)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    whole = np.floor(p)
    r = (p - whole) + (err + a * lo)
    low = np.floor(r)
    return whole.astype(np.int64) + low.astype(np.int64), r - low


def _decimal(x: np.ndarray) -> tuple:
    """(D, e, fast) of a flat float array: where ``fast``, x rounds to
    +-D * 10^(e - 16) at 17 significant digits exactly as ``'%.16e' % x``
    does, with 10^16 <= D < 10^17 (D = e = 0 at x = 0).  Elsewhere D and e
    mean nothing: the cell is out of range, or too near a tie to certify."""
    a = np.abs(x)
    live = (a >= 1e-280) & (a <= 1e280)
    a[~live] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    D, f = _scaled(a, e)
    reached = (D >= 10**15) & (D < 10**18)
    # log10 can put e one off near a power of ten: move those cells a digit,
    # D + f to (D + f) / 10 or 10 (D + f), with no new rounding of D
    up = D >= 10**17
    D[up], r = np.divmod(D[up], 10)
    f[up] = (r + f[up]) / 10
    e[up] += 1
    down = D < 10**16
    f10 = 10 * f[down]
    D[down] = 10 * D[down] + np.floor(f10).astype(np.int64)
    f[down] = f10 - np.floor(f10)
    e[down] -= 1
    fast = np.where(live, reached & (np.abs(f - 0.5) > _TIE_MARGIN), x == 0)
    D += f > 0.5
    carry = D == 10**17
    D[carry] = 10**16
    e[carry] += 1
    D[~live] = 0
    e[~live] = 0
    return D, e, fast


def _csv_text(block: np.ndarray) -> str:
    """The rows of a 2-d block as lines, each led by '\\n', of ','-separated
    %.16e cells; the cells ``_decimal`` cannot certify are rendered by '%'.

    Each cell is laid out in 25 bytes: separator, sign, digit, '.', 16
    digits, 'e', exponent sign, 3 exponent digits.  A positive sign and the
    hundreds digit of a 2-digit exponent are 0 bytes, which one mask drops."""
    x = np.asarray(block, dtype=float).ravel()
    global _QUADS
    if _QUADS is None:
        d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
        _QUADS = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).view(np.uint32).ravel()
    D, e, fast = _decimal(x)
    cells = np.empty((len(x), 25), dtype=np.uint8)
    sep = cells.reshape(len(block), -1, 25)[:, :, 0]
    sep[:] = ord(",")
    sep[:, 0] = ord("\n")
    cells[:, 1] = np.signbit(x) * ord("-")
    lead, rest = np.divmod(D, 10**16)
    cells[:, 2] = lead + ord("0")
    cells[:, 3] = ord(".")
    high, low = np.divmod(rest, 10**8)
    quads = np.empty((len(x), 4), dtype=np.int64)
    quads[:, 0], quads[:, 1] = np.divmod(high, 10**4)
    quads[:, 2], quads[:, 3] = np.divmod(low, 10**4)
    cells[:, 4:20] = _QUADS.take(quads).view(np.uint8)
    cells[:, 20] = ord("e")
    exponent = np.abs(e)
    cells[:, 21:25] = _QUADS.take(exponent)[:, None].view(np.uint8)
    cells[:, 21] = np.where(e < 0, ord("-"), ord("+"))
    cells[:, 22] *= exponent >= 100
    for i in np.flatnonzero(~fast).tolist():
        cells[i, 1:] = np.frombuffer(("%.16e" % x[i]).encode().ljust(24, b"\0"), np.uint8)
    cells = cells.ravel()
    return cells[cells != 0].tobytes().decode("ascii")


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
    results = verify.run_all_checks(cfg)
    width = max(len(r.name) for r in results)
    lines = [f"{r.name:<{width}}  max_residual={r.max_residual:.3e}  tolerance={r.tolerance:.1e}  "
             f"{'PASS' if r.passed else 'FAIL'}" for r in results]
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    try:
        print("\n".join(lines))
    except OSError as exc:
        raise ConfigError(f"stdout: {exc}") from exc
    if out_dir is not None:
        _write_all(out_dir, [_json(
            os.path.join(out_dir, "verify.json"),
            {"checks": [r.to_dict() for r in results], "config": config_to_dict(cfg)},
        )])
    return 1 if n_fail else 0


def cmd_arrival(cfg: RunConfig, out_dir: str | None) -> int:
    out_dir = out_dir or "."
    with at_path("config.grid"):
        grid = grids.build_grid(**cfg.grid._asdict())
    with at_path("config.packet"):
        psi = arrival.build_packet(cfg.packet, grid)
    window = (cfg.time.t_min, cfg.time.t_max)
    with at_path("config.time"):
        dist = arrival.arrival_distribution(psi, cfg.mass, window, cfg.time.n_t)
    table = _csv(
        os.path.join(out_dir, "arrival.csv"),
        "t,Pi_total,Pi_pos,Pi_neg,Pi_interf",
        (dist.t, dist.Pi_total, dist.Pi_pos, dist.Pi_neg, dist.Pi_interf),
    )
    sidecar = {
        "peak_time": dist.peak_time,
        "flux_peak_time": arrival.flux_peak_time(dist.t, dist.J),
        "captured_mass": dist.captured_mass,
        "normalization": dist.normalization,
        "warnings": list(dist.warnings),
        "config": config_to_dict(cfg),
    }
    _write_all(out_dir, [table, _json(os.path.join(out_dir, "arrival.json"), sidecar)])
    return 0


def cmd_eigen(cfg: RunConfig, out_dir: str | None) -> int:
    out_dir = out_dir or "."
    with at_path("config.grid"):
        grid = grids.build_grid(**cfg.grid._asdict())
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
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else config_from_dict(DEFAULT_CONFIG)
        return _COMMANDS[args.command][0](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def launch() -> None:
    """``main`` as a process, ended by ``os._exit`` (see the module docstring)."""
    status = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if status != 2:  # a run that exits 2 has already said why, in one line
            print(f"config error: stdout: {exc}", file=sys.stderr)
        status = 2
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    launch()
