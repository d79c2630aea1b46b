"""Continuum truth values for ``arrival`` on the default config, by mpmath.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/truth/generate.py

It writes ``tests/truth/default_arrival.json``: the raw arrival density
Pi_total, its positive-branch part Pi_pos (both before the window
normalization) and the current J at the origin, as decimal strings of
``DPS`` digits, at every ``STRIDE``-th sample of the config's t lattice and
at the three samples nearest the classical arrival time -x0 E(p0) / p0,
which hold the peak.  The t are the floats that ``arrival.csv``'s t column
holds, np.linspace of the window, taken exactly.  Each value is built from
the config alone, as integrals over the whole momentum line with no grid
and no ``dirac_toa`` numerics: ``config_from_dict`` only parses the config.

With psi(p) = sum_lam c_lam G(p) e^{-i p x0} phi_{lam s}(p), G the unit
Gaussian of width sigma_p, the packet's own helicity s alone carries weight:

    A_lam(t) = c_lam / sqrt(2 pi) int W(p) G(p) e^{-i p x0 - i lam E_p t} dp,
    Pi_total = |A_+ + A_-|^2,  Pi_pos = |A_+|^2,

and psi(t, 0) = (U eta_s ; L sigma_1 eta_s) gives J = 2 Re(conj(U) L), where
U and L sum the same integrals with the spinor's upper and lower factors:
(h, p h / (E + m)) on lam = +1 and (|p| h / (E + m), -sign(p) h) on lam = -1,
h = sqrt((1 + m / E) / 2).
"""
import hashlib
import json
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

from dirac_toa.config import DEFAULT_CONFIG, config_from_dict

DPS = 30
STRIDE = 40
TABLE = Path(__file__).with_name("default_arrival.json")


def sample_indices(cfg) -> list:
    """Every STRIDE-th index of the t lattice, and the three nearest t*."""
    packet, time = cfg.packet, cfg.time
    t_star = -packet.x0 * np.hypot(packet.p0, cfg.mass) / packet.p0
    near = round((t_star - time.t_min) / (time.t_max - time.t_min) * (time.n_t - 1))
    return sorted(set(range(0, time.n_t, STRIDE)) | {near - 1, near, near + 1})


@mp.workdps(DPS)
def sample(cfg, t: float) -> dict:
    """{"Pi_total", "Pi_pos", "J"} at one t, as mpf."""
    pk = cfg.packet
    m, x0, p0, sigma, t = (mp.mpf(v) for v in (cfg.mass, pk.x0, pk.p0, pk.sigma_p, t))
    amp = (2 * mp.pi * sigma * sigma) ** mp.mpf(-0.25)
    # the cusp of W at p = 0 and the Gaussian's core, past which it is below e^-100
    cuts = [-mp.inf, *sorted({mp.mpf(0), p0 - 20 * sigma, p0, p0 + 20 * sigma}), mp.inf]

    def integral(lam: int, factor):
        def f(p):
            E = mp.sqrt(p * p + m * m)
            g = amp * mp.exp(-((p - p0) ** 2) / (4 * sigma * sigma))
            return factor(p, E) * g * mp.expj(-p * x0 - lam * E * t)
        return mp.quad(f, cuts) / mp.sqrt(2 * mp.pi)

    half = lambda E: mp.sqrt((1 + m / E) / 2)
    weight = lambda p, E: mp.sqrt(abs(p) / E)
    factors = {  # (W, upper, lower) per branch
        1: (weight, lambda p, E: half(E), lambda p, E: p * half(E) / (E + m)),
        -1: (weight, lambda p, E: abs(p) * half(E) / (E + m), lambda p, E: -mp.sign(p) * half(E)),
    }
    A, U, L = {1: 0, -1: 0}, 0, 0
    for lam, c in ((1, pk.c_plus), (-1, pk.c_minus)):
        if c != 0:
            c = mp.mpc(c)
            w, upper, lower = (integral(lam, fac) for fac in factors[lam])
            A[lam], U, L = c * w, U + c * upper, L + c * lower
    return {"Pi_total": abs(A[1] + A[-1]) ** 2, "Pi_pos": abs(A[1]) ** 2, "J": 2 * mp.re(mp.conj(U) * L)}


def main() -> None:
    cfg = config_from_dict(DEFAULT_CONFIG)
    ts = np.linspace(cfg.time.t_min, cfg.time.t_max, cfg.time.n_t)
    rows = []
    for i in sample_indices(cfg):
        values = {k: mp.nstr(v, DPS, min_fixed=0, max_fixed=0) for k, v in sample(cfg, float(ts[i])).items()}
        rows.append({"index": i, "t": repr(float(ts[i])), **values})
        print(i, rows[-1]["Pi_total"], file=sys.stderr)
    table = {"config": DEFAULT_CONFIG, "generator_sha256": hashlib.sha256(Path(__file__).read_bytes()).hexdigest(),
             "mpmath": mp.__version__, "dps": DPS, "samples": rows}
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
