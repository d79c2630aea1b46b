"""Correctness checks on what one CLI run wrote.

Each ``check_*`` returns a list of problems; an empty list means the run
passed.  A run with any problem counts as failed in the benchmark.
"""
from __future__ import annotations

import hashlib
import json
import os

import numpy as np

HEADER = "t,Pi_total,Pi_pos,Pi_neg,Pi_interf"
N_CHECKS = 42
NORM_TOL = 1e-9  # |integral of Pi_total dt - 1|
SUM_TOL = 1e-12  # Pi_total vs Pi_pos + Pi_neg + Pi_interf, relative to the largest term
REF_TOL = 1e-9  # max |Pi_total - ref|, relative to max(ref)
PEAK_TOL = 1e-8  # peak_time and flux_peak_time vs the reference


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_arrival_csv(path: str) -> np.ndarray:
    """The CSV as an (n_t, 5) array; raises ValueError on a bad header or row."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != HEADER:
            raise ValueError(f"unexpected header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 5:
        raise ValueError(f"expected 5 columns, got {data.shape[1]}")
    return data


def _trapezoid(y: np.ndarray, t: np.ndarray) -> float:
    return float(np.sum((y[1:] + y[:-1]) * np.diff(t)) / 2.0)


def check_arrival_table(data: np.ndarray, ref_pi_total: np.ndarray) -> list:
    """Finite values, unit mass, pointwise decomposition and agreement with
    the reference ``Pi_total``."""
    if not np.all(np.isfinite(data)):
        return ["non-finite value in arrival.csv"]
    t, total, pos, neg, interf = data.T
    problems = []
    mass = _trapezoid(total, t)
    if abs(mass - 1.0) > NORM_TOL:
        problems.append(f"integral of Pi_total is {mass!r}, not 1 to {NORM_TOL}")
    scale = max(float(np.max(np.abs(pos) + np.abs(neg) + np.abs(interf))), 1e-300)
    gap = float(np.max(np.abs(total - (pos + neg + interf))))
    if gap > SUM_TOL * scale:
        problems.append(f"Pi_total differs from Pi_pos + Pi_neg + Pi_interf by {gap:.3e}")
    if total.shape != ref_pi_total.shape:
        problems.append(f"{len(total)} t samples, reference has {len(ref_pi_total)}")
    else:
        err = float(np.max(np.abs(total - ref_pi_total)))
        if err > REF_TOL * float(np.max(ref_pi_total)):
            problems.append(f"max |Pi_total - ref| = {err:.3e} exceeds {REF_TOL} * max(ref)")
    return problems


def check_arrival(out_dir: str, returncode: int, ref: dict, ref_pi_total: np.ndarray) -> list:
    """All arrival checks on one output directory; ``ref`` holds the
    reference peak times."""
    if returncode != 0:
        return [f"exit status {returncode}"]
    try:
        data = read_arrival_csv(os.path.join(out_dir, "arrival.csv"))
        with open(os.path.join(out_dir, "arrival.json"), "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = check_arrival_table(data, ref_pi_total)
    for key in ("peak_time", "flux_peak_time"):
        got = sidecar.get(key)
        if not isinstance(got, (int, float)) or abs(got - ref[key]) > PEAK_TOL:
            problems.append(f"{key} = {got!r}, reference {ref[key]!r}")
    return problems


def check_verify(out_dir: str, returncode: int, stdout: str) -> list:
    """Exit 0, the pass line on stdout, and a verify.json with 42 passes."""
    if returncode != 0:
        return [f"exit status {returncode}"]
    problems = []
    if f"{N_CHECKS}/{N_CHECKS} checks passed" not in stdout:
        problems.append(f"stdout lacks '{N_CHECKS}/{N_CHECKS} checks passed'")
    try:
        with open(os.path.join(out_dir, "verify.json"), "r", encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"verify.json unreadable: {exc!r}"]
    if not isinstance(checks, list):
        return problems + ["verify.json: 'checks' is not a list"]
    passed = sum(1 for c in checks if isinstance(c, dict) and c.get("pass") is True)
    if len(checks) != N_CHECKS or passed != N_CHECKS:
        problems.append(f"verify.json holds {passed} passing of {len(checks)} checks")
    return problems
