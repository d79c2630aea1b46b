"""The benchmark's traced run still works on the package.

``perfbench/inproc.py trace`` imports ``dirac_toa`` and then reads
``sys.modules["dirac_toa.<layer>"]`` for every layer it wraps, so a layer
that the package does not register there breaks every ``--trace 1`` run.
A per-layer metric whose span's function leaves its module reads null, and
a non-finite one prints as NaN: either leaves a last line that is not a
result.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dirac_toa.config import DEFAULT_CONFIG

ROOT = Path(__file__).resolve().parents[1]


def test_traced_arrival_wraps_every_layer(tmp_path):
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    cfg["grid"]["n_points"] = 32  # 64 nodes
    config, summary = tmp_path / "cfg.json", tmp_path / "trace.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "inproc.py"), "trace", str(summary),
         "arrival", "--config", str(config), "--out", str(tmp_path / "out")],
        env=env, check=True, capture_output=True,
    )
    trace = json.loads(summary.read_text(encoding="utf-8"))
    assert (trace["status"], trace["error"]) == (0, None)
    assert {"arrival.flux_at_origin", "verify.run_all_checks",
            "limits.deficiency_diagnostic"} <= set(trace["wrapped"])


def _no_constant(name):
    raise ValueError(f"the result holds {name}")


@pytest.mark.parametrize("workload", ["arrival_dense", "arrival_broad"])
def test_traced_benchmark_run_prints_a_finite_result(workload):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        env=env, check=True, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_no_constant)
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in (m["name"] for m in spec["per_layer"]):
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (name, value)
        assert math.isfinite(value), (name, value)
