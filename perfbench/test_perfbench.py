"""Tests of the benchmark's own parts: tracer arithmetic, output checks,
workload configs and the live-node share."""
from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import outputs  # noqa: E402
from inproc import live_node_share  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, config_for  # noqa: E402


def test_self_time_of_nested_calls():
    # clock reads: outer in, a in, c in, c out, a out, b in, b out, outer out
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    c = tracer.wrap(lambda: None, "m.c", "m")
    a = tracer.wrap(lambda: c(), "m.a", "m")
    b = tracer.wrap(lambda: None, "k.b", "k")

    def body():
        a()
        b()

    tracer.wrap(body, "m.outer", "m")()
    s = tracer.summary()
    fns = s["functions"]
    assert fns["m.outer"]["inclusive_s"] == 10.0
    assert fns["m.outer"]["self_s"] == 6.0  # 10 - a (3) - b (1)
    assert fns["m.a"]["self_s"] == 2.0  # 3 - c (1)
    assert fns["m.c"]["self_s"] == 1.0
    assert fns["k.b"]["self_s"] == 1.0
    assert s["layers"] == {"m": 9.0, "k": 1.0}
    assert s["root_s"] == 10.0


def test_recursive_call_counts_inclusive_time_once():
    ticks = iter([0.0, 1.0, 2.0, 4.0])
    tracer = Tracer(clock=lambda: next(ticks))
    depth = []

    def f():
        depth.append(1)
        if len(depth) < 2:
            g()

    g = tracer.wrap(f, "m.f", "m")
    g()
    fn = tracer.summary()["functions"]["m.f"]
    assert fn["calls"] == 2
    assert fn["inclusive_s"] == 4.0
    assert fn["self_s"] == 4.0


def _write_run(out_dir, data, ref):
    os.makedirs(out_dir)
    rows = "\n".join(",".join(f"{x:.16e}" for x in row) for row in data)
    with open(os.path.join(out_dir, "arrival.csv"), "w", encoding="utf-8") as fh:
        fh.write(outputs.HEADER + "\n" + rows + "\n")
    with open(os.path.join(out_dir, "arrival.json"), "w", encoding="utf-8") as fh:
        json.dump({"peak_time": ref["peak_time"], "flux_peak_time": ref["flux_peak_time"]}, fh)


@pytest.fixture(scope="module")
def dense_reference():
    with open(os.path.join(HERE, "reference", "arrival_dense.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    with np.load(os.path.join(HERE, "reference", "arrival_dense.npz")) as z:
        pi = z["Pi_total"]
    time = WORKLOADS["arrival_dense"]["config"]["time"]
    t = np.linspace(time["t_min"], time["t_max"], time["n_t"])
    # single-branch packet: Pi_pos carries everything
    data = np.column_stack([t, pi, pi, np.zeros_like(pi), np.zeros_like(pi)])
    return ref, pi, data


def test_output_check_accepts_the_reference(tmp_path, dense_reference):
    ref, pi, data = dense_reference
    _write_run(tmp_path / "out", data, ref)
    assert outputs.check_arrival(str(tmp_path / "out"), 0, ref, pi) == []


def test_output_check_rejects_a_small_perturbation(tmp_path, dense_reference):
    ref, pi, data = dense_reference
    bad = data.copy()
    i = int(np.argmax(pi))
    bad[i, 1] += 1e-6
    bad[i, 2] += 1e-6  # keep the branch decomposition consistent
    _write_run(tmp_path / "out", bad, ref)
    problems = outputs.check_arrival(str(tmp_path / "out"), 0, ref, pi)
    assert any("ref" in p for p in problems)


def test_output_check_rejects_nan(tmp_path, dense_reference):
    ref, pi, data = dense_reference
    bad = data.copy()
    bad[10, 3] = np.nan
    _write_run(tmp_path / "out", bad, ref)
    assert outputs.check_arrival(str(tmp_path / "out"), 0, ref, pi) == [
        "non-finite value in arrival.csv"
    ]


def test_output_check_rejects_a_nonzero_exit(tmp_path, dense_reference):
    ref, pi, data = dense_reference
    _write_run(tmp_path / "out", data, ref)
    assert outputs.check_arrival(str(tmp_path / "out"), 1, ref, pi) == ["exit status 1"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_are_valid(name):
    from dirac_toa.config import config_from_dict

    cfg = config_from_dict(config_for(name, 7))
    assert cfg.seed == 7


def test_live_node_share_on_a_hand_built_packet():
    values = np.zeros((10, 4), dtype=complex)
    values[2, 0] = 1.0  # the largest node
    values[3, 1] = 0.5j
    values[4, 3] = 1e-15  # above 1e-16 of the largest: live
    values[5, 2] = 1e-17  # below: not live
    assert live_node_share(values) == pytest.approx(0.3)
