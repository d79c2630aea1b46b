"""``arrival`` against continuum truth values.

``truth/default_arrival.json`` (the default config) and
``truth/broad_arrival.json`` (perfbench's ``arrival_broad``) hold 30-digit
mpmath values of the raw Pi_total, Pi_pos, Pi_neg, Pi_interf and J at 35 and
38 samples of their config's t lattice, written by ``truth/generate.py``
from the config alone (see its docstring).  A table is regenerated only when
its config changes, never to absorb a program change, and its bounds may be
tightened, never loosened.
"""
import hashlib
import importlib.util
import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from dirac_toa import arrival, cli, grids
from dirac_toa.config import config_from_dict, config_to_dict

TRUTH = Path(__file__).with_name("truth")
# the columns, and the one each is measured against: the peak of the raw
# Pi_total for the Pi columns, max |J| for J
SCALE = {"Pi_total": "Pi_total", "Pi_pos": "Pi_total", "Pi_neg": "Pi_total", "Pi_interf": "Pi_total", "J": "J"}
# max |program - truth| / scale per column, as measured under the SkylakeX,
# Haswell, Sandybridge and Prescott kernels, at one and two BLAS threads:
# - default: Pi_total and Pi_pos 3.3e-15 (3.6e-15 under Haswell), Pi_neg
#   6.2e-34 and Pi_interf 2.9e-17 (rounding of a lam = -1 share of about
#   2e-17), J 2.7e-15 to 2.8e-15
# - arrival_broad, the p = 0 gap's error (ROADMAP item 6) under every
#   kernel: Pi_total 2.9e-6, Pi_pos and Pi_neg 2.4e-6, Pi_interf 5.1e-7, J 2.0e-5
BOUNDS = {
    "default_arrival.json": {"Pi_total": 5e-15, "Pi_pos": 5e-15, "Pi_neg": 1e-32, "Pi_interf": 1e-16, "J": 5e-15},
    "broad_arrival.json": {"Pi_total": 4e-6, "Pi_pos": 3e-6, "Pi_neg": 3e-6, "Pi_interf": 1e-6, "J": 3e-5},
}


def _generator():
    spec = importlib.util.spec_from_file_location("truth_generate", TRUTH / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table(name) -> dict:
    return json.loads((TRUTH / name).read_text(encoding="utf-8"))


def _column(table, name) -> np.ndarray:
    return np.array([float(row[name]) for row in table["samples"]])


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_each_table_names_the_generator_that_wrote_it(name):
    # an edit of the generator must be followed by regenerated tables
    digest = hashlib.sha256((TRUTH / "generate.py").read_bytes()).hexdigest()
    assert _table(name)["generator_sha256"] == digest


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_each_table_holds_its_config(name):
    table = _table(name)
    assert config_to_dict(config_from_dict(table["config"])) == config_to_dict(
        config_from_dict(_generator().TABLES[name]))


def _program_errors(name, tmp_path):
    """``arrival`` on the table's config: (max |program - truth| / scale per
    column, the table's sample indices, the program's Pi_total)."""
    table = _table(name)
    cfg = config_from_dict(table["config"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(table["config"]), encoding="utf-8")
    assert cli.main(["arrival", "--config", str(path), "--out", str(tmp_path)]) == 0
    t, *curves = np.loadtxt(tmp_path / "arrival.csv", delimiter=",", skiprows=1).T
    norm = json.loads((tmp_path / "arrival.json").read_text(encoding="utf-8"))["normalization"]
    # arrival.csv holds no J: the one pass that wrote it gives it
    grid = grids.build_grid(**cfg.grid._asdict())
    dist = arrival.arrival_distribution(arrival.build_packet(cfg.packet, grid), cfg.mass,
                                        (cfg.time.t_min, cfg.time.t_max), cfg.time.n_t)
    idx = [row["index"] for row in table["samples"]]
    assert np.array_equal(t[idx], _column(table, "t"))
    got = dict(zip(SCALE, [c[idx] * norm for c in curves] + [dist.J[idx]]))
    errors = {k: np.max(np.abs(got[k] - _column(table, k))) / np.max(np.abs(_column(table, s)))
              for k, s in SCALE.items()}
    return errors, idx, curves[0]


def test_arrival_matches_the_truth_table(tmp_path):
    errors, idx, pi_total = _program_errors("default_arrival.json", tmp_path)
    assert all(errors[k] <= bound for k, bound in BOUNDS["default_arrival.json"].items()), errors
    # the table's largest Pi_total is the peak sample of the program's curve
    table = _table("default_arrival.json")
    assert idx[np.argmax(_column(table, "Pi_total"))] == np.argmax(pi_total)


def test_broad_arrival_matches_its_truth_table(tmp_path):
    # its samples nearest the classical arrival times +-10.198 miss the humps'
    # peaks, at +-10.26, so no peak is compared
    errors, _, _ = _program_errors("broad_arrival.json", tmp_path)
    assert all(errors[k] <= bound for k, bound in BOUNDS["broad_arrival.json"].items()), errors


def test_the_generator_reproduces_two_stored_samples():
    # the broad table's samples cost 1-5 s each, so only its indices are recomputed
    gen = _generator()
    for name in BOUNDS:
        table = _table(name)
        assert [row["index"] for row in table["samples"]] == gen.sample_indices(config_from_dict(table["config"]))
    table = _table("default_arrival.json")
    cfg = config_from_dict(table["config"])
    rows = table["samples"]
    peak = max(rows, key=lambda row: float(row["Pi_total"]))
    for row in (rows[0], peak):
        values = gen.sample(cfg, float(row["t"]))
        with mp.workdps(gen.DPS):
            for name, value in values.items():
                assert abs(value - mp.mpf(row[name])) <= mp.mpf(10) ** (3 - gen.DPS) * abs(value), (row["index"], name)
