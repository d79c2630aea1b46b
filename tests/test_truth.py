"""``arrival`` on the default config against continuum truth values.

``truth/default_arrival.json`` holds 30-digit mpmath values of the raw
Pi_total, Pi_pos and J at 35 samples of the config's t lattice, written by
``truth/generate.py`` from the config alone (see its docstring).  The table
is regenerated only when its config changes, never to absorb a program
change, and its bound may be tightened, never loosened.
"""
import importlib.util
import json
from pathlib import Path

import mpmath as mp
import numpy as np

from dirac_toa import arrival, cli, grids
from dirac_toa.config import DEFAULT_CONFIG, config_from_dict, config_to_dict

TRUTH = Path(__file__).with_name("truth")
TABLE = json.loads((TRUTH / "default_arrival.json").read_text(encoding="utf-8"))
# measured max |program - truth| / peak: Pi 3.3e-15 under the SkylakeX, Sandybridge
# and Prescott kernels and 3.6e-15 under Haswell, J 2.7e-15 to 2.8e-15 under all four
BOUND = 5e-15


def _generator():
    spec = importlib.util.spec_from_file_location("truth_generate", TRUTH / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _column(name) -> np.ndarray:
    return np.array([float(row[name]) for row in TABLE["samples"]])


def test_arrival_matches_the_truth_table(tmp_path):
    cfg = config_from_dict(DEFAULT_CONFIG)
    assert config_to_dict(config_from_dict(TABLE["config"])) == config_to_dict(cfg)
    assert cli.main(["arrival", "--out", str(tmp_path)]) == 0
    t, pi_total, pi_pos = np.loadtxt(tmp_path / "arrival.csv", delimiter=",", skiprows=1, usecols=(0, 1, 2)).T
    scale = json.loads((tmp_path / "arrival.json").read_text(encoding="utf-8"))["normalization"]
    # arrival.csv holds no J: the one pass that wrote it gives it
    grid = grids.build_grid(**cfg.grid._asdict())
    dist = arrival.arrival_distribution(arrival.build_packet(cfg.packet, grid), cfg.mass,
                                        (cfg.time.t_min, cfg.time.t_max), cfg.time.n_t)
    idx = [row["index"] for row in TABLE["samples"]]
    assert np.array_equal(t[idx], _column("t"))
    for name, got in (("Pi_total", pi_total * scale), ("Pi_pos", pi_pos * scale), ("J", dist.J)):
        want = _column(name)
        assert np.max(np.abs(got[idx] - want)) <= BOUND * np.max(np.abs(want)), name
    # the table's largest Pi_total is the peak sample of the program's curve
    assert idx[np.argmax(_column("Pi_total"))] == np.argmax(pi_total)


def test_the_generator_reproduces_two_stored_samples():
    gen = _generator()
    cfg = config_from_dict(TABLE["config"])
    rows = TABLE["samples"]
    assert [row["index"] for row in rows] == gen.sample_indices(cfg)
    peak = max(rows, key=lambda row: float(row["Pi_total"]))
    for row in (rows[0], peak):
        values = gen.sample(cfg, float(row["t"]))
        with mp.workdps(gen.DPS):
            for name, value in values.items():
                assert abs(value - mp.mpf(row[name])) <= mp.mpf(10) ** (3 - gen.DPS) * abs(value), (row["index"], name)
