"""CLI contract tests: exit statuses, file schemas, byte-identical reruns."""
import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirac_toa import cli, limits
from dirac_toa.config import DEFAULT_CONFIG, ConfigError, config_from_dict, config_to_dict, load_config

SCI17 = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            cfg[section][field] = value
        else:
            cfg[section] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def small_arrival_config(tmp_path, **extra):
    overrides = {
        "grid.n_points": 128,
        "time.t_min": -5.0,
        "time.t_max": 25.0,
        "time.n_t": 601,
    }
    overrides.update(extra)
    return write_config(tmp_path, **overrides)


FINITE_FIELDS = (
    ("mass", "config.mass"),
    ("grid.p_max", "config.grid.p_max"),
    ("packet.x0", "config.packet.x0"),
    ("time.t_max", "config.time.t_max"),
)


@pytest.mark.parametrize(
    "overrides, where",
    [
        pytest.param({"grid.p_min": 0.0}, "config.grid", id="grid.p_min-zero"),
        pytest.param({"mass": 10**400}, "config.mass", id="mass-int-overflow"),
        pytest.param(
            {"time.t_min": -1e308, "time.t_max": 1e308}, "config.time", id="time-span-overflow"
        ),
        pytest.param({"seed": -5}, "config.seed", id="seed-negative"),
    ]
    + [
        pytest.param({key: bad}, where, id=f"{key}-{bad}")
        for key, where in FINITE_FIELDS
        for bad in (float("nan"), float("inf"), float("-inf"))
    ]
    + [
        pytest.param({"packet.c_plus": [1.0, bad]}, "config.packet.c_plus[1]", id=f"packet.c_plus[1]-{bad}")
        for bad in (float("nan"), float("inf"), float("-inf"))
    ],
)
def test_invalid_config_exit_2(tmp_path, capsys, overrides, where):
    path = write_config(tmp_path, **overrides)
    assert cli.main(["verify", "--config", path]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, overrides, where",
    [
        # group_velocity's packet needs the grid to cover [-1, 5]
        ("verify", {"grid.p_max": 2.0}, "config.grid: grid covers [-2.0, 2.0]"),
        ("verify", {"grid.p_min": 50.0, "grid.p_max": 60.0}, "config.grid: the packet has no weight"),
        ("verify", {"packet.p0": 9.9}, "config.packet"),
        # E_p = m in double precision at p_min = 1e-3: no energy map
        ("verify", {"mass": 1e6, "grid.n_points": 256}, "config.grid.p_min"),
        ("verify", {"limits.ratios": [0.1, 0.1]}, "config.limits.ratios"),
        ("arrival", {"packet.sigma_p": 1e-300}, "config.packet: the packet has no weight"),
        # the eigenfunction-limit phase m t (q c)^2 / 2 overflows at ratio 1e160
        ("limits", {"limits.ratios": [1.0, 1e160]}, "config.limits.ratios"),
        # the time phase lam E_p t overflows at m = 1e308 (ROADMAP item 2's K
        # phases) and warns until that is mended
        pytest.param(
            "eigen", {"mass": 1e308}, "eigen_00.csv",
            marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),
        ),
        ("limits", {"limits.ratios": [1.0, 1.0]}, "config.limits.ratios"),
        ("limits", {"mass": 1e10, "limits.e_max_factor": 1e300}, "config.limits.e_max_factor"),
        # the eigenfunction distance is finite at unit mass; 10 m overflows
        ("limits", {"mass": 1e308}, "config.limits.e_max_factor"),
    ],
)
def test_validated_config_that_the_library_rejects_exit_2(
    tmp_path, capsys, assert_finite_outputs, command, overrides, where
):
    cfg = write_config(tmp_path, **{"grid.n_points": 64, **overrides})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert where in capsys.readouterr().err
    assert_finite_outputs(out)


@pytest.mark.parametrize(
    "overrides, notes_start",
    [
        # p^2 overflows at |p| >~ 1.3e154; the spinor factors never form it.
        # Every phase E t ~ 1e201 rad is rounding noise, and a note says so
        pytest.param(
            {"packet.sigma_p": 1e197, "packet.p0": 1e199, "grid.p_max": 1e200},
            ("time window holds", "phases E t reach"),
            id="p0-1e199",
        ),
        # and underflows at |p| <~ 1.5e-154
        pytest.param(
            {
                "grid.p_min": 1e-170, "grid.p_max": 1e-160, "packet.p0": 5e-161,
                "packet.sigma_p": 5e-162, "packet.x0": 0.0, "time.t_min": -1.0,
                "time.t_max": 1.0, "time.n_t": 11,
            },
            ("time window captures only",),
            id="p0-5e-161",
        ),
    ],
)
def test_arrival_at_extreme_momenta_writes_finite_files(
    tmp_path, assert_finite_outputs, overrides, notes_start
):
    cfg = write_config(tmp_path, **{"grid.n_points": 64, **overrides})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["arrival", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "arrival.csv").exists()
    assert_finite_outputs(out)
    notes = json.loads((out / "arrival.json").read_text(encoding="utf-8"))["warnings"]
    assert len(notes) == len(notes_start) and all(map(str.startswith, notes, notes_start)), notes


def _nan_eigenfunction_scan(monkeypatch):
    """Make the eigenfunction-limit scan report NaN distances."""
    scan = limits.nr_eigenfunction_limit_scan

    def nan_scan(*args):
        rep = scan(*args)
        return rep._replace(errors=np.full_like(rep.errors, np.nan))

    monkeypatch.setattr(limits, "nr_eigenfunction_limit_scan", nan_scan)


@pytest.mark.parametrize(
    "command, overrides, patch, first",
    [
        # an open defect logged as FOUND in CHANGES.md; a fix of it must give
        # this case another non-finite input, and drop its RuntimeWarning mark.
        # At m = 1e308, the time phase lam E_p t overflows in the lattice tables
        # (ROADMAP item 2's K phases): every curve is NaN
        pytest.param(
            "arrival", {"mass": 1e308}, None, "arrival.csv", id="arrival-arrival.csv",
            marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),
        ),
        pytest.param(
            "limits", {}, _nan_eigenfunction_scan, "limits_eigfun.csv",
            id="limits-limits_eigfun.csv",
        ),
    ],
)
def test_non_finite_output_is_not_written(
    monkeypatch, tmp_path, capsys, assert_finite_outputs, command, overrides, patch, first
):
    if patch:
        patch(monkeypatch)
    cfg = write_config(tmp_path, **{"grid.n_points": 64, **overrides})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"{out / first}: non-finite values, not written" in capsys.readouterr().err
    assert not (out / first).exists()
    assert_finite_outputs(out)


@pytest.mark.parametrize("mass", [1e-160, 1e-300])
def test_limits_at_tiny_mass_writes_finite_files(tmp_path, assert_finite_outputs, mass):
    # (ratio m)^2 underflows at these masses; the eigenfunction weight avoids it
    cfg = write_config(tmp_path, mass=mass, **{"grid.n_points": 64})
    out = tmp_path / "out"
    assert cli.main(["limits", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "limits_eigfun.csv").exists()
    assert_finite_outputs(out)


@pytest.mark.parametrize("mass", [1e-160, 1e-300])
def test_limits_at_tiny_mass_raises_no_warning(tmp_path, mass):
    # the eigenfunction values need no d/dp, whose table is what goes
    # non-finite at these masses
    cfg = write_config(tmp_path, mass=mass, **{"grid.n_points": 64})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["limits", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("mass", [1e-308, 1e-310, 1e-318])
def test_limits_at_subnormal_mass_matches_unit_mass(tmp_path, assert_finite_outputs, mass):
    # the grid weights scaled with ratio m, so their sum went subnormal: the
    # distance read inf at 1e-308 and NaN at 1e-310, and limits exited 2.  It
    # depends on p / m and m t alone, so it differs from the m = 1 run only by
    # the m t = 1 phase: within 1e-5 relative (5.4e-6 at ratio 0.1)
    def distances(m, name):
        cfg = write_config(tmp_path, name=f"{name}.json", mass=m, **{"grid.n_points": 64})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["limits", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        assert_finite_outputs(tmp_path / name)
        return np.loadtxt(tmp_path / name / "limits_eigfun.csv", delimiter=",", skiprows=1)

    tiny, unit = distances(mass, "tiny"), distances(1.0, "unit")
    assert np.array_equal(tiny[:, 0], unit[:, 0])
    assert np.all(np.abs(tiny[:, 1] - unit[:, 1]) <= 1e-5 * unit[:, 1])


_BRANCHES = ("+i/branch+1", "+i/branch-1", "-i/branch+1", "-i/branch-1")


@pytest.mark.parametrize(
    "mass, headline, counts, classes",
    [
        (0.01, True, 1, ("convergent", "divergent", "divergent", "convergent")),
        (0.1, True, 1, ("convergent", "divergent", "divergent", "convergent")),
        (1.0, True, 1, ("convergent", "divergent", "divergent", "convergent")),
        (1e5, True, 1, ("convergent", "divergent", "divergent", "convergent")),
        (1e-6, True, 1, ("convergent", "divergent", "divergent", "convergent")),
    ],
)
def test_deficiency_headline_needs_every_branch_classified(tmp_path, mass, headline, counts, classes):
    # at m <= 0.1 the default axis e_max = 10 m reaches no decay length; the
    # closed form's limit at an infinite cutoff still classifies every branch
    cfg = write_config(tmp_path, mass=mass, **{"grid.n_points": 64})
    out = tmp_path / "lim"
    assert cli.main(["limits", "--config", cfg, "--out", str(out)]) == 0
    d = json.loads((out / "deficiency.json").read_text())
    assert d["equal"] is headline and d["has_self_adjoint_extension"] is headline
    assert (d["n_plus"], d["n_minus"]) == (counts, counts)
    assert d["classifications"] == dict(zip(_BRANCHES, classes))


def test_writers_refuse_non_finite_values(tmp_path):
    for render, args in (
        (cli._csv, ("x", [np.array([1.0, np.inf])])),
        (cli._json, ({"x": float("nan")},)),
    ):
        path = tmp_path / "f"
        with pytest.raises(ConfigError, match="non-finite values, not written"):
            render(str(path), *args)
        assert not path.exists()


@pytest.mark.parametrize(
    "command, overrides, patch, error",
    [
        # limits_spinor.csv renders, limits_eigfun.csv is non-finite
        ("limits", {}, _nan_eigenfunction_scan, "limits_eigfun.csv: non-finite"),
        # eigen_00.csv renders, eigen[1] is past the grid resolution
        (
            "eigen",
            {"eigen": [{"family": "time", "t": 2.0, "lam": 1, "s": 0.5},
                       {"family": "position", "x": 1e6, "lam": 1, "s": 0.5}]},
            None,
            "config.eigen[1]",
        ),
    ],
    ids=["limits", "eigen"],
)
def test_failed_run_writes_nothing(monkeypatch, tmp_path, capsys, command, overrides, patch, error):
    if patch:
        patch(monkeypatch)
    cfg = write_config(tmp_path, **{"grid.n_points": 64, **overrides})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_failed_arrival_sidecar_writes_no_csv(monkeypatch, tmp_path, capsys):
    # arrival.csv renders; a non-finite peak time then fails the sidecar
    monkeypatch.setattr(cli.arrival, "peak_location", lambda ts, ys: float("nan"))
    out = tmp_path / "out"
    assert cli.main(["arrival", "--config", small_arrival_config(tmp_path), "--out", str(out)]) == 2
    assert f"{out / 'arrival.json'}: non-finite values, not written" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "arrival", "eigen", "limits"])
def test_out_that_cannot_be_a_directory_exits_2(monkeypatch, tmp_path, capsys, command):
    from dirac_toa.verify import CheckResult

    # the checks do not matter here: verify.json is written like every other file
    monkeypatch.setattr(cli.verify, "run_all_checks", lambda cfg: [CheckResult("stub", 0.0, 1.0)])
    cfg = small_arrival_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("kept", encoding="utf-8")
    for out in (taken, taken / "sub"):
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: --out {out}: ")
    assert taken.read_text(encoding="utf-8") == "kept"


def test_failed_write_removes_the_files_it_wrote(tmp_path, capsys):
    # arrival.csv is written first; the sidecar's path is a directory
    out = tmp_path / "out"
    (out / "arrival.json").mkdir(parents=True)
    assert cli.main(["arrival", "--config", small_arrival_config(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: --out {out}: ")
    assert not (out / "arrival.csv").exists()
    assert (out / "arrival.json").is_dir()


def _per_cell_csv(header, columns):
    """The per-cell formatter the CSV writer replaced, kept as the reference."""
    rows = [",".join(f"{c[i]:.16e}" for c in columns) for i in range(len(columns[0]))]
    return "\n".join([header, *rows])


def test_csv_text_matches_per_cell_formatter():
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                        1e308, -1e308, np.finfo(float).max, -np.finfo(float).max, 1.0, -1.5])
    columns = [
        np.concatenate([special, rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)])
        for _ in range(5)
    ]
    columns[1] = columns[1][::-1]
    columns[4] = np.arange(len(columns[0]))  # an integer column
    # two full row blocks and a partial one, the same cells repeated
    n_rows = 2 * cli._CSV_ROWS + 37
    blocks = [np.resize(c, n_rows) for c in columns]
    for table in (columns, blocks):
        _, stream = cli._csv("x.csv", "a,b,c,d,e", table)
        assert "".join(stream) == _per_cell_csv("a,b,c,d,e", table)


def test_csv_stream_memory_is_below_the_text_size():
    # 100 000 rows x 5 columns: the text is 11.7 MB, the stream peaked at 0.5 MB
    rng = np.random.default_rng(11)
    columns = [rng.standard_normal(100_000) for _ in range(5)]
    text_bytes = sum(map(len, cli._csv("x.csv", "a,b,c,d,e", columns)[1]))
    tracemalloc.start()
    try:
        _, stream = cli._csv("x.csv", "a,b,c,d,e", columns)
        for _ in stream:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < text_bytes, (peak, text_bytes)


def test_bad_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"mass": 1.0,,}', encoding="utf-8")
    assert cli.main(["arrival", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_oversized_integer_literal_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"mass": ' + "1" * 5000 + "}", encoding="utf-8")
    assert cli.main(["arrival", "--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_config_exit_2(tmp_path):
    assert cli.main(["arrival", "--config", str(tmp_path / "nope.json")]) == 2


def test_verify_failure_exit_1(monkeypatch, capsys):
    from dirac_toa.verify import CheckResult

    monkeypatch.setattr(
        cli.verify, "run_all_checks", lambda cfg: [CheckResult("stub", 1.0, 0.5)]
    )
    assert cli.main(["verify"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_out_round_trips_json(monkeypatch, tmp_path):
    from dirac_toa.verify import CheckResult

    # a numpy residual makes `passed` a numpy.bool_, which json cannot encode
    monkeypatch.setattr(
        cli.verify, "run_all_checks", lambda cfg: [CheckResult("stub", np.float64(1e-3), 1e-2)]
    )
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["checks"] == [
        {"name": "stub", "max_residual": 1e-3, "tolerance": 1e-2, "pass": True}
    ]
    assert report["config"]["mass"] == DEFAULT_CONFIG["mass"]


def test_verify_with_a_nan_residual_exits_1_and_records_null(monkeypatch, tmp_path, capsys):
    # a non-finite residual is a failed check, written as null, not a refused write
    monkeypatch.setattr(cli.verify, "check_clifford", lambda: np.nan)
    assert cli.main(["verify", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.endswith("41/42 checks passed\n")
    checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
    assert checks[0] == {"name": "clifford_algebra", "max_residual": None, "tolerance": 1e-15, "pass": False}
    assert all(c["pass"] for c in checks[1:])


def test_arrival_outputs_and_determinism(tmp_path):
    cfg = small_arrival_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["arrival", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["arrival", "--config", cfg, "--out", str(out_b)]) == 0
    csv_a = (out_a / "arrival.csv").read_bytes()
    csv_b = (out_b / "arrival.csv").read_bytes()
    assert csv_a == csv_b
    assert (out_a / "arrival.json").read_bytes() == (out_b / "arrival.json").read_bytes()

    lines = csv_a.decode().splitlines()
    assert lines[0] == "t,Pi_total,Pi_pos,Pi_neg,Pi_interf"
    assert len(lines) == 1 + 601
    for cell in lines[1].split(","):
        assert SCI17.match(cell), cell

    sidecar = json.loads((out_a / "arrival.json").read_text())
    keys = {"peak_time", "flux_peak_time", "captured_mass", "normalization", "warnings", "config"}
    assert keys <= set(sidecar)
    assert abs(sidecar["peak_time"] - 10.0 * np.sqrt(5.0) / 2.0) <= 0.5
    assert abs(sidecar["flux_peak_time"] - sidecar["peak_time"]) <= 0.5
    assert sidecar["captured_mass"] >= 0.99
    assert sidecar["config"]["packet"]["p0"] == 2.0


def test_arrival_takes_pi_and_j_from_one_pass(monkeypatch, tmp_path):
    # one spectral build and one kernel call serve Pi and J: one _spectral_data
    # call, and the exp tables of each live block of positive nodes built
    # once; the arrival_broad packet on 256 nodes per side keeps both blocks
    # of 128 live
    from dirac_toa import arrival, eigenfunctions, grids

    spectral, tables = [], []
    spectral_data, lattice_phases = grids._spectral_data, eigenfunctions._lattice_phases

    def counted_spectral(*args):
        spectral.append(args)
        return spectral_data(*args)

    def counted_tables(E, *args):
        tables.append(float(E[0]))
        return lattice_phases(E, *args)

    for module in (grids, arrival, eigenfunctions):
        monkeypatch.setattr(module, "_spectral_data", counted_spectral)
    monkeypatch.setattr(eigenfunctions, "_lattice_phases", counted_tables)
    h = 0.7071067811865476
    cfg = write_config(
        tmp_path,
        **{"grid.p_max": 20.0, "grid.n_points": 256, "packet.p0": 5.0, "packet.sigma_p": 1.5,
           "packet.c_plus": [h, 0.0], "packet.c_minus": [0.0, h],
           "time.t_min": -45.0, "time.t_max": 45.0, "time.n_t": 201},
    )
    assert cli.main(["arrival", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(spectral) == 1
    assert len(tables) == 2 and len(set(tables)) == 2


@pytest.mark.parametrize(
    "packet",
    [{"packet.x0": 10.0, "packet.p0": -2.0}, {"packet.c_plus": [0.0, 0.0], "packet.c_minus": [1.0, 0.0]}],
    ids=["leftward", "negative-branch"],
)
def test_flux_peak_time_of_a_leftward_crossing(tmp_path, packet):
    # J < 0 where the packet crosses leftward: the flux peak is the peak of
    # -J, not the end of the window or the far tail of J
    out = tmp_path / "out"
    assert cli.main(["arrival", "--config", write_config(tmp_path, **packet), "--out", str(out)]) == 0
    sidecar = json.loads((out / "arrival.json").read_text())
    assert abs(abs(sidecar["peak_time"]) - 10.0 * np.sqrt(5.0) / 2.0) <= 0.5
    assert abs(sidecar["flux_peak_time"] - sidecar["peak_time"]) <= 0.5


def test_verify_peak_residual_matches_arrival_sidecar(tmp_path):
    # the default packet and window are verify's benchmark: both commands
    # locate the two peaks by the same rules, arrival.peak_location and
    # arrival.flux_peak_time
    from dirac_toa.verify import run_all_checks

    assert cli.main(["arrival", "--out", str(tmp_path)]) == 0
    sidecar = json.loads((tmp_path / "arrival.json").read_text())
    peak, flux_peak = sidecar["peak_time"], sidecar["flux_peak_time"]
    classical = 10.0 * np.hypot(2.0, 1.0) / 2.0
    rebuilt = max(abs(peak - classical), abs(flux_peak - classical), abs(peak - flux_peak))
    results = {r.name: r for r in run_all_checks(config_from_dict(DEFAULT_CONFIG))}
    assert results["arrival_peak_benchmark"].max_residual == rebuilt


def test_verify_passes_on_the_broad_two_branch_packet(tmp_path, capsys):
    # the packet and grid of the arrival_broad benchmark workload: c_- != 0
    h = 0.7071067811865476
    cfg = write_config(
        tmp_path,
        **{"grid.p_max": 20.0, "grid.n_points": 1024, "packet.p0": 5.0, "packet.sigma_p": 1.5,
           "packet.c_plus": [h, 0.0], "packet.c_minus": [0.0, h]},
    )
    assert cli.main(["verify", "--config", cfg]) == 0
    assert "42/42 checks passed" in capsys.readouterr().out


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, help_text in (
        ("verify", "run every invariant check and report pass/fail"),
        ("arrival", "compute the arrival-time distribution and flux oracle"),
        ("eigen", "sample eigenfunctions of the arrival operator"),
        ("limits", "nonrelativistic limit tables and deficiency diagnostic"),
    ):
        assert re.search(rf"^\s+{name}\s+{re.escape(help_text)}$", out, re.M), name


def test_arrival_packet_off_grid_exit_2(tmp_path, capsys):
    cfg = small_arrival_config(tmp_path, **{"packet.p0": 9.9})
    assert cli.main(["arrival", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config.packet" in err and "grid covers" in err


def test_arrival_window_without_mass_exit_2(tmp_path, capsys):
    # a window one subnormal wide: the trapezoid integral underflows to 0
    cfg = small_arrival_config(
        tmp_path, **{"time.t_min": 0.0, "time.t_max": 5e-324, "time.n_t": 2}
    )
    assert cli.main(["arrival", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config.time" in err and "no arrival mass" in err


def test_eigen_outputs(tmp_path):
    cfg = write_config(tmp_path, **{"grid.n_points": 64})
    out = tmp_path / "eig"
    assert cli.main(["eigen", "--config", cfg, "--out", str(out)]) == 0
    index = json.loads((out / "eigen.json").read_text())
    assert len(index["eigenfunctions"]) == 3
    lines = (out / "eigen_00.csv").read_text().splitlines()
    assert lines[0] == "p,re_c1,im_c1,re_c2,im_c2,re_c3,im_c3,re_c4,im_c4"
    assert len(lines) == 1 + 128


def test_eigen_massless_constant_spinor_part(tmp_path):
    cfg = write_config(
        tmp_path,
        mass=0.0,
        eigen=[{"family": "position", "x": 1.0, "lam": 1, "s": 0.5}],
        **{"grid.n_points": 64},
    )
    out = tmp_path / "eig0"
    assert cli.main(["eigen", "--config", cfg, "--out", str(out)]) == 0
    data = np.loadtxt(out / "eigen_00.csv", delimiter=",", skiprows=1)
    p = data[:, 0]
    mods = np.hypot(data[:, 1::2], data[:, 2::2])  # |component| per node
    for half in (p > 0, p < 0):
        assert np.max(np.abs(mods[half] - mods[half][0])) <= 1e-12


def test_eigen_label_out_of_range_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        eigen=[{"family": "position", "x": 1e6, "lam": 1, "s": 0.5}],
        **{"grid.n_points": 64},
    )
    assert cli.main(["eigen", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "resolution limit" in capsys.readouterr().err


def test_limits_outputs(tmp_path):
    cfg = write_config(tmp_path, **{"grid.n_points": 64})
    out = tmp_path / "lim"
    assert cli.main(["limits", "--config", cfg, "--out", str(out)]) == 0
    spinor = (out / "limits_spinor.csv").read_text().splitlines()
    assert spinor[0] == "ratio,u_error,w_error"
    assert len(spinor) == 1 + len(DEFAULT_CONFIG["limits"]["ratios"])
    eig = (out / "limits_eigfun.csv").read_text().splitlines()
    assert eig[0] == "ratio,eigfun_distance"
    deficiency = json.loads((out / "deficiency.json").read_text())
    assert deficiency["n_plus"] == 1
    assert deficiency["n_minus"] == 1
    assert deficiency["equal"] is True
    summary = json.loads((out / "limits.json").read_text())
    assert abs(summary["u_slope"] - 1.0) <= 0.05
    assert abs(summary["w_slope"] - 1.0) <= 0.05
    assert summary["eigfun_order"] >= 1.0


def test_limits_requires_positive_mass(tmp_path):
    cfg = write_config(tmp_path, mass=0.0, **{"grid.n_points": 64})
    assert cli.main(["limits", "--config", cfg, "--out", str(tmp_path / "lm")]) == 2


def test_verify_order2_commutator_larger():
    from dirac_toa.verify import check_commutator_order

    _, res2 = check_commutator_order(2)
    _, res4 = check_commutator_order(4)
    assert all(a > b for a, b in zip(res2, res4))


@pytest.mark.parametrize("command", ["verify", "arrival", "eigen", "limits"])
@pytest.mark.parametrize("seed", [pytest.param(-5, id="config")])
def test_negative_seed_exits_2_and_writes_nothing(tmp_path, capsys, command, seed):
    # np.random.default_rng raised a traceback on a negative seed (exit 1)
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_config(tmp_path, seed=seed), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: config.seed")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, field, size",
    [
        pytest.param(command, "grid.n_points", n, id=f"{command}-n_points-{label}")
        for command in ("arrival", "eigen", "verify")
        for n, label in ((2**50, "2^50"), (2**100, "2^100"))
    ]
    + [pytest.param("arrival", "time.n_t", 10**15, id="arrival-n_t-1e15")],
)
def test_oversized_lattice_exits_2_and_writes_nothing(tmp_path, capsys, command, field, size):
    # each first allocation is past the 47-bit address space (2^50 nodes,
    # 1e15 samples) or past an index (2^100), so none takes real memory; a
    # MemoryError or OverflowError ended these runs in a traceback (exit 1)
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_config(tmp_path, **{field: size}), "--out", str(out)]) == 2
    # the message names the cause: a bare MemoryError has none of its own
    section = field.partition(".")[0]
    assert re.match(rf"config error: config\.{section}: \S", capsys.readouterr().err)
    assert not out.exists()


def test_limits_at_tiny_ratios_writes_finite_files(tmp_path, assert_finite_outputs):
    # the spinor errors underflowed to 0 below r ~ 1e-154 and the slopes read NaN
    cfg = write_config(tmp_path, **{"limits.ratios": [1e-160, 1e-200, 1e-300]})
    out = tmp_path / "out"
    assert cli.main(["limits", "--config", cfg, "--out", str(out)]) == 0
    assert_finite_outputs(out)
    table = np.loadtxt(out / "limits_spinor.csv", delimiter=",", skiprows=1)
    assert np.allclose(table[:, 1:], table[:, :1] / 2.0, rtol=1e-12, atol=0.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(
    mass=st.one_of(st.just(0.0), st.floats(-300.0, 5.0).map(lambda e: 10.0**e)),
    seed=st.integers(),
)
@example(mass=1.0, seed=-1)
@example(mass=1e5, seed=2**64)
def test_verify_over_masses_and_seeds(mass, seed):
    with tempfile.TemporaryDirectory() as work:
        path, out = os.path.join(work, "cfg.json"), os.path.join(work, "out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**DEFAULT_CONFIG, "mass": mass, "seed": seed}, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(["verify", "--config", path, "--out", out])
        if seed < 0:
            assert status == 2
            assert err.getvalue().startswith("config error: config.seed")
            assert not os.path.exists(out)
            return
        assert status == 0, err.getvalue()
        with open(os.path.join(out, "verify.json"), encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
    assert len(checks) == 42 and all(c["pass"] for c in checks)


@pytest.mark.parametrize(
    "command, sidecar",
    [
        ("verify", "verify.json"),
        ("arrival", "arrival.json"),
        ("eigen", "eigen.json"),
        ("limits", "limits.json"),
    ],
)
def test_every_sidecar_echoes_config_to_dict(monkeypatch, tmp_path, command, sidecar):
    from dirac_toa.verify import CheckResult

    monkeypatch.setattr(cli.verify, "run_all_checks", lambda cfg: [CheckResult("stub", 0.0, 1.0)])
    cfg = small_arrival_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    echo = json.loads((out / sidecar).read_text())["config"]
    assert echo == config_to_dict(load_config(cfg))
    assert echo["eigen"] == DEFAULT_CONFIG["eigen"]
    assert echo["limits"] == DEFAULT_CONFIG["limits"]


@pytest.mark.parametrize(
    "command, executed",
    [
        ("arrival", []),
        ("eigen", []),
        ("limits", ["dirac_toa.limits"]),
        ("verify", ["dirac_toa.limits", "dirac_toa.verify"]),
    ],
    ids=["arrival", "eigen", "limits", "verify"],
)
def test_a_command_runs_only_the_modules_it_calls(tmp_path, command, executed):
    # both modules are in sys.modules from the package import on; one that
    # has not run is still the lazy loader's module subclass
    code = (
        "import sys, types\n"
        "from dirac_toa import cli\n"
        f"status = cli.main([{command!r}, '--out', {str(tmp_path)!r}])\n"
        "print(status, [n for n in ('dirac_toa.limits', 'dirac_toa.verify')"
        " if type(sys.modules[n]) is types.ModuleType])\n"
    )
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[-1] == f"0 {executed}"


def _launch(*args, stdout=subprocess.PIPE, unbuffered=False):
    """``python -m dirac_toa.cli ARGS`` in a child process, its stdout block
    buffered unless ``unbuffered``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "dirac_toa.cli", *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=300)


@pytest.mark.parametrize("command", ["arrival", "eigen", "limits", "verify"])
def test_main_returns_its_status_and_never_ends_the_process(monkeypatch, tmp_path, capsys, command):
    def refused(status):
        raise AssertionError(f"os._exit({status}) called in process")

    monkeypatch.setattr(os, "_exit", refused)
    config = small_arrival_config(tmp_path)
    assert cli.main([command, "--config", config, "--out", str(tmp_path / "out")]) == 0


def test_launch_passes_warnings_to_stderr_and_writes_complete_files(tmp_path):
    """A packet with |p0| <= 3 sigma_p: through ``python -m`` the warning
    reaches stderr, and both files are those ``main`` writes in process."""
    config = small_arrival_config(tmp_path, **{"packet.p0": 0.25, "packet.x0": -1.0})
    proc = _launch("arrival", "--config", config, "--out", str(tmp_path / "child"))
    assert proc.returncode == 0 and proc.stdout == ""
    assert "|p0| <= 3 sigma_p" in proc.stderr
    with pytest.warns(UserWarning, match="3 sigma_p"):
        assert cli.main(["arrival", "--config", config, "--out", str(tmp_path / "main")]) == 0
    for name in ("arrival.csv", "arrival.json"):
        assert (tmp_path / "child" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()
    assert len((tmp_path / "child" / "arrival.csv").read_text().splitlines()) == 601 + 1


def test_both_launchers_end_through_launch():
    import tomllib

    src = Path(cli.__file__)
    project = tomllib.loads((src.resolve().parents[2] / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["scripts"] == {"dirac-toa": "dirac_toa.cli:launch"}
    assert src.read_text(encoding="utf-8").endswith('\nif __name__ == "__main__":\n    launch()\n')


def test_launch_keeps_argparse_exits():
    shown = _launch("--help")
    assert shown.returncode == 0 and shown.stdout.startswith("usage: dirac-toa")
    refused = _launch("bogus")
    assert refused.returncode == 2 and "invalid choice: 'bogus'" in refused.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["closed-pipe", "dev-full"])
def test_a_stdout_that_cannot_take_the_report_exits_2(sink, unbuffered):
    """``verify`` into a pipe whose reader has gone (``verify | head -1`` once
    head exits) and into ``/dev/full``: one stderr line and status 2, with no
    traceback and no 'Exception ignored' from the stdout flush at exit."""
    if sink == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "w") as full:
            proc = _launch("verify", stdout=full, unbuffered=unbuffered)
        why = f"[Errno {errno.ENOSPC}] No space left on device"
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _launch("verify", stdout=write, unbuffered=unbuffered)
        finally:
            os.close(write)
        why = f"[Errno {errno.EPIPE}] Broken pipe"
    assert proc.stderr == f"config error: stdout: {why}\n"
    assert proc.returncode == 2
