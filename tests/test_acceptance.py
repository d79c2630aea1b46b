"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from dirac_toa import algebra, arrival, cli, grids, limits
from dirac_toa.eigenfunctions import (
    event_eigenfunction,
    position_eigenfunction,
    time_eigenfunction,
)


def report(name: str, residual: float, tol: float) -> None:
    verdict = "PASS" if residual <= tol else "FAIL"
    print(f"ACCEPTANCE {name}: max_residual={residual:.3e} tolerance={tol:.1e} {verdict}")
    assert residual <= tol, f"{name}: {residual} > {tol}"


def test_01_clifford_algebra():
    basis = algebra.dirac_basis()
    resid = algebra.clifford_max_residual(basis)
    resid = max(resid, float(np.max(np.abs(basis.alpha[0] - basis.alpha[0].conj().T))))
    resid = max(resid, float(np.max(np.abs(basis.beta - basis.beta.conj().T))))
    report("01_clifford_algebra", resid, 1e-15)


def test_02_spinor_identities():
    rng = np.random.default_rng(20240810)
    basis = algebra.dirac_basis()
    norm_resid = 0.0
    eigen_resid = 0.0
    w_resid = 0.0
    for _ in range(200):
        m = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        if rng.uniform() < 0.1:
            m = 0.0
        p = float(rng.uniform(0.2, 8.0) * rng.choice([-1.0, 1.0]))
        lam = int(rng.choice([1, -1]))
        s = float(rng.choice([0.5, -0.5]))
        phi = algebra.energy_spinor_values(m, np.array([p]), lam, s)
        norm_resid = max(norm_resid, abs(np.linalg.norm(phi[0]) - 1.0))
        xi = algebra.event_spinor_values(p, np.array([m]), lam, s)[0]
        norm_resid = max(norm_resid, abs(np.linalg.norm(xi) - 1.0))
        h = algebra.apply_h_values(m, np.array([p]), phi)
        eigen_resid = max(eigen_resid, float(np.max(np.abs(h - lam * np.hypot(p, m) * phi))))
        if m > 0.0:
            w = algebra.w_spinor_values(m, np.array([p]), s)[0]
            rhs = (p / abs(p)) * (basis.Sigma1 @ algebra.energy_spinor_values(m, np.array([-p]), -1, s)[0])
            w_resid = max(w_resid, float(np.max(np.abs(w - rhs))))
    report("02a_spinor_norms", norm_resid, 1e-13)
    report("02b_hamiltonian_eigen", eigen_resid, 1e-12)
    report("02c_w_relation", w_resid, 1e-14)


def test_03_canonical_commutator():
    residuals = []
    for n in (128, 256, 512):
        grid = grids.build_grid(1e-3, 10.0, n, 4)
        vals = np.zeros((grid.n_nodes, 4), dtype=complex)
        vals[:, 0] = np.exp(-((grid.nodes - 2.0) ** 2) / (2 * 0.3**2))
        residuals.append(grids.commutator_residual(grids.GridSpinorField(grid, vals), 1.0))
    slope = -np.polyfit(np.log([128, 256, 512]), np.log(residuals), 1)[0]
    report("03a_commutator_order4_slope", abs(slope - 4.0), 0.5)
    grid = grids.build_grid(1e-3, 10.0, 256, 4)
    f = time_eigenfunction(2.0, 1, 0.5, 1.0).on_grid(grid)
    report("03b_commutator_analytic", grids.commutator_residual(f, 1.0), 1e-9)


def test_04_eigen_residuals():
    worst15 = 0.0
    for m in (0.0, 0.5, 1.0, 3.0):
        grid = grids.build_grid(1e-3 * m if m > 0 else 1e-3, 10.0, 256, 4)
        for t in (-5.0, -3.0, -1.0, 0.0, 1.0, 2.0, 3.0, 5.0):
            for lam in (1, -1):
                for s in (0.5, -0.5):
                    f = time_eigenfunction(t, lam, s, m).on_grid(grid)
                    tv = grids.apply_toa(f, m)
                    worst15 = max(worst15, grid.norm(tv.values - t * f.values) / f.norm())
    report("04a_time_family_residual", worst15, 1e-9)

    worst_local = 0.0
    for m in (0.0, 1.0, 3.0):
        grid = grids.build_grid(1e-3 * m if m > 0 else 1e-3, 10.0, 256, 4)
        for builder, labels in (
            (position_eigenfunction, [(-2.0, 1), (0.5, -1), (3.0, 1)]),
            (event_eigenfunction, [(-2.0, 1), (3.0, -1)]),
        ):
            for x, sign in labels:
                func = builder(x, sign, 0.5, m)
                f = func.on_grid(grid)
                tv = grids.apply_toa(f, m)
                local = func.eigenvalue(grid.nodes)
                worst_local = max(
                    worst_local,
                    float(np.max(np.abs(tv.values - local[:, None] * f.values))),
                )
    report("04b_pointwise_identity", worst_local, 1e-9)

    # exact-rational cross-check on Pythagorean labels
    exact_ok = True
    for m_i, p_i, e_i in ((3, 4, 5), (6, 8, 10), (5, 12, 13), (8, 15, 17), (20, 21, 29)):
        for x in (Fraction(3), Fraction(-2), Fraction(9, 4), Fraction(7, 2)):
            for lam in (1, -1):
                for sp in (1, -1):
                    m, p, E = Fraction(m_i), Fraction(sp * p_i), Fraction(e_i)
                    tau = x * m / p
                    t_x = abs(x) * E / abs(p)
                    exact_ok &= t_x * t_x == x * x + tau * tau
                    b = lam * (1 if x > 0 else -1) * (1 if p > 0 else -1)
                    exact_ok &= -x * lam * E / p == -b * t_x
    report("04c_rational_crosscheck", 0.0 if exact_ok else 1.0, 0.0)


def test_05_measure_identity_and_parseval():
    m = 1.0
    grid = grids.build_grid(1e-3, 10.0, 256, 4)
    left, right = grids.energy_measure_identity(grid, m, lambda E: np.exp(-((E - 2.0) ** 2)))
    report("05a_measure_identity", abs(left - right), 1e-8)
    f = arrival.build_packet(arrival.PacketSpec(m=m, x0=-10.0, p0=2.0, sigma_p=0.1), grid)
    gp, gm = grids.to_energy_rep(f, m)
    report("05b_parseval", abs(gp.norm_sq() + gm.norm_sq() - f.norm() ** 2), 1e-8)


def test_06_symmetry_and_deficiency():
    m = 1.0
    grid = grids.build_grid(1e-4, 16.0, 1024, 4)
    fn = lambda E: (E - m) * np.exp(-(E - m))
    dfn = lambda E: np.exp(-(E - m)) - (E - m) * np.exp(-(E - m))
    g = grids.energy_function_on_branch(grid, m, 1, fn, dfn)
    report("06a_symmetry_defect", abs(grids.symmetry_defect(g, g)), 1e-8)

    bad_grid = grids.build_grid(1e-3, 16.0, 256, 4)
    bad = grids.energy_function_on_branch(bad_grid, m, 1, lambda E: np.exp(-(E - m)))
    try:
        grids.apply_toa_energy(bad)
        rejected = 1.0
    except ValueError:
        rejected = 0.0
    report("06b_boundary_rejection", rejected, 0.0)

    stable = 0.0
    for e_max in (10.0 * m, 20.0 * m, 40.0 * m):
        rep = limits.deficiency_diagnostic(m, e_max)
        if not (rep.n_plus == 1 and rep.n_minus == 1 and rep.equal):
            stable = 1.0
    report("06c_deficiency_indices", stable, 0.0)


def test_07_arrival_benchmark():
    m = 1.0
    classical = 10.0 * np.sqrt(5.0) / 2.0
    grid = grids.build_grid(1e-3, 10.0, 512, 4)
    f = arrival.build_packet(arrival.PacketSpec(m=m, x0=-10.0, p0=2.0, sigma_p=0.1), grid)
    window, n_t = (-20.0, 43.0), 1261
    dist = arrival.arrival_distribution(f, m, window, n_t)
    ts, J = arrival.flux_at_origin(f, m, window, n_t)
    flux_peak = arrival.peak_location(ts, J)
    report("07a_distribution_peak", abs(dist.peak_time - classical), 0.5)
    report("07b_flux_peak", abs(flux_peak - classical), 0.5)
    report("07c_peak_agreement", abs(dist.peak_time - flux_peak), 0.5)
    report("07d_interference_single_branch", float(np.max(np.abs(dist.Pi_interf))), 1e-12)
    drift = max(
        abs(arrival.evolve(f, m, t).norm() - f.norm()) for t in (0.5, 3.0, 20.0)
    )
    report("07e_norm_drift", drift, 1e-12)


def test_08_nonrelativistic_limit():
    ratios = np.logspace(-4, -1, 7)
    rep_u, rep_w = limits.nr_spinor_limit_scan(ratios)
    slope_resid = max(abs(rep_u.fitted_order - 1.0), abs(rep_w.fitted_order - 1.0))
    report("08a_spinor_error_slope", slope_resid, 0.05)

    gap_resid = 0.0
    for x in (3.0, -1.5):
        for r in (0.01, 0.3, 2.0):
            _, t_non, gap = limits.nr_eigen_limit_check(x, r, 1.0)
            gap_resid = max(gap_resid, abs(gap / abs(t_non) - (np.hypot(1.0, r) - 1.0)))
    report("08b_relative_gap_identity", gap_resid, 1e-12)

    m, p0, sigma, x0 = 100.0, 1.0, 0.1, -1.0
    grid = grids.build_grid(0.1, 10.0, 512, 4)
    f = arrival.build_packet(arrival.PacketSpec(m=m, x0=x0, p0=p0, sigma_p=sigma), grid)
    t_star = -x0 * np.hypot(p0, m) / p0
    window = (t_star - 2500.0, t_star + 2500.0)
    rel = arrival.arrival_distribution(f, m, window, 1601)
    non = arrival.arrival_distribution_nonrel(f, m, window, 1601)
    report("08c_arrival_l1_distance", arrival.l1_distance(rel, non), 0.05)


def test_09_duality():
    worst = 0.0
    exact = True
    for x in (3.0, -1.2, 0.7):
        for tau in (0.0, 2.25, -1.0):
            for b in (1, -1):
                ds = limits.dual_solution(x, b, 0.5, tau)
                worst = max(worst, limits.dual_residual(ds))
                exact &= ds.t**2 - ds.x**2 == pytest.approx(ds.tau**2, abs=1e-13)
    report("09a_dual_residual", worst, 1e-13)
    report("09b_substitution_bijection", limits.duality_map_max_residual(100, seed=20240810), 1e-12)
    report("09c_event_label_identity", 0.0 if exact else 1.0, 0.0)


def test_10_cli_contract(tmp_path):
    cfg_dict = json.loads(json.dumps(cli.DEFAULT_CONFIG))
    cfg_dict["grid"]["n_points"] = 128
    cfg_dict["time"] = {"t_min": -5.0, "t_max": 25.0, "n_t": 601}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict), encoding="utf-8")

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = cli.main(["arrival", "--config", str(cfg_path), "--out", str(out_a)])
    rc_b = cli.main(["arrival", "--config", str(cfg_path), "--out", str(out_b)])
    identical = (
        (out_a / "arrival.csv").read_bytes() == (out_b / "arrival.csv").read_bytes()
        and (out_a / "arrival.json").read_bytes() == (out_b / "arrival.json").read_bytes()
    )
    report("10a_byte_identical_rerun", 0.0 if identical and rc_a == rc_b == 0 else 1.0, 0.0)

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps({**cfg_dict, "grid": {**cfg_dict["grid"], "p_min": 0.0}}))
    status_ok = cli.main(["arrival", "--config", str(bad_path)]) == 2
    report("10b_invalid_config_exit_2", 0.0 if status_ok else 1.0, 0.0)

    lines = (out_a / "arrival.csv").read_text().splitlines()
    schema_ok = lines[0] == "t,Pi_total,Pi_pos,Pi_neg,Pi_interf" and len(lines) == 602
    sci17 = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")
    schema_ok &= all(sci17.match(cell) for cell in lines[1].split(","))
    sidecar = json.loads((out_a / "arrival.json").read_text())
    for key in ("peak_time", "flux_peak_time", "captured_mass", "normalization", "warnings", "config"):
        schema_ok &= key in sidecar
    report("10c_output_schemas", 0.0 if schema_ok else 1.0, 0.0)
