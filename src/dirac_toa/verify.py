"""Invariant checks behind the `verify` subcommand.

Each check computes one scalar residual and compares it against a fixed
tolerance.  Convergence-order checks report |fitted slope - nominal order|
against a 0.5 band; boolean gates report 0.0 / 1.0 against a 0.0 tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import algebra, arrival, eigenfunctions, grids, limits
from .config import RunConfig

__all__ = ["CheckResult", "run_all_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }


def _random_lattice(rng, n: int):
    """Random (m, p, lam, s) labels; a fixed slice is massless."""
    ms = np.exp(rng.uniform(np.log(0.05), np.log(5.0), size=n))
    ms[:: max(1, n // 10)] = 0.0
    ps = rng.uniform(0.2, 8.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    lams = rng.choice([1, -1], size=n)
    ss = rng.choice([0.5, -0.5], size=n)
    return ms, ps, lams, ss


# ---------------------------------------------------------------------------
# spinor checks
# ---------------------------------------------------------------------------

def check_clifford() -> float:
    return algebra.clifford_max_residual()


def check_hermiticity() -> float:
    b = algebra.dirac_basis()
    return float(
        max(
            np.max(np.abs(b.alpha[0] - b.alpha[0].conj().T)),
            np.max(np.abs(b.beta - b.beta.conj().T)),
        )
    )


def check_helicity() -> float:
    worst = 0.0
    for s in (0.5, -0.5):
        e = algebra.helicity_spinor(s)
        worst = max(worst, np.max(np.abs(algebra.SIGMA1 @ e - 2 * s * e)))
        worst = max(worst, abs(np.vdot(e, e) - 1.0))
    e1, e2 = algebra.helicity_spinor(0.5), algebra.helicity_spinor(-0.5)
    worst = max(worst, abs(np.vdot(e1, e2)))
    comp = np.outer(e1, e1.conj()) + np.outer(e2, e2.conj())
    worst = max(worst, np.max(np.abs(comp - np.eye(2))))
    return float(worst)


def check_spinor_norms(rng, n=200) -> float:
    ms, ps, lams, ss = _random_lattice(rng, n)
    worst = 0.0
    for m, p, lam, s in zip(ms, ps, lams, ss):
        phi = algebra.energy_spinor_values(m, np.array([p]), int(lam), float(s))[0]
        worst = max(worst, abs(np.linalg.norm(phi) - 1.0))
        xi = algebra.event_spinor_values(p, np.array([m if m > 0 else 0.0]), int(lam), float(s))[0]
        worst = max(worst, abs(np.linalg.norm(xi) - 1.0))
    return float(worst)


def check_hamiltonian_eigen(rng, n=200) -> float:
    ms, ps, lams, ss = _random_lattice(rng, n)
    worst = 0.0
    for m, p, lam, s in zip(ms, ps, lams, ss):
        phi = algebra.energy_spinor_values(m, np.array([p]), int(lam), float(s))
        h = algebra.apply_h_values(m, np.array([p]), phi)
        E = np.hypot(p, m)
        worst = max(worst, float(np.max(np.abs(h - lam * E * phi))))
    return worst


def check_orthonormality_completeness(rng, n=50) -> float:
    ms, ps, _, _ = _random_lattice(rng, n)
    worst = 0.0
    for m, p in zip(ms, ps):
        spinors = [
            algebra.energy_spinor_values(m, np.array([p]), lam, s)[0]
            for lam in (1, -1)
            for s in (0.5, -0.5)
        ]
        gram = np.array([[np.vdot(a, b) for b in spinors] for a in spinors])
        worst = max(worst, float(np.max(np.abs(gram - np.eye(4)))))
        comp = sum(np.outer(v, v.conj()) for v in spinors)
        worst = max(worst, float(np.max(np.abs(comp - np.eye(4)))))
    return worst


def check_w_relation(rng, n=100) -> float:
    basis = algebra.dirac_basis()
    worst = 0.0
    for _ in range(n):
        m = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        p = float(rng.uniform(0.2, 8.0) * rng.choice([-1.0, 1.0]))
        s = float(rng.choice([0.5, -0.5]))
        w = algebra.w_spinor_values(m, np.array([p]), s)[0]
        phi = algebra.energy_spinor_values(m, np.array([-p]), -1, s)[0]
        rhs = (p / abs(p)) * (basis.Sigma1 @ phi)
        worst = max(worst, float(np.max(np.abs(w - rhs))))
    return worst


def check_duality_bijection(seed: int) -> float:
    return limits.duality_map_max_residual(100, seed)


# ---------------------------------------------------------------------------
# grid checks
# ---------------------------------------------------------------------------

def check_grid_weight_sum(grid) -> float:
    span = grid.p_max - grid.p_min
    return float(abs(np.sum(grid.weights[grid.positive]) - span) / span)


def check_grid_gaussian(grid) -> float:
    total = float(np.sum(grid.weights * np.exp(-grid.nodes**2)))
    exact = float(np.sqrt(np.pi) * (math.erf(grid.p_max) - math.erf(grid.p_min)))
    return abs(total - exact)


def check_grid_odd(grid) -> float:
    return float(abs(np.sum(grid.weights * grid.nodes)))


def check_commutator_analytic(m=1.0) -> float:
    grid = grids.build_grid(1e-3 * max(m, 1e-3), 10.0, 256, 4)
    f = eigenfunctions.time_eigenfunction(2.0, 1, 0.5, m).on_grid(grid)
    return grids.commutator_residual(f, m)


def check_commutator_order(order: int, m=1.0):
    """(|slope - order|, residual sequence) over n in {128, 256, 512}."""
    ns = (128, 256, 512)
    res = []
    for n in ns:
        grid = grids.build_grid(1e-3, 10.0, n, order)
        p = grid.nodes
        vals = np.zeros((grid.n_nodes, 4), dtype=complex)
        vals[:, 0] = np.exp(-((p - 2.0) ** 2) / (2 * 0.3**2))
        f = grids.GridSpinorField(grid, vals)
        res.append(grids.commutator_residual(f, m))
    slope = -np.polyfit(np.log(ns), np.log(res), 1)[0]
    return float(abs(slope - order)), res


def check_measure_identity(grid, m=1.0) -> float:
    h = lambda E: np.exp(-((E - 2.0) ** 2))
    left, right = grids.energy_measure_identity(grid, m, h)
    return abs(left - right)


def check_parseval(grid, m, packet_spec) -> float:
    f = arrival.build_packet(packet_spec, grid)
    g_plus, g_minus = grids.to_energy_rep(f, m)
    total = g_plus.norm_sq() + g_minus.norm_sq()
    return abs(total - f.norm() ** 2)


def check_branch_isolation(grid, m, packet_spec) -> float:
    f = arrival.build_packet(packet_spec, grid)
    _, g_minus = grids.to_energy_rep(f, m)
    return float(np.sqrt(g_minus.norm_sq()))


def check_symmetry_defect(m=1.0) -> float:
    # fine inner resolution so the gap-adjacent node sits close enough to m
    # for (E - m) e^{-(E - m)} to clear the boundary gate
    grid = grids.build_grid(1e-4 * m, 16.0 * m, 1024, 4)
    fn = lambda E: (E - m) * np.exp(-(E - m))
    dfn = lambda E: np.exp(-(E - m)) - (E - m) * np.exp(-(E - m))
    g = grids.energy_function_on_branch(grid, m, 1, fn, dfn)
    return abs(grids.symmetry_defect(g, g))


def check_boundary_rejection(m=1.0) -> float:
    grid = grids.build_grid(1e-3, 16.0, 256, 4)
    g = grids.energy_function_on_branch(grid, m, 1, lambda E: np.exp(-(E - m)))
    try:
        grids.apply_toa_energy(g)
    except ValueError:
        return 0.0
    return 1.0


def check_massless_reduction() -> float:
    """At m = 0 the arrival operator is exactly -alpha_1 (i d/dp)."""
    grid = grids.build_grid(1e-3, 10.0, 128, 4)
    p = grid.nodes
    g = np.exp(-((np.abs(p) - 2.0) ** 2))
    dg = -2.0 * (np.abs(p) - 2.0) * np.sign(p) * g
    spin = np.array([1.0, 0.5j, 0.25, -0.5], dtype=complex)
    vals = g[:, None] * spin
    dvals = dg[:, None] * spin
    f = grids.GridSpinorField(grid, vals, dvals)
    lhs = grids.apply_toa(f, 0.0).values
    rhs = -1j * dvals[:, ::-1]  # -alpha_1 (i f'); alpha_1 reverses components
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# eigenfunction checks
# ---------------------------------------------------------------------------

def check_time_family_residual() -> float:
    worst = 0.0
    for m in (0.0, 0.5, 1.0, 3.0):
        p_min = 1e-3 * m if m > 0 else 1e-3
        grid = grids.build_grid(p_min, 10.0, 256, 4)
        for t in (-5.0, -2.0, 0.0, 1.0, 5.0):
            for lam in (1, -1):
                for s in (0.5, -0.5):
                    f = eigenfunctions.time_eigenfunction(t, lam, s, m).on_grid(grid)
                    tv = grids.apply_toa(f, m)
                    worst = max(
                        worst, grid.norm(tv.values - t * f.values) / f.norm()
                    )
    return worst


def check_position_family_pointwise() -> float:
    worst = 0.0
    for m in (0.0, 1.0, 3.0):
        p_min = 1e-3 * m if m > 0 else 1e-3
        grid = grids.build_grid(p_min, 10.0, 256, 4)
        for x in (-2.0, 0.5, 3.0):
            for lam in (1, -1):
                func = eigenfunctions.position_eigenfunction(x, lam, 0.5, m)
                f = func.on_grid(grid)
                tv = grids.apply_toa(f, m)
                local = func.eigenvalue(grid.nodes)
                worst = max(
                    worst,
                    float(np.max(np.abs(tv.values - local[:, None] * f.values))),
                )
    return worst


def check_event_family_pointwise() -> float:
    worst = 0.0
    for m in (0.0, 1.0, 3.0):
        p_min = 1e-3 * m if m > 0 else 1e-3
        grid = grids.build_grid(p_min, 10.0, 256, 4)
        for x in (-2.0, 3.0):
            for b in (1, -1):
                func = eigenfunctions.event_eigenfunction(x, b, 0.5, m)
                f = func.on_grid(grid)
                tv = grids.apply_toa(f, m)
                local = func.eigenvalue(grid.nodes)
                worst = max(
                    worst,
                    float(np.max(np.abs(tv.values - local[:, None] * f.values))),
                )
    return worst


def check_family_consistency() -> float:
    """Event family equals the position family under lam = b sign(x) sign(p)."""
    worst = 0.0
    grid = grids.build_grid(1e-3, 10.0, 128, 4)
    p = grid.nodes
    pos_half = p > 0
    for m in (0.5, 3.0):
        for x in (-2.0, 3.0):
            for b in (1, -1):
                ev = eigenfunctions.event_eigenfunction(x, b, 0.5, m).value(p)
                for half, sgn in ((pos_half, 1.0), (~pos_half, -1.0)):
                    lam = int(b * np.sign(x) * sgn)
                    po = eigenfunctions.position_eigenfunction(x, lam, 0.5, m).value(p[half])
                    worst = max(worst, float(np.max(np.abs(ev[half] - po))))
    return worst


def check_rational_crosscheck() -> float:
    """-x E / p == -b t_x on exact Pythagorean labels, in Fraction arithmetic."""
    triples = [(3, 4, 5), (6, 8, 10), (5, 12, 13), (8, 15, 17), (20, 21, 29)]
    xs = [Fraction(3), Fraction(-2), Fraction(9, 4), Fraction(7, 2)]
    for m_i, p_i, e_i in triples:
        for sp in (1, -1):
            m, p, E_p = Fraction(m_i), Fraction(sp * p_i), Fraction(e_i)
            for lam in (1, -1):
                for x in xs:
                    t_position = -x * (lam * E_p) / p
                    # event labels: tau = x m / p, t_x = |x| E_p / |p|
                    t_x = abs(x) * E_p / abs(p)
                    tau = x * m / p
                    if t_x * t_x != x * x + tau * tau:
                        return 1.0
                    b = lam * (1 if x > 0 else -1) * (1 if p > 0 else -1)
                    if t_position != -b * t_x:
                        return 1.0
    return 0.0


def check_overlap_orthogonality() -> float:
    grid = grids.build_grid(1e-3, 10.0, 256, 4)
    m, x = 1.0, 1.5
    funcs = [
        eigenfunctions.position_eigenfunction(x, lam, s, m)
        for lam in (1, -1)
        for s in (0.5, -0.5)
    ]
    gram = eigenfunctions.overlap_matrix(funcs, grid)
    off = gram - np.diag(np.diag(gram))
    return float(np.max(np.abs(off)))


def check_delta_concentration() -> float:
    """|width ratio - 2| for the position-family overlap under p_max doubling."""
    m, x = 1.0, 0.0
    widths = []
    for p_max in (10.0, 20.0):
        grid = grids.build_grid(1e-3, p_max, 512, 4)
        ref = eigenfunctions.position_eigenfunction(x, 1, 0.5, m).on_grid(grid)
        dxs = np.linspace(-2.0, 2.0, 801)
        overlap = np.empty_like(dxs)
        for i, dx in enumerate(dxs):
            probe = eigenfunctions.position_eigenfunction(x + dx, 1, 0.5, m).on_grid(grid)
            overlap[i] = abs(grids.inner_product(probe, ref))
        if dxs[np.argmax(overlap)] != 0.0:
            return float("inf")
        half = overlap.max() / 2.0
        above = dxs[overlap >= half]
        widths.append(above[-1] - above[0])
    return float(abs(widths[0] / widths[1] - 2.0))


def check_resynthesis(m=1.0) -> float:
    """Recovery of a reflection-even packet from a dense t-lattice."""
    grid = grids.build_grid(1e-3, 10.0, 384, 4)
    spec = arrival.PacketSpec(m=m, x0=0.0, p0=2.0, sigma_p=0.25)
    f = arrival.build_packet(spec, grid)
    beta_p = f.values[::-1] * algebra._BETA_DIAG
    even = grids.GridSpinorField(grid, f.values + beta_p).normalized()
    ts = np.arange(-20.0, 20.0 + 1e-9, 0.25)
    rec = eigenfunctions.resynthesize_time_family(even, m, ts)
    return grid.norm(rec.values - even.values)


# ---------------------------------------------------------------------------
# arrival checks
# ---------------------------------------------------------------------------

def check_norm_drift(grid, m, packet_spec) -> float:
    f = arrival.build_packet(packet_spec, grid)
    worst = 0.0
    for t in (0.0, 1.0, 5.0, 20.0):
        worst = max(worst, abs(arrival.evolve(f, m, t).norm() - f.norm()))
    return worst


def check_interference_zero(grid, m) -> float:
    spec = arrival.PacketSpec(m=m, x0=-10.0, p0=2.0, sigma_p=0.1)
    f = arrival.build_packet(spec, grid)
    dist = arrival.arrival_distribution(f, m, (-20.0, 43.0), 1261)
    return float(np.max(np.abs(dist.Pi_interf)))


def check_arrival_benchmark(grid):
    """(peak offsets vs classical and flux oracle, distribution, flux data)."""
    m = 1.0
    spec = arrival.PacketSpec(m=m, x0=-10.0, p0=2.0, sigma_p=0.1)
    f = arrival.build_packet(spec, grid)
    window, n_t = (-20.0, 43.0), 1261
    dist = arrival.arrival_distribution(f, m, window, n_t)
    ts, J = arrival.flux_at_origin(f, m, window, n_t)
    classical = 10.0 * np.sqrt(5.0) / 2.0
    flux_peak = float(ts[np.argmax(J)])
    resid = max(
        abs(dist.peak_time - classical),
        abs(flux_peak - classical),
        abs(dist.peak_time - flux_peak),
    )
    return resid, dist, (ts, J)


def check_flux_unit_crossing(grid) -> float:
    m = 1.0
    spec = arrival.PacketSpec(m=m, x0=-10.0, p0=2.0, sigma_p=0.1)
    f = arrival.build_packet(spec, grid)
    ts, J = arrival.flux_at_origin(f, m, (-20.0, 43.0), 1261)
    return abs(float(np.trapezoid(J, ts)) - 1.0)


def check_mirror_symmetry(grid) -> float:
    m = 1.0
    window, n_t = (-20.0, 43.0), 1261
    a = arrival.build_packet(arrival.PacketSpec(m=m, x0=-10.0, p0=2.0, sigma_p=0.1), grid)
    b = arrival.build_packet(arrival.PacketSpec(m=m, x0=10.0, p0=-2.0, sigma_p=0.1), grid)
    da = arrival.arrival_distribution(a, m, window, n_t)
    db = arrival.arrival_distribution(b, m, window, n_t)
    return float(np.max(np.abs(da.Pi_total - db.Pi_total)))


def check_group_velocity(grid) -> float:
    m, t = 1.0, 2.0
    spec = arrival.PacketSpec(m=m, x0=-10.0, p0=2.0, sigma_p=0.5)
    f = arrival.build_packet(spec, grid)
    p = grid.nodes
    E = np.hypot(p, m)
    dens = np.sum(np.abs(f.values) ** 2, axis=1)
    v_mean = float(np.sum(grid.weights * dens * p / E))
    xs = np.linspace(-16.0, -2.0, 701)

    def centroid(time):
        prof = arrival.position_profile(f, m, time, xs)
        rho = np.sum(np.abs(prof) ** 2, axis=1)
        return float(np.trapezoid(xs * rho, xs) / np.trapezoid(rho, xs))

    return abs((centroid(t) - centroid(0.0)) - t * v_mean)


def check_antiparticle_peak(grid) -> float:
    """Negative-branch packet with p0 > 0 arrives at negative t."""
    m = 1.0
    spec = arrival.PacketSpec(m=m, x0=-10.0, p0=2.0, sigma_p=0.1, c_plus=0.0, c_minus=1.0)
    f = arrival.build_packet(spec, grid)
    dist = arrival.arrival_distribution(f, m, (-43.0, 20.0), 1261)
    classical = -10.0 * np.sqrt(5.0) / 2.0
    return abs(dist.peak_time - classical)


def check_nonrel_arrival_l1() -> float:
    m, p0, sigma, x0 = 100.0, 1.0, 0.1, -1.0
    grid = grids.build_grid(0.1, 10.0, 512, 4)
    spec = arrival.PacketSpec(m=m, x0=x0, p0=p0, sigma_p=sigma)
    f = arrival.build_packet(spec, grid)
    t_star = -x0 * np.hypot(p0, m) / p0
    window = (t_star - 2500.0, t_star + 2500.0)
    rel = arrival.arrival_distribution(f, m, window, 1601)
    non = arrival.arrival_distribution_nonrel(f, m, window, 1601)
    return arrival.l1_distance(rel, non)


# ---------------------------------------------------------------------------
# limit checks
# ---------------------------------------------------------------------------

def check_nr_spinor_slope(ratios) -> float:
    rep_u, rep_w = limits.nr_spinor_limit_scan(ratios)
    return max(abs(rep_u.fitted_order - 1.0), abs(rep_w.fitted_order - 1.0))


def check_nr_spinor_leading() -> float:
    u_err, _ = limits.nr_spinor_errors(0.1)
    return abs(u_err - 0.05) / 0.05


def check_nr_eigenvalue_gap() -> float:
    worst = 0.0
    for x in (3.0, -1.5):
        for r in (0.01, 0.3, 2.0):
            t_rel, t_non, gap = limits.nr_eigen_limit_check(x, r, 1.0)
            worst = max(worst, abs(gap / abs(t_non) - (np.hypot(1.0, r) - 1.0)))
    return worst


def check_nr_eigenfunction_ratio() -> float:
    d1 = limits.nr_eigenfunction_limit(1.0, 0.5, 1.0, 0.1)
    d2 = limits.nr_eigenfunction_limit(1.0, 0.5, 1.0, 0.01)
    return max(0.0, 5.0 - d1 / d2)


def check_nr_eigenfunction_order() -> float:
    rep = limits.nr_eigenfunction_limit_scan(1.0, 0.5, 1.0, (0.1, 0.0316, 0.01))
    return max(0.0, 1.0 - rep.fitted_order)


def check_dual_residual() -> float:
    worst = 0.0
    for x in (3.0, -1.2):
        for tau in (0.0, 2.25, -1.0):
            for b in (1, -1):
                ds = limits.dual_solution(x, b, 0.5, tau)
                worst = max(worst, limits.dual_residual(ds))
                worst = max(worst, abs(ds.t**2 - ds.x**2 - ds.tau**2))
    return worst


def check_deficiency(m=1.0) -> float:
    rep = limits.deficiency_diagnostic(m, 10.0 * m)
    ok = (
        rep.n_plus == 1
        and rep.n_minus == 1
        and rep.equal
        and rep.classifications["+i/branch+1"] == "convergent"
        and rep.classifications["-i/branch-1"] == "convergent"
        and rep.classifications["+i/branch-1"] == "divergent"
        and rep.classifications["-i/branch+1"] == "divergent"
    )
    return 0.0 if ok else 1.0


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_all_checks(cfg: RunConfig) -> list:
    rng = np.random.default_rng(cfg.seed)
    m = cfg.mass
    grid = grids.build_grid(
        cfg.grid.p_min, cfg.grid.p_max, cfg.grid.n_points, cfg.grid.deriv_order
    )
    packet_spec = arrival.PacketSpec(
        m=m,
        x0=cfg.packet.x0,
        p0=cfg.packet.p0,
        sigma_p=cfg.packet.sigma_p,
        c_plus=cfg.packet.c_plus,
        c_minus=cfg.packet.c_minus,
        s=cfg.packet.s,
    )
    order_resid, _ = check_commutator_order(cfg.grid.deriv_order)
    bench_resid, _, _ = check_arrival_benchmark(grid)
    results = [
        CheckResult("clifford_algebra", check_clifford(), 1e-15),
        CheckResult("alpha_beta_hermitian", check_hermiticity(), 1e-15),
        CheckResult("helicity_orthonormality", check_helicity(), 1e-15),
        CheckResult("spinor_unit_norm", check_spinor_norms(rng), 1e-13),
        CheckResult("hamiltonian_eigen", check_hamiltonian_eigen(rng), 1e-12),
        CheckResult("spinor_orthonormality_completeness", check_orthonormality_completeness(rng), 1e-13),
        CheckResult("w_relation", check_w_relation(rng), 1e-14),
        CheckResult("duality_bijection", check_duality_bijection(cfg.seed), 1e-12),
        CheckResult("grid_weight_sum", check_grid_weight_sum(grid), 1e-12),
        CheckResult("grid_gaussian_quadrature", check_grid_gaussian(grid), 1e-10),
        CheckResult("grid_odd_integrand", check_grid_odd(grid), 1e-12),
        CheckResult("commutator_analytic", check_commutator_analytic(max(m, 0.5)), 1e-9),
        CheckResult(f"commutator_order_{cfg.grid.deriv_order}", order_resid, 0.5),
        CheckResult("measure_identity", check_measure_identity(grid, max(m, 0.5)), 1e-8),
        CheckResult("energy_parseval", check_parseval(grid, m, packet_spec) if m > 0 else 0.0, 1e-8),
        CheckResult("branch_isolation", check_branch_isolation(grid, m, packet_spec) if m > 0 else 0.0, 1e-12),
        CheckResult("symmetry_defect", check_symmetry_defect(max(m, 0.5)), 1e-8),
        CheckResult("boundary_rejection", check_boundary_rejection(max(m, 0.5)), 0.0),
        CheckResult("massless_reduction", check_massless_reduction(), 1e-14),
        CheckResult("time_family_eigen_residual", check_time_family_residual(), 1e-9),
        CheckResult("position_family_pointwise", check_position_family_pointwise(), 1e-9),
        CheckResult("event_family_pointwise", check_event_family_pointwise(), 1e-9),
        CheckResult("family_label_consistency", check_family_consistency(), 1e-12),
        CheckResult("rational_eigenvalue_crosscheck", check_rational_crosscheck(), 0.0),
        CheckResult("overlap_orthogonality", check_overlap_orthogonality(), 1e-10),
        CheckResult("delta_concentration_width", check_delta_concentration(), 0.4),
        CheckResult("time_family_resynthesis", check_resynthesis(), 1e-6),
        CheckResult("evolution_norm_drift", check_norm_drift(grid, m, packet_spec), 1e-12),
        CheckResult("interference_single_branch", check_interference_zero(grid, max(m, 0.5)), 1e-12),
        CheckResult("arrival_peak_benchmark", bench_resid, 0.5),
        CheckResult("flux_unit_crossing", check_flux_unit_crossing(grid), 1e-2),
        CheckResult("mirror_symmetry", check_mirror_symmetry(grid), 1e-12),
        CheckResult("group_velocity", check_group_velocity(grid), 1e-2),
        CheckResult("antiparticle_reversed_peak", check_antiparticle_peak(grid), 0.5),
        CheckResult("nonrel_arrival_l1", check_nonrel_arrival_l1(), 0.05),
        CheckResult("nr_spinor_slope", check_nr_spinor_slope(cfg.limits.ratios), 0.05),
        CheckResult("nr_spinor_leading_term", check_nr_spinor_leading(), 0.2),
        CheckResult("nr_eigenvalue_gap", check_nr_eigenvalue_gap(), 1e-12),
        CheckResult("nr_eigenfunction_ratio", check_nr_eigenfunction_ratio(), 0.0),
        CheckResult("nr_eigenfunction_order", check_nr_eigenfunction_order(), 0.0),
        CheckResult("dual_residual", check_dual_residual(), 1e-13),
        CheckResult("deficiency_indices", check_deficiency(max(m, 0.5)), 0.0),
    ]
    return results
