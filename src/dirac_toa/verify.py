"""Invariant checks behind the `verify` subcommand.

Each check returns its non-negative residual terms (a scalar, an array or a
list of equal-shaped arrays); ``run_all_checks`` alone folds them, by
``np.max``, so a NaN term fails the check.  Convergence-order checks report
|fitted slope - nominal order| against a band, boolean gates 0.0 / 1.0
against a 0.0 tolerance.  The random-lattice and label checks make one
broadcast call each, the family checks one stack per family and mass.

``CHECKS`` is the one ordered registry of (name, residual, tolerance); both
``run_all_checks`` and the acceptance tests read it.  Each residual takes
the per-run ``_Run``, the run's one scenario: the config and its grid,
one rng that the random-lattice checks draw from in registry order,
and each input that several checks share or a config field decides, built
once by ``_Run.from_config`` under that field's JSON path, so a config the
checks cannot evaluate is a ``ConfigError`` there.  Every fixed packet is
``_BENCH_SPEC`` with fields replaced.  A check that reads a mass reads the
config's: the six energy-side ones run from ``ENERGY_SIDE_MIN_MASS`` on,
and below it, m = 0 included, read 0.0 ``vacuous``.  The symmetric-domain
checks read both spectral branches, lam = +-1, through the same calls.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import algebra, arrival, eigenfunctions, grids, limits
from .config import RunConfig, at_path

__all__ = ["CheckResult", "CHECKS", "check_names", "run_all_checks"]

# the benchmark scenario and its classical arrival time -x0 E / p0
_BENCH_SPEC = arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.1)
_BENCH_WINDOW, _BENCH_NT = (-20.0, 43.0), 1261
_BENCH_ARRIVAL = -_BENCH_SPEC.x0 * np.hypot(_BENCH_SPEC.p0, _BENCH_SPEC.m) / _BENCH_SPEC.p0
# the group-velocity packet, the widest that a check builds on the run grid
_GROUP_SPEC = replace(_BENCH_SPEC, sigma_p=0.5)
# the domain rule of the six energy-side checks, m >= 2.2e-304: the energy
# map needs m > 0, and their m-scaled axes, from 1e-4 m, normal doubles
ENERGY_SIDE_MIN_MASS = np.finfo(float).tiny / 1e-4


class CheckResult(NamedTuple):
    name: str
    max_residual: float
    tolerance: float
    vacuous: bool = False  # 0.0 off the domain rule ENERGY_SIDE_MIN_MASS, not evaluated

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "max_residual": float(self.max_residual) if math.isfinite(self.max_residual) else None,
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }
        return {**out, "vacuous": True} if self.vacuous else out


def _random_lattice(rng, n: int, massless: bool = True):
    """Random (m, p, lam, s) labels; unless ``massless`` is False, a fixed
    slice is massless."""
    ms = np.exp(rng.uniform(np.log(0.05), np.log(5.0), size=n))
    if massless:
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


def check_hermiticity():
    b = algebra.dirac_basis()
    mats = np.stack([b.alpha[0], b.beta])
    return np.abs(mats - mats.conj().swapaxes(-1, -2))


def check_helicity():
    s = np.array([0.5, -0.5])
    e = algebra.helicity_spinor(s)  # one eta_s per row
    eigen = e @ algebra.SIGMA1.T - (2 * s)[:, None] * e
    gram = np.conj(e) @ e.T
    comp = e.T @ np.conj(e)  # sum_s eta_s eta_s^dag
    return np.abs([eigen, gram - np.eye(2), comp - np.eye(2)])


def check_spinor_norms(rng):
    ms, ps, lams, ss = _random_lattice(rng, 200)
    phi = algebra.energy_spinor_values(ms, ps, lams, ss)
    xi = algebra.event_spinor_values(ps, ms, lams, ss)
    norms = np.linalg.norm(np.stack([phi, xi]), axis=-1)
    return np.abs(norms - 1.0)


def check_hamiltonian_eigen(rng):
    ms, ps, lams, ss = _random_lattice(rng, 200)
    phi = algebra.energy_spinor_values(ms, ps, lams, ss)
    h = algebra.apply_h_values(ms, ps, phi)
    E = np.hypot(ps, ms)
    return np.abs(h - (lams * E)[:, None] * phi)


def check_orthonormality_completeness(rng):
    ms, ps, _, _ = _random_lattice(rng, 50)
    # (sample, channel, component): the four (lam, s) spinors at each label
    lam, s = np.array(grids._CHANNELS).T[:, None, :]
    spinors = algebra.energy_spinor_values(ms[:, None], ps[:, None], lam, s)
    gram = np.einsum("nac,nbc->nab", np.conj(spinors), spinors)
    comp = np.einsum("nac,nad->ncd", spinors, np.conj(spinors))
    return np.abs([gram - np.eye(4), comp - np.eye(4)])


def check_w_relation(rng):
    ms, ps, _, ss = _random_lattice(rng, 100, massless=False)
    w = algebra.w_spinor_values(ms, ps, ss)
    phi = algebra.energy_spinor_values(ms, -ps, -1, ss)
    rhs = np.sign(ps)[:, None] * (phi @ algebra.dirac_basis().Sigma1.T)
    return np.abs(w - rhs)


def check_duality_bijection(seed: int):
    """Defect of (x, tau, b t_x) <-> (p, m, lam E_p) on 100 random labels of their
    own seed: the event spinor at x = p, tau = m, b = lam must equal the energy
    spinor, and t = b t_x of ``limits.dual_solution`` must give t^2 - x^2 = tau^2.

    Both spinors come from the one factor rule of ``algebra``, so the spinor
    half is an identity of the code and reads 0; the t^2 - x^2 = tau^2 half
    carries the residual.  The duality's independent evidence is the
    event/position relabeling (``check_family_consistency`` and its property
    test)."""
    ms, ps, lams, ss = _random_lattice(np.random.default_rng(seed), 100, massless=False)
    phi = algebra.energy_spinor_values(ms, ps, lams, ss)
    xi = algebra.event_spinor_values(ps, ms, lams, ss)
    t = lams * np.hypot(ps, ms)
    return np.abs(np.column_stack([phi - xi, t**2 - ps**2 - ms**2]))


# ---------------------------------------------------------------------------
# grid checks
# ---------------------------------------------------------------------------

def check_grid_weight_sum(grid) -> float:
    span = grid.p_max - grid.p_min
    return abs(np.sum(grid.weights[grid.positive]) - span) / span


def check_grid_gaussian(grid) -> float:
    exact = np.sqrt(np.pi) * (math.erf(grid.p_max) - math.erf(grid.p_min))
    return abs(np.sum(grid.weights * np.exp(-grid.nodes**2)) - exact)


def check_grid_odd(grid) -> float:
    return abs(np.sum(grid.weights * grid.nodes))


def check_commutator_analytic(m) -> float:
    # the axis scales with m past m = 1, so p_min < p_max at every mass
    grid = grids.build_grid(1e-3 * max(m, 1e-3), 10.0 * max(m, 1.0), 256, 4)
    f = eigenfunctions.time_eigenfunction(2.0, 1, 0.5, m).on_grid(grid)
    return grids.commutator_residual(f, m)


def check_commutator_order(order: int):
    """(|slope - order|, residual sequence) over n in {128, 256, 512}."""
    ns = (128, 256, 512)
    res = []
    for n in ns:
        grid = grids.build_grid(1e-3, 10.0, n, order)
        p = grid.nodes
        vals = np.zeros((grid.n_nodes, 4), dtype=complex)
        vals[:, 0] = np.exp(-((p - 2.0) ** 2) / (2 * 0.3**2))
        f = grids.GridSpinorField(grid, vals)
        res.append(grids.commutator_residual(f, 1.0))
    slope = -np.polyfit(np.log(ns), np.log(res), 1)[0]
    return abs(slope - order), res


def check_measure_identity(m) -> float:
    """|left - right| / m for h(E) = e^{-(E/m - 2)^2} on the axis 1e-3 m .. 10 m,
    so a relative residual at every m; at m = 1 the default config's grid."""
    grid = grids.build_grid(1e-3 * m, 10.0 * m, 256, 4)
    h = lambda E: np.exp(-((E / m - 2.0) ** 2))
    left, right = grids.energy_measure_identity(grid, m, h)
    return abs(left - right) / m


def check_parseval(f, energy) -> float:
    g_plus, g_minus = energy
    total = g_plus.norm_sq() + g_minus.norm_sq()
    return abs(total - f.norm() ** 2)


def check_branch_isolation(energy, c_minus) -> float:
    """| ||g_-|| - |c_-| |: the lam = -1 branch of the energy map holds the
    packet's own lam = -1 share |c_-|, none for a one-branch packet."""
    return abs(np.sqrt(energy[1].norm_sq()) - abs(c_minus))


def check_symmetry_defect(m) -> list:
    """|<g|Tg> - <Tg|g>| on both branches for g = u e^{-u}, u = (|E| - m)/m, on
    1e-4 m .. 32 m: |g| at node 0 is 1.014e-7 at every m, under BC_TOL max|g| =
    3.7e-7.  dg/dE carries sign(E), so the lam = -1 defect negates the lam = +1 one."""
    grid = grids.build_grid(1e-4 * m, 32.0 * m, 1024, 4)
    u = lambda E: (np.abs(E) - m) / m
    fn = lambda E: u(E) * np.exp(-u(E))
    dfn = lambda E: np.sign(E) * (1.0 - u(E)) * np.exp(-u(E)) / m
    return [abs(grids.symmetry_defect(grids.energy_function_on_branch(grid, m, lam, fn, dfn))) for lam in (1, -1)]


def check_boundary_rejection(m) -> float:
    """0.0 when ``apply_toa_energy`` refuses e^{-(|E| - m)}, which breaks g(+-m) = 0, on both branches."""
    # the axis scales with m past m = 1, so that E_p > m at every node
    grid = grids.build_grid(1e-3 * max(m, 1.0), 16.0 * max(m, 1.0), 256, 4)
    for lam in (1, -1):
        try:
            grids.apply_toa_energy(grids.energy_function_on_branch(grid, m, lam, lambda E: np.exp(-(np.abs(E) - m))))
        except ValueError:
            continue
        return 1.0
    return 0.0


def check_massless_reduction():
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
    return np.abs(lhs - rhs)


# ---------------------------------------------------------------------------
# eigenfunction checks
# ---------------------------------------------------------------------------

def _family_on_grid(family: str, m: float, **labels):
    """(grid, member, f, T f) for the stack of ``family`` members at mass m over
    every combination of the label values, each label an (L, 1) array, on the
    family checks' grid: p_min = 1e-3 m (1e-3 at m = 0)."""
    grid = grids.build_grid(1e-3 * m if m > 0 else 1e-3, 10.0, 256, 4)
    mesh = np.meshgrid(*labels.values(), indexing="ij")
    member = eigenfunctions.ToaEigenfunction(family, m, {k: v.reshape(-1, 1) for k, v in zip(labels, mesh)})
    f = member.on_grid(grid)
    return grid, member, f, grids.apply_toa(f, m)


def check_time_family_residual():
    labels = dict(t=(-5.0, -2.0, 0.0, 1.0, 5.0), lam=(1, -1), s=(0.5, -0.5))
    terms = []
    for m in (0.0, 0.5, 1.0, 3.0):
        grid, member, f, tv = _family_on_grid("time", m, **labels)
        terms.append(grid.norm(tv.values - member.labels["t"][..., None] * f.values) / f.norm())
    return terms


def _family_pointwise(family: str, sign: str, xs) -> list:
    """|T phi - local factor * phi| per mass in {0, 1, 3}, over the labels
    ``xs`` and both values of the ``sign`` label of ``family``, at s = 1/2."""
    terms = []
    for m in (0.0, 1.0, 3.0):
        grid, member, f, tv = _family_on_grid(family, m, x=xs, **{sign: (1, -1)}, s=(0.5,))
        local = member.eigenvalue(grid.nodes)
        terms.append(np.abs(tv.values - local[..., None] * f.values))
    return terms


def check_position_family_pointwise():
    return _family_pointwise("position", "lam", (-2.0, 0.5, 3.0))


def check_event_family_pointwise():
    return _family_pointwise("event", "b", (-2.0, 3.0))


def check_family_consistency():
    """Event family equals the position family under lam = b sign(x) sign(p),
    node by node, over the labels and the masses 0.5 and 3 as one stack."""
    p = grids.build_grid(1e-3, 10.0, 128, 4).nodes
    m, x, b = (a.reshape(-1, 1) for a in np.meshgrid((0.5, 3.0), (-2.0, 3.0), (1, -1), indexing="ij"))
    ev = eigenfunctions.ToaEigenfunction("event", m, {"x": x, "b": b, "s": 0.5})
    lam = b * np.sign(x) * np.sign(p)
    po = eigenfunctions.ToaEigenfunction("position", m, {"x": x, "lam": lam, "s": 0.5})
    return np.abs(ev.value(p) - po.value(p))


def check_rational_crosscheck():
    """The library's position and event eigenvalues against float(Fraction)
    of -x lam E / p and -b t_x on exact Pythagorean labels, where
    t_x^2 = x^2 + tau^2 and -x lam E / p = -b t_x hold in Fraction arithmetic."""
    from fractions import Fraction  # imported here: no other check needs it
    from itertools import product

    triples = [(3, 4, 5), (6, 8, 10), (5, 12, 13), (8, 15, 17), (20, 21, 29)]
    xs = [Fraction(3), Fraction(-2), Fraction(9, 4), Fraction(7, 2)]
    rows = []
    for (m_i, p_i, e_i), sp, lam, x in product(triples, (1, -1), (1, -1), xs):
        m, p, E_p = Fraction(m_i), Fraction(sp * p_i), Fraction(e_i)
        t_position = -x * (lam * E_p) / p
        # event labels: tau = x m / p, t_x = |x| E_p / |p|
        t_x, tau = abs(x) * E_p / abs(p), x * m / p
        b = lam * (1 if x > 0 else -1) * (1 if p > 0 else -1)
        if t_x * t_x != x * x + tau * tau or t_position != -b * t_x:
            return 1.0
        rows.append((m_i, sp * p_i, lam, b, x, t_position))
    m, p, lam, b, x, t = np.array(rows, dtype=float).T
    position = eigenfunctions.ToaEigenfunction("position", m, {"x": x, "lam": lam, "s": 0.5})
    event = eigenfunctions.ToaEigenfunction("event", m, {"x": x, "b": b, "s": 0.5})
    return np.abs([position.eigenvalue(p) - t, event.eigenvalue(p) - t])  # t = -b t_x


def check_overlap_orthogonality():
    grid = grids.build_grid(1e-3, 10.0, 256, 4)
    lam, s = np.array([[1, 1, -1, -1], [0.5, -0.5, 0.5, -0.5]])[..., None]
    f = eigenfunctions.ToaEigenfunction("position", 1.0, {"x": 1.5, "lam": lam, "s": s})
    gram = eigenfunctions.overlap_matrix(f, grid)
    return np.abs(gram - np.diag(np.diag(gram)))


def check_delta_concentration() -> float:
    """|width ratio - 2| for the position-family overlap under p_max doubling.

    The spinor part of phi_x does not depend on x, so the overlap with the
    shifted label is <phi_{x+dx}|phi_x> = sum_j w_j |phi_x(p_j)|^2 e^{i p_j dx},
    the lam = -1 lattice sum with p_j in place of E_j over the dx lattice.
    """
    m, x = 1.0, 0.0
    dxs, lattice = eigenfunctions._time_lattice((-2.0, 2.0), 801)
    widths = []
    for p_max in (10.0, 20.0):
        grid = grids.build_grid(1e-3, p_max, 512, 4)
        ref = eigenfunctions.position_eigenfunction(x, 1, 0.5, m).value(grid.nodes)
        dens = (grid.weights * np.sum(np.abs(ref) ** 2, axis=1))[:, None]
        overlap = np.abs(eigenfunctions._lattice_overlaps(grid.nodes, *lattice, dens, 0)[:, 0])
        if dxs[np.argmax(overlap)] != 0.0:
            return float("inf")
        half = overlap.max() / 2.0
        above = dxs[overlap >= half]
        widths.append(above[-1] - above[0])
    return abs(widths[0] / widths[1] - 2.0)


def check_resynthesis() -> float:
    """Recovery of a reflection-even packet from a dense t-lattice."""
    m = 1.0
    grid = grids.build_grid(1e-3, 10.0, 384, 4)
    spec = arrival.PacketSpec(m=m, x0=0.0, p0=2.0, sigma_p=0.25)
    f = arrival.build_packet(spec, grid)
    beta_p = f.values[::-1] * algebra._BETA_DIAG
    even = grids.GridSpinorField(grid, f.values + beta_p).normalized()
    rec = eigenfunctions.resynthesize_time_family(even, m, (-20.0, 20.0), 161)  # dt = 0.25
    return grid.norm(rec.values - even.values)


# ---------------------------------------------------------------------------
# arrival checks
# ---------------------------------------------------------------------------

def check_norm_drift(f, m):
    evolved = arrival.evolve(f, m, np.array([0.0, 1.0, 5.0, 20.0]))
    return np.abs(evolved.norm() - f.norm())


def check_interference_zero(grid, m, dist):
    """Pi_interf of the benchmark packet, which has one branch, at mass m
    (``dist``, the benchmark distribution, serves when m is its mass), then
    the interference identity I(0)^2 + I(pi/2)^2 = 4 Pi_pos Pi_neg of the raw
    curves per unit of max(raw Pi_total)^2, I(phi) the raw Pi_interf of the
    packet with c_+ = 1/sqrt(2) and c_- = e^{i phi}/sqrt(2).  That packet
    starts at x0 = 0, so both branches cross the origin near t = 0; from
    x0 = -10 they arrive near t = +-11.2 and Pi_pos Pi_neg is about 0."""
    if m != _BENCH_SPEC.m:
        f = arrival.build_packet(replace(_BENCH_SPEC, m=m), grid)
        dist = arrival.arrival_distribution(f, m, _BENCH_WINDOW, _BENCH_NT)
    h = math.sqrt(0.5)
    d, di = (arrival.arrival_distribution(arrival.build_packet(
        replace(_BENCH_SPEC, m=m, x0=0.0, c_plus=h, c_minus=c), grid), m, _BENCH_WINDOW, _BENCH_NT)
        for c in (h, 1j * h))
    r = di.normalization / d.normalization  # I(pi/2) on the scale of d's curves
    identity = np.abs(d.Pi_interf**2 + (r * di.Pi_interf) ** 2 - 4.0 * d.Pi_pos * d.Pi_neg) / np.max(d.Pi_total) ** 2
    return np.concatenate([np.abs(dist.Pi_interf), identity])


def check_arrival_benchmark(dist):
    """The offsets among the distribution peak, the flux peak and the
    classical arrival time of the benchmark packet, peaks by ``arrival.peak_location``
    and ``arrival.flux_peak_time``."""
    flux_peak = arrival.flux_peak_time(dist.t, dist.J)
    return np.abs([dist.peak_time - _BENCH_ARRIVAL, flux_peak - _BENCH_ARRIVAL, dist.peak_time - flux_peak])


def check_flux_unit_crossing(dist) -> float:
    return abs(np.trapezoid(dist.J, dist.t) - 1.0)


def check_mirror_symmetry(grid, dist):
    """Pi_total of the benchmark packet against its mirror image x -> -x."""
    spec = replace(_BENCH_SPEC, x0=-_BENCH_SPEC.x0, p0=-_BENCH_SPEC.p0)
    db = arrival.arrival_distribution(arrival.build_packet(spec, grid), spec.m, _BENCH_WINDOW, _BENCH_NT)
    return np.abs(dist.Pi_total - db.Pi_total)


def check_group_velocity(f) -> float:
    m, t = _GROUP_SPEC.m, 2.0
    p = f.grid.nodes
    E = np.hypot(p, m)
    dens = np.sum(np.abs(f.values) ** 2, axis=1)
    v_mean = float(np.sum(f.grid.weights * dens * p / E))

    def centroid(time):
        xs, prof = arrival.position_profile(f, m, time, (-16.0, -2.0), 701)
        rho = np.sum(np.abs(prof) ** 2, axis=1)
        return float(np.trapezoid(xs * rho, xs) / np.trapezoid(rho, xs))

    return abs((centroid(t) - centroid(0.0)) - t * v_mean)


def check_antiparticle_peak(grid) -> float:
    """The negative-branch benchmark packet arrives at minus its time, in the mirrored window."""
    spec = replace(_BENCH_SPEC, c_plus=0.0, c_minus=1.0)
    window = (-_BENCH_WINDOW[1], -_BENCH_WINDOW[0])
    dist = arrival.arrival_distribution(arrival.build_packet(spec, grid), spec.m, window, _BENCH_NT)
    return abs(dist.peak_time + _BENCH_ARRIVAL)


def check_nonrel_arrival_l1() -> float:
    spec = arrival.PacketSpec(m=100.0, x0=-1.0, p0=1.0, sigma_p=0.1)
    f = arrival.build_packet(spec, grids.build_grid(0.1, 10.0, 512, 4))
    t_star = -spec.x0 * np.hypot(spec.p0, spec.m) / spec.p0
    window = (t_star - 2500.0, t_star + 2500.0)
    rel = arrival.arrival_distribution(f, spec.m, window, 1601)
    non = arrival.arrival_distribution_nonrel(f, spec.m, window, 1601)
    return arrival.l1_distance(rel, non)


# ---------------------------------------------------------------------------
# limit checks
# ---------------------------------------------------------------------------

def check_nr_spinor_slope(reports):
    return np.abs([rep.fitted_order - 1.0 for rep in reports])


def check_nr_spinor_leading() -> float:
    u_err, _ = limits.nr_spinor_errors(0.1)
    return abs(u_err - 0.05) / 0.05


def check_nr_eigenvalue_gap():
    x, r = np.meshgrid((3.0, -1.5), (0.01, 0.3, 2.0, -0.01, -0.3, -2.0), indexing="ij")
    _, t_non, gap = limits.nr_eigen_limit_check(x, r, 1.0)
    return np.abs(gap / np.abs(t_non) - (np.hypot(1.0, r) - 1.0))


def check_nr_eigenfunction_ratio():
    d1, d2 = limits.nr_eigenfunction_limit(1.0, 0.5, 1.0, (0.1, 0.01))
    return np.maximum(0.0, 5.0 - d1 / d2)


def check_nr_eigenfunction_order():
    rep = limits.nr_eigenfunction_limit_scan(1.0, 0.5, 1.0, (0.1, 0.0316, 0.01))
    return np.maximum(0.0, 1.0 - rep.fitted_order)


def check_dual_residual():
    x, tau, b = np.meshgrid((3.0, -1.2), (0.0, 2.25, -1.0), (1, -1), indexing="ij")
    ds = limits.dual_solution(x, b, 0.5, tau)
    return [limits.dual_residual(ds), np.abs(ds.t**2 - ds.x**2 - ds.tau**2)]


# the deficiency solution e^{-+E} of each equation T^dag phi = +-i phi decays on
# one branch only, so each equation has one normalizable solution: indices (1, 1)
_DEFICIENCY_CLASSES = {"+i/branch+1": "convergent", "+i/branch-1": "divergent",
                       "-i/branch+1": "divergent", "-i/branch-1": "convergent"}


def check_deficiency(m) -> float:
    rep = limits.deficiency_diagnostic(m, 10.0 * m)
    return 0.0 if (rep.classifications, rep.n_plus, rep.n_minus) == (_DEFICIENCY_CLASSES, 1, 1) else 1.0


# ---------------------------------------------------------------------------
# registry and driver
# ---------------------------------------------------------------------------

class _Run(NamedTuple):
    """The run's scenario, each input built once; see the module docstring."""

    cfg: RunConfig
    rng: np.random.Generator
    grid: grids.MomentumGrid
    psi: grids.GridSpinorField
    energy: tuple | None  # to_energy_rep(psi, m) from ENERGY_SIDE_MIN_MASS on
    group: grids.GridSpinorField
    nr_spinor: tuple
    dist: arrival.ArrivalDistribution

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "_Run":
        with at_path("config.grid"):
            grid = grids.build_grid(**cfg.grid._asdict())
            # _GROUP_SPEC reaches furthest of the fixed packets put on this grid
            group = arrival.build_packet(_GROUP_SPEC, grid)
        with at_path("config.packet"):
            psi = arrival.build_packet(cfg.packet, grid)
        with at_path("config.limits.ratios"):
            nr_spinor = limits.nr_spinor_limit_scan(cfg.limits.ratios)
        with at_path("config.grid.p_min"):
            energy = grids.to_energy_rep(psi, cfg.mass) if cfg.mass >= ENERGY_SIDE_MIN_MASS else None
        bench = arrival.build_packet(_BENCH_SPEC, grid)
        dist = arrival.arrival_distribution(bench, _BENCH_SPEC.m, _BENCH_WINDOW, _BENCH_NT)
        rng = np.random.default_rng(cfg.seed)
        return cls(cfg, rng, grid, psi, energy, group, nr_spinor, dist)


# (name, residual of a _Run, tolerance), in report order; None marks a check
# vacuous (no energy map).  The lambdas look the check functions up at call
# time, so rebinding a module attribute (as a tracer does) reaches every run.
CHECKS = (
    ("clifford_algebra", lambda r: check_clifford(), 1e-15),
    ("alpha_beta_hermitian", lambda r: check_hermiticity(), 1e-15),
    ("helicity_orthonormality", lambda r: check_helicity(), 1e-15),
    ("spinor_unit_norm", lambda r: check_spinor_norms(r.rng), 1e-13),
    ("hamiltonian_eigen", lambda r: check_hamiltonian_eigen(r.rng), 1e-12),
    ("spinor_orthonormality_completeness", lambda r: check_orthonormality_completeness(r.rng), 1e-13),
    ("w_relation", lambda r: check_w_relation(r.rng), 1e-14),
    ("duality_bijection", lambda r: check_duality_bijection(r.cfg.seed), 1e-12),
    ("grid_weight_sum", lambda r: check_grid_weight_sum(r.grid), 1e-12),
    ("grid_gaussian_quadrature", lambda r: check_grid_gaussian(r.grid), 1e-10),
    ("grid_odd_integrand", lambda r: check_grid_odd(r.grid), 1e-12),
    ("commutator_analytic", lambda r: check_commutator_analytic(r.cfg.mass), 1e-9),
    ("commutator_order_{deriv_order}", lambda r: check_commutator_order(r.cfg.grid.deriv_order)[0], 0.5),
    ("measure_identity", lambda r: check_measure_identity(r.cfg.mass) if r.energy else None, 1e-8),
    ("energy_parseval", lambda r: check_parseval(r.psi, r.energy) if r.energy else None, 1e-8),
    ("branch_isolation", lambda r: check_branch_isolation(r.energy, r.cfg.packet.c_minus) if r.energy else None, 1e-12),
    ("symmetry_defect", lambda r: check_symmetry_defect(r.cfg.mass) if r.energy else None, 1e-8),
    ("boundary_rejection", lambda r: check_boundary_rejection(r.cfg.mass) if r.energy else None, 0.0),
    ("massless_reduction", lambda r: check_massless_reduction(), 1e-14),
    ("time_family_eigen_residual", lambda r: check_time_family_residual(), 1e-9),
    ("position_family_pointwise", lambda r: check_position_family_pointwise(), 1e-9),
    ("event_family_pointwise", lambda r: check_event_family_pointwise(), 1e-9),
    ("family_label_consistency", lambda r: check_family_consistency(), 1e-12),
    ("rational_eigenvalue_crosscheck", lambda r: check_rational_crosscheck(), 0.0),
    ("overlap_orthogonality", lambda r: check_overlap_orthogonality(), 1e-10),
    ("delta_concentration_width", lambda r: check_delta_concentration(), 0.4),
    ("time_family_resynthesis", lambda r: check_resynthesis(), 1e-6),
    ("evolution_norm_drift", lambda r: check_norm_drift(r.psi, r.cfg.mass), 1e-12),
    ("interference_single_branch", lambda r: check_interference_zero(r.grid, r.cfg.mass, r.dist), 1e-12),
    ("arrival_peak_benchmark", lambda r: check_arrival_benchmark(r.dist), 0.5),
    ("flux_unit_crossing", lambda r: check_flux_unit_crossing(r.dist), 1e-4),
    ("mirror_symmetry", lambda r: check_mirror_symmetry(r.grid, r.dist), 1e-12),
    ("group_velocity", lambda r: check_group_velocity(r.group), 1e-2),
    ("antiparticle_reversed_peak", lambda r: check_antiparticle_peak(r.grid), 0.5),
    ("nonrel_arrival_l1", lambda r: check_nonrel_arrival_l1(), 0.05),
    ("nr_spinor_slope", lambda r: check_nr_spinor_slope(r.nr_spinor), 0.05),
    ("nr_spinor_leading_term", lambda r: check_nr_spinor_leading(), 0.2),
    ("nr_eigenvalue_gap", lambda r: check_nr_eigenvalue_gap(), 1e-12),
    ("nr_eigenfunction_ratio", lambda r: check_nr_eigenfunction_ratio(), 0.0),
    ("nr_eigenfunction_order", lambda r: check_nr_eigenfunction_order(), 0.0),
    ("dual_residual", lambda r: check_dual_residual(), 1e-13),
    ("deficiency_indices", lambda r: check_deficiency(r.cfg.mass) if r.energy else None, 0.0),
)


def check_names(deriv_order: int) -> list:
    """Registry names as a run with this finite-difference order prints them."""
    return [name.format(deriv_order=deriv_order) for name, _, _ in CHECKS]


def run_all_checks(cfg: RunConfig) -> list:
    run = _Run.from_config(cfg)
    names = check_names(cfg.grid.deriv_order)
    values = [residual(run) for _, residual, _ in CHECKS]
    return [
        CheckResult(name, 0.0 if value is None else float(np.max(value)), tol, value is None)
        for name, value, (_, _, tol) in zip(names, values, CHECKS)
    ]
