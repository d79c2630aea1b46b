"""Grid construction, finite differences, and discretized-operator tests."""
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_toa import algebra, grids
from dirac_toa.eigenfunctions import time_eigenfunction


@pytest.fixture(scope="module")
def grid256():
    return grids.build_grid(1e-3, 10.0, 256, 4)


def gaussian_bump_field(grid, center=2.0, width=0.3):
    p = grid.nodes
    vals = np.zeros((grid.n_nodes, 4), dtype=complex)
    vals[:, 0] = np.exp(-((p - center) ** 2) / (2 * width**2))
    return grids.GridSpinorField(grid, vals)


def test_build_grid_contract(grid256):
    g = grid256
    assert g.n_nodes == 512
    assert np.all(np.diff(g.nodes) > 0)
    assert not np.any(np.abs(g.nodes) < 1e-3)
    assert np.allclose(g.nodes, -g.nodes[::-1])
    span = g.p_max - g.p_min
    assert abs(np.sum(g.weights[g.positive]) - span) <= 1e-12 * span
    assert abs(np.sum(g.weights[g.negative]) - span) <= 1e-12 * span


@pytest.mark.parametrize("p_range", [(1e-3, 10.0), (1e-12, 1.0), (1.0, 1e200)])
@pytest.mark.parametrize("n_points", [8, 9, 37, 256, 1024])  # 9 and 37 split their panels unevenly
def test_build_grid_halves_are_exact_mirrors(n_points, p_range):
    # the arrival sums fold p and -p on this (eigenfunctions._fold)
    g = grids.build_grid(*p_range, n_points)
    pos, neg = g.positive, g.negative

    def bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    assert np.array_equal(bits(g.nodes[neg]), bits(-g.nodes[pos][::-1]))
    assert np.array_equal(bits(g.weights[neg]), bits(g.weights[pos][::-1]))
    for m in (0.0, 1.0, 1e300):
        E = np.hypot(g.nodes, m)
        assert np.array_equal(bits(E[neg]), bits(E[pos][::-1])), m


def test_build_grid_validation():
    with pytest.raises(ValueError):
        grids.build_grid(0.0, 10.0, 256)
    with pytest.raises(ValueError):
        grids.build_grid(2.0, 1.0, 256)
    with pytest.raises(ValueError):
        grids.build_grid(1e-3, 10.0, 4)
    with pytest.raises(ValueError):
        grids.build_grid(1e-3, 10.0, 256, 3)
    with pytest.raises(ValueError):
        grids.build_grid(1e-3, 10.0, 256, "analytic")


def test_gaussian_quadrature(grid256):
    total = float(np.sum(grid256.weights * np.exp(-grid256.nodes**2)))
    exact = float(np.sqrt(np.pi) * (math.erf(10.0) - math.erf(1e-3)))
    assert abs(total - exact) <= 1e-10


def test_odd_integrand(grid256):
    assert abs(np.sum(grid256.weights * grid256.nodes)) <= 1e-12


def test_fd_weights_uniform_five_point():
    # classic 5-point central first-derivative weights on a uniform grid
    h = 0.1
    x = np.arange(5) * h
    w = grids.fd_weights(x, 2)
    expect = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    assert np.max(np.abs(w - expect)) <= 1e-12 / h


def _fornberg_reference(nodes, x0, max_order):
    """Finite-difference weights on arbitrary nodes by Fornberg's recursion.

    Returns an array c of shape (len(nodes), max_order + 1); column k holds
    the weights of the k-th derivative at x0.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    c = np.zeros((n, max_order + 1))
    c1 = 1.0
    c4 = nodes[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


@st.composite
def stencils(draw):
    """(nodes, evaluation index): 3 or 5 distinct nodes at scales 1e-6..1e6,
    offset by up to 1e3 scales, no two closer than 1e-3 of the scale."""
    k = draw(st.sampled_from([3, 5]))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    offset = draw(st.floats(-1e3, 1e3)) * scale
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=k - 1, max_size=k - 1))
    nodes = offset + scale * np.concatenate([[0.0], np.cumsum(gaps)])
    return nodes, draw(st.integers(0, k - 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(stencils())
def test_fd_weights_match_fornberg_reference(stencil):
    nodes, at = stencil
    ref = _fornberg_reference(nodes, nodes[at], 1)[:, 1]
    w = grids.fd_weights(nodes, at)
    assert np.max(np.abs(w - ref)) <= 16.0 * np.finfo(float).eps * np.sum(np.abs(ref))


def test_fd_weights_broadcast_over_stencils():
    # a table of stencils in one call equals one call per stencil
    rng = np.random.default_rng(5)
    nodes = np.cumsum(rng.uniform(0.1, 1.0, size=(6, 5)), axis=1)
    at = np.array([0, 1, 2, 3, 4, 2])
    table = grids.fd_weights(nodes, at)
    for row, i, w in zip(nodes, at, table):
        assert np.array_equal(w, grids.fd_weights(row, i))


def test_derivative_accuracy_and_order(grid256):
    errs = []
    for g in (grid256, grids.build_grid(1e-3, 10.0, 512, 4)):
        vals = np.sin(g.nodes)[:, None] * np.ones(4)
        d = g.derivative(vals)
        errs.append(np.max(np.abs(d - np.cos(g.nodes)[:, None])))
    assert errs[0] <= 1e-6
    assert errs[0] / errs[1] >= 12.0  # 4th-order refinement


def test_apply_hamiltonian_eigen_property(grid256):
    m = 1.0
    p = grid256.nodes
    E = np.hypot(p, m)
    for lam in (1, -1):
        f = grids.GridSpinorField(grid256, algebra.energy_spinor_values(m, p, lam, 0.5))
        hf = grids.apply_hamiltonian(f, m)
        assert np.max(np.abs(hf.values - lam * E[:, None] * f.values)) <= 1e-12


def test_apply_hamiltonian_massless(grid256):
    p = grid256.nodes
    f = grids.GridSpinorField(grid256, algebra.energy_spinor_values(0.0, p, 1, 0.5))
    hf = grids.apply_hamiltonian(f, 0.0)
    assert np.max(np.abs(hf.values - np.abs(p)[:, None] * f.values)) <= 1e-13


def test_apply_toa_time_eigenfunction(grid256):
    m, t = 1.0, 2.0
    f = time_eigenfunction(t, 1, 0.5, m).on_grid(grid256)
    tv = grids.apply_toa(f, m)
    assert np.max(np.abs(tv.values - t * f.values)) <= 1e-10


def test_commutator_refinement_order4():
    res = []
    for n in (256, 512):
        grid = grids.build_grid(1e-3, 10.0, n, 4)
        res.append(grids.commutator_residual(gaussian_bump_field(grid), 1.0))
    assert res[0] / res[1] >= 12.0


def test_commutator_order2_larger_than_order4():
    out = {}
    for order in (2, 4):
        grid = grids.build_grid(1e-3, 10.0, 256, order)
        out[order] = grids.commutator_residual(gaussian_bump_field(grid), 1.0)
    assert out[2] > out[4]


def test_commutator_analytic_eigenfunction(grid256):
    f = time_eigenfunction(1.5, 1, 0.5, 1.0).on_grid(grid256)
    assert grids.commutator_residual(f, 1.0) <= 1e-9


def test_commutator_zero_field(grid256):
    f = grids.GridSpinorField(grid256, np.zeros((grid256.n_nodes, 4), dtype=complex))
    with pytest.raises(ValueError):
        grids.commutator_residual(f, 1.0)


def apply_toa_nonrel(f, m):
    """Reference: the nonrelativistic arrival operator -m (p^-1 x + x p^-1)/2,
    componentwise, with x = +i d/dp: -i m (1/p) d/dp + i m/(2 p^2).  Its
    eigenfunctions are the overlaps of ``arrival_distribution_nonrel``."""
    p = f.grid.nodes
    df = f.deriv_values if f.deriv_values is not None else f.grid.derivative(f.values)
    out = (-1j * m / p)[:, None] * df + (1j * m / (2.0 * p * p))[:, None] * f.values
    return grids.GridSpinorField(f.grid, out)


def test_apply_toa_nonrel_eigenfunction(grid256):
    # (p^2/m^2)^{1/4} zeta_s e^{i p^2 t / 2m} / sqrt(2 pi) has arrival time t
    m, t = 1.0, 1.7
    zeta = algebra.nr_limit_spinor(1, 0.5)

    def fn(p):
        amp = np.sqrt(np.abs(p) / m) * np.exp(1j * p * p * t / (2 * m)) / np.sqrt(2 * np.pi)
        return amp[:, None] * zeta

    def dfn(p):
        return (1.0 / (2.0 * p) + 1j * p * t / m)[:, None] * fn(p)

    f = grids.GridSpinorField(grid256, fn(grid256.nodes), dfn(grid256.nodes))
    tv = apply_toa_nonrel(f, m)
    assert np.max(np.abs(tv.values - t * f.values)) <= 1e-8


def test_apply_toa_nonrel_constant_field(grid256):
    m = 1.0
    vals = np.ones((grid256.n_nodes, 4), dtype=complex)
    zeros = np.zeros_like(vals)
    f = grids.GridSpinorField(grid256, vals, zeros)
    tv = apply_toa_nonrel(f, m)
    expect = (1j * m / (2.0 * grid256.nodes**2))[:, None] * vals
    assert np.max(np.abs(tv.values - expect)) <= 1e-13
    assert np.max(np.abs(tv.values.real)) == 0.0
    assert np.max(np.abs(tv.values.imag)) > 0.0


def test_apply_toa_nonrel_linearity(grid256):
    rng = np.random.default_rng(5)
    fa = grids.GridSpinorField(grid256, rng.normal(size=(512, 4)) + 1j * rng.normal(size=(512, 4)))
    fb = grids.GridSpinorField(grid256, rng.normal(size=(512, 4)) + 1j * rng.normal(size=(512, 4)))
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    combo = grids.GridSpinorField(grid256, a * fa.values + b * fb.values)
    lhs = apply_toa_nonrel(combo, 1.0).values
    rhs = a * apply_toa_nonrel(fa, 1.0).values + b * apply_toa_nonrel(fb, 1.0).values
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale


def test_massless_reduction_is_position_operator(grid256):
    # at m = 0 the operator acts as -alpha_1 (i d/dp)
    p = grid256.nodes
    g = np.exp(-((np.abs(p) - 2.0) ** 2))
    dg = -2.0 * (np.abs(p) - 2.0) * np.sign(p) * g
    spin = np.array([1.0, 0.5j, 0.25, -0.5], dtype=complex)
    f = grids.GridSpinorField(grid256, g[:, None] * spin, dg[:, None] * spin)
    lhs = grids.apply_toa(f, 0.0).values
    rhs = -1j * (dg[:, None] * spin)[:, ::-1]
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


# ---------------------------------------------------------------------------
# energy representation
# ---------------------------------------------------------------------------

def packet_field(grid, m=1.0, p0=2.0, sigma=0.1, x0=-10.0):
    p = grid.nodes
    g = (2 * np.pi * sigma**2) ** -0.25 * np.exp(-((p - p0) ** 2) / (4 * sigma**2))
    vals = g[:, None] * np.exp(-1j * p * x0)[:, None] * algebra.energy_spinor_values(m, p, 1, 0.5)
    return grids.GridSpinorField(grid, vals).normalized()


def test_to_energy_rep_parseval(grid256):
    f = packet_field(grid256)
    gp, gm = grids.to_energy_rep(f, 1.0)
    assert abs(gp.norm_sq() + gm.norm_sq() - f.norm() ** 2) <= 1e-8
    assert gp.branch == 1 and gm.branch == -1
    assert np.all(gp.nodes > 1.0) and np.all(gm.nodes < -1.0)


def test_to_energy_rep_branch_isolation(grid256):
    f = packet_field(grid256)
    _, gm = grids.to_energy_rep(f, 1.0)
    assert np.sqrt(gm.norm_sq()) <= 1e-12


@pytest.mark.parametrize("m", [1e-3, 1.0, 1e5])
def test_node_0_is_next_to_the_gap_on_both_branches(m):
    # both branches run outward from the gap, lam E_p in the order of the
    # positive momenta, from to_energy_rep and energy_function_on_branch alike
    grid = grids.build_grid(1e-3 * m, 10.0 * m, 64, 4)
    f = grids.GridSpinorField(grid, np.ones((grid.n_nodes, 4)))
    tests = [grids.energy_function_on_branch(grid, m, lam, np.ones_like) for lam in (1, -1)]
    for g in (*grids.to_energy_rep(f, m), *tests):
        assert np.argmin(np.abs(g.nodes - g.branch * m)) == 0
        assert np.all(np.diff(np.abs(g.nodes)) > 0.0)
        assert np.array_equal(g.nodes, g.branch * np.hypot(grid.nodes[grid.positive], m))


def test_to_energy_rep_rejects_massless(grid256):
    f = packet_field(grid256)
    with pytest.raises(ValueError):
        grids.to_energy_rep(f, 0.0)


def test_measure_identity_with_analytic_oracle(grid256):
    m = 1.0
    h = lambda E: np.exp(-((E - 2.0) ** 2))
    left, right = grids.energy_measure_identity(grid256, m, h)
    assert abs(left - right) <= 1e-8
    # independent closed form over the image window on both branches
    e_min, e_max = np.hypot(grid256.p_min, m), np.hypot(grid256.p_max, m)
    exact = np.sqrt(np.pi) / 2 * (
        (math.erf(e_max - 2.0) - math.erf(e_min - 2.0)) + (math.erf(-e_min - 2.0) - math.erf(-e_max - 2.0))
    )
    assert abs(right - exact) <= 1e-10


def test_symmetry_defect_boundary_respecting():
    # g = u e^{-u}, u = (|E| - m)/m, vanishes at the gap and at the far end for
    # every m: |g| = 1.014e-7 at node 0 against BC_TOL max|g| = 3.7e-7, both in
    # the units of g (BC_TOL ||g|| = 5e-7 sqrt(m) refused m < 0.042).  On
    # branch -1, the mirror image, g takes the same values and dg/dE their
    # negation, so the defect is the exact negation of branch +1's
    for m in (1e-6, 1e-3, 0.041, 0.5, 1.0, 20.0, 100.0, 1e3, 1e5):
        grid = grids.build_grid(1e-4 * m, 32.0 * m, 1024, 4)
        u = lambda E: (np.abs(E) - m) / m
        fn = lambda E: u(E) * np.exp(-u(E))
        dfn = lambda E: np.sign(E) * (1.0 - u(E)) * np.exp(-u(E)) / m
        plus, minus = (grids.symmetry_defect(grids.energy_function_on_branch(grid, m, lam, fn, dfn))
                       for lam in (1, -1))
        assert abs(plus) <= 1e-8
        assert minus == -plus


@pytest.mark.parametrize("m", [0.5, 1.0])
def test_symmetry_defect_rejects_far_end(m):
    # (|E| - m) e^{-(|E| - m)} clears the gap gate but not the far end of a 16 m axis
    grid = grids.build_grid(1e-4 * m, 16.0 * m, 1024, 4)
    fn = lambda E: (np.abs(E) - m) * np.exp(-(np.abs(E) - m))
    dfn = lambda E: np.sign(E) * (1.0 - (np.abs(E) - m)) * np.exp(-(np.abs(E) - m))
    for lam in (1, -1):
        g = grids.energy_function_on_branch(grid, m, lam, fn, dfn)
        grids.apply_toa_energy(g)
        with pytest.raises(ValueError, match="truncated end"):
            grids.symmetry_defect(g)


def test_boundary_condition_gate():
    # e^{-(|E| - m)} breaks g(+-m) = 0 on either branch, and the message names the branch
    m = 1.0
    grid = grids.build_grid(1e-3, 16.0, 256, 4)
    for lam in (1, -1):
        g = grids.energy_function_on_branch(grid, m, lam, lambda E: np.exp(-(np.abs(E) - m)))
        with pytest.raises(ValueError, match=re.escape(f"boundary condition g({lam:+d}m) = 0 violated")):
            grids.apply_toa_energy(g)


def test_energy_derivative_is_closed_form_only():
    # a function that meets g(m) = 0 but carries no d/dE is refused by name;
    # one that breaks g(m) = 0 is refused for the boundary condition first
    m = 1.0
    grid = grids.build_grid(1e-3, 16.0, 256, 4)
    g = grids.energy_function_on_branch(grid, m, 1, lambda E: (E - m) ** 2 * np.exp(-(E - m)))
    with pytest.raises(ValueError, match="no closed-form d/dE"):
        grids.apply_toa_energy(g)
    g = grids.energy_function_on_branch(
        grid, m, 1, lambda E: np.exp(-(E - m)), lambda E: -np.exp(-(E - m))
    )
    with pytest.raises(ValueError, match="boundary condition"):
        grids.apply_toa_energy(g)


def test_energy_rep_translation_response():
    # g(E) = e^{i E t0} bump(E): <g|T g>/||g||^2 = t0 exactly for a real bump
    m, t0, center, width = 1.0, 3.0, 5.0, 0.6
    grid = grids.build_grid(1e-4, 16.0, 1024, 4)

    def bump(E):
        return np.exp(-((E - center) ** 2) / (2 * width**2))

    fn = lambda E: np.exp(1j * E * t0) * bump(E)
    dfn = lambda E: (1j * t0 - (E - center) / width**2) * fn(E)
    g = grids.energy_function_on_branch(grid, m, 1, fn, dfn)
    tg = grids.apply_toa_energy(g)
    expval = grids.energy_inner_product(g, tg) / g.norm_sq()
    assert abs(expval - t0) <= 1e-8


def _per_panel_gauss_legendre(a, b, n, panels):
    """The per-panel rule construction the shared rules replaced, kept as the reference."""
    base, rem = divmod(n, panels)
    edges = np.linspace(a, b, panels + 1)
    xs, ws = [], []
    for i in range(panels):
        q = base + (1 if i < rem else 0)
        x0, w0 = np.polynomial.legendre.leggauss(q)
        lo, hi = edges[i], edges[i + 1]
        xs.append(0.5 * (hi - lo) * x0 + 0.5 * (hi + lo))
        ws.append(0.5 * (hi - lo) * w0)
    return np.concatenate(xs), np.concatenate(ws)


@pytest.mark.parametrize(
    "a, b, n, panels",
    [(1e-3, 10.0, 256, 4), (1e-3, 20.0, 1024, 8), (0.1, 7.0, 203, 8), (1e-2, 8.0, 13, 5)],
)
def test_gauss_legendre_panels_match_per_panel_rules(a, b, n, panels):
    # n = 203 and 13 leave a remainder, so two panel sizes share the rules
    nodes, weights = grids._gauss_legendre_panels(a, b, n, panels)
    ref_nodes, ref_weights = _per_panel_gauss_legendre(a, b, n, panels)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(weights, ref_weights)


def test_large_grid_builds_in_bounded_memory():
    # panels hold at most 128 nodes, so each leggauss companion matrix is at
    # most 128 x 128; 8 panels of 2048 nodes would take about 34 MB
    tracemalloc.start()
    try:
        grid = grids.build_grid(1e-3, 10.0, 16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.n_nodes == 32768
    assert peak < 4e6
