"""Eigenfunction-family tests: eigen-residuals, pointwise identities,
cross-family consistency, orthogonality, and t-lattice resynthesis."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirac_toa import algebra, eigenfunctions, grids
from dirac_toa.eigenfunctions import (
    _NODE_BLOCK,
    _fold,
    _lattice_adjoint,
    _lattice_overlaps,
    event_eigenfunction,
    overlap_matrix,
    position_eigenfunction,
    resynthesize_time_family,
    time_eigenfunction,
)
from dirac_toa.algebra import weight_factor, weight_factor_derivative_ratio

SQRT2PI = np.sqrt(2.0 * np.pi)


@pytest.fixture(scope="module")
def grid256():
    return grids.build_grid(1e-3, 10.0, 256, 4)


def test_time_family_zero_phase_is_real(grid256):
    f = time_eigenfunction(0.0, 1, 0.5, 1.0)
    vals = f.value(grid256.nodes)
    assert np.max(np.abs(vals.imag)) == 0.0
    expect = (
        weight_factor(1.0, grid256.nodes)[:, None]
        * algebra.energy_spinor_values(1.0, grid256.nodes, 1, 0.5)
        / np.sqrt(2 * np.pi)
    )
    assert np.max(np.abs(vals - expect)) <= 1e-15


def test_time_family_modulus_independent_of_t(grid256):
    f0 = time_eigenfunction(0.0, 1, 0.5, 1.0).value(grid256.nodes)
    f3 = time_eigenfunction(3.0, 1, 0.5, 1.0).value(grid256.nodes)
    assert np.max(np.abs(np.abs(f3) - np.abs(f0))) <= 1e-14


def test_time_family_eigen_residual_lattice():
    worst = 0.0
    for m in (0.0, 0.5, 1.0, 3.0):
        grid = grids.build_grid(1e-3 * m if m > 0 else 1e-3, 10.0, 256, 4)
        for t in (-5.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 5.0):
            for lam in (1, -1):
                for s in (0.5, -0.5):
                    f = time_eigenfunction(t, lam, s, m).on_grid(grid)
                    tv = grids.apply_toa(f, m)
                    worst = max(worst, grid.norm(tv.values - t * f.values) / f.norm())
    assert worst <= 1e-9


def test_time_family_derivative_vs_finite_difference():
    func = time_eigenfunction(2.0, -1, 0.5, 1.0)
    p = np.array([0.6, -1.7, 3.2])
    h = 1e-5
    fd = (func.value(p + h) - func.value(p - h)) / (2 * h)
    assert np.max(np.abs(func._closed_form(p)[1] - fd)) <= 1e-8


@pytest.mark.filterwarnings("error")
def test_time_family_value_evaluates_no_derivative_at_subnormal_mass():
    """``value`` forms no d ln(phase) = i lam t p / E, which overflows at a
    subnormal E; the value itself is finite."""
    v = time_eigenfunction(1.0, 1, 0.5, 1e-310).value(np.array([1e-312]))
    assert np.all(np.isfinite(v))


def test_position_family_pointwise_factor_345():
    # node p = 4 with m = 3, x = 2: local factor -(E/p) x = -(5/4) * 2
    func = position_eigenfunction(2.0, 1, 0.5, 3.0)
    assert func.eigenvalue(np.array([4.0]))[0] == -2.5


def test_position_family_pointwise_identity(grid256):
    m = 1.0
    for x in (-2.0, 0.5, 3.0):
        for lam in (1, -1):
            func = position_eigenfunction(x, lam, 0.5, m)
            f = func.on_grid(grid256)
            tv = grids.apply_toa(f, m)
            local = func.eigenvalue(grid256.nodes)
            assert np.max(np.abs(tv.values - local[:, None] * f.values)) <= 1e-9


def test_position_family_massless_exact_eigenfunction(grid256):
    # m = 0: factor is -sign(p) lam x; restricted to one half-line the
    # function is an exact eigenfunction with t = -+ x
    x, lam = 1.5, 1
    func = position_eigenfunction(x, lam, 0.5, 0.0)
    local = func.eigenvalue(grid256.nodes)
    assert np.allclose(local[grid256.positive], -x)
    assert np.allclose(local[grid256.negative], x)
    f = func.on_grid(grid256)
    tv = grids.apply_toa(f, 0.0)
    pos = grid256.positive
    assert np.max(np.abs(tv.values[pos] + x * f.values[pos])) <= 1e-12


def test_event_family_matches_position_labels():
    # x = 3, m = 3, p = 4, b = +1: tau = 9/4, t_x = 15/4, label -15/4
    func = event_eigenfunction(3.0, 1, 0.5, 3.0)
    p = np.array([4.0])
    assert func.eigenvalue(p)[0] == -3.75
    pos = position_eigenfunction(3.0, 1, 0.5, 3.0)
    assert pos.eigenvalue(p)[0] == -3.75
    # exact-rational version of the same identity
    m, pp, E, x = Fraction(3), Fraction(4), Fraction(5), Fraction(3)
    tau = x * m / pp
    t_x = abs(x) * E / abs(pp)
    assert t_x * t_x == x * x + tau * tau
    assert -x * E / pp == -t_x


def test_event_family_spinor_factor(grid256):
    # at (x, m, p) = (3, 3, 4) the spinor factor is the event spinor with
    # tau = 9/4, which shares the (sqrt(.4), sqrt(.1)) closed form
    func = event_eigenfunction(3.0, 1, 0.5, 3.0)
    vals = func.value(np.array([4.0]))[0]
    xi = algebra.event_spinor_values(3.0, np.array([2.25]), 1, 0.5)[0]
    w = weight_factor(3.0, np.array([4.0]))[0]
    expect = w * xi * np.exp(-1j * 4.0 * 3.0) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(vals - expect)) <= 1e-15


def test_event_family_pointwise_identity(grid256):
    for m in (1.0, 3.0):
        for x in (-2.0, 3.0):
            for b in (1, -1):
                func = event_eigenfunction(x, b, 0.5, m)
                f = func.on_grid(grid256)
                tv = grids.apply_toa(f, m)
                local = func.eigenvalue(grid256.nodes)
                assert np.max(np.abs(tv.values - local[:, None] * f.values)) <= 1e-9


def test_event_family_massless_form(grid256):
    x = 1.5
    func = event_eigenfunction(x, 1, 0.5, 0.0)
    vals = func.value(grid256.nodes)
    e = algebra.helicity_spinor(0.5)
    spin = np.concatenate([e, np.sign(x) * (algebra.SIGMA1 @ e)]) / np.sqrt(2.0)
    expect = np.exp(-1j * grid256.nodes * x)[:, None] * spin / np.sqrt(2 * np.pi)
    assert np.max(np.abs(vals - expect)) <= 1e-15


def test_event_family_consistency_with_position(grid256):
    p = grid256.nodes
    pos_half = p > 0
    for m in (0.5, 3.0):
        for x in (-2.0, 3.0):
            for b in (1, -1):
                ev = event_eigenfunction(x, b, 0.5, m).value(p)
                for half, sgn in ((pos_half, 1.0), (~pos_half, -1.0)):
                    lam = int(b * np.sign(x) * sgn)
                    po = position_eigenfunction(x, lam, 0.5, m).value(p[half])
                    assert np.max(np.abs(ev[half] - po)) <= 1e-12


_MAGNITUDE = st.floats(1e-3, 1e3)
_SIGN = st.sampled_from([1.0, -1.0])


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    x=st.tuples(_MAGNITUDE, _SIGN),
    b=st.sampled_from([1, -1]),
    s=st.sampled_from([0.5, -0.5]),
    m=st.one_of(st.just(0.0), _MAGNITUDE),
    p=st.lists(st.tuples(_MAGNITUDE, _SIGN), min_size=16, max_size=16),
)
def test_event_family_is_the_position_family_relabeled(x, b, s, m, p):
    """The duality as a relabeling: at each node, the event member (x, b)
    equals the position member (x, lam) with lam = b sign(x) sign(p).  The
    event spinor goes through tau = x m / p and t_x = |x/p| E_p, the position
    spinor through E_p, so this compares two routes to the same closed form."""
    x = x[0] * x[1]
    p = np.array([mag * sign for mag, sign in p])
    ev = event_eigenfunction(x, b, s, m).value(p)
    lam = b * np.sign(x) * np.sign(p)
    for branch in (1, -1):
        half = lam == branch
        if np.any(half):
            po = position_eigenfunction(x, branch, s, m).value(p[half])
            assert np.max(np.abs(ev[half] - po)) <= 1e-15


def test_event_family_rejects_x_zero():
    with pytest.raises(ValueError):
        event_eigenfunction(0.0, 1, 0.5, 3.0)
    with pytest.raises(ValueError):
        event_eigenfunction(0.0, 1, 0.5, 0.0)


def test_event_family_derivative_vs_finite_difference():
    func = event_eigenfunction(2.0, -1, 0.5, 1.5)
    p = np.array([0.8, -2.1, 3.5])
    h = 1e-5
    fd = (func.value(p + h) - func.value(p - h)) / (2 * h)
    assert np.max(np.abs(func._closed_form(p)[1] - fd)) <= 1e-8


def _reference_value(func, p):
    """Reference: the per-family value that the six-entry table replaced."""
    m, L = func.m, func.labels
    if func.family == "time":
        E = np.hypot(p, m)
        phase = np.exp(1j * L["lam"] * E * L["t"]) / SQRT2PI
        spin = algebra.energy_spinor_values(m, p, L["lam"], L["s"])
        return weight_factor(m, p)[..., None] * spin * phase[..., None]
    if func.family == "position":
        phase = np.exp(-1j * p * L["x"]) / SQRT2PI
        spin = algebra.energy_spinor_values(m, p, L["lam"], L["s"])
        return weight_factor(m, p)[..., None] * spin * phase[..., None]
    x, b, s = L["x"], L["b"], L["s"]
    tau = x * m / p
    wx = np.sqrt(np.abs(x) / np.hypot(x, tau))
    phase = np.exp(-1j * p * x) / SQRT2PI
    return wx[..., None] * algebra.event_spinor_values(x, tau, b, s) * phase[..., None]


def _reference_derivative(func, p):
    """Reference: the per-family d/dp that the six-entry table replaced.

    Returns (the derivative, the amplitude x d spinor x phase term)."""
    m, L = func.m, func.labels
    vals = _reference_value(func, p)
    if func.family in ("time", "position"):
        lam, s = L["lam"], L["s"]
        E = np.hypot(p, m)
        if func.family == "time":
            dln_phase = 1j * lam * L["t"] * p / E
            phase = np.exp(1j * lam * E * L["t"]) / SQRT2PI
        else:
            dln_phase = np.broadcast_to(-1j * L["x"], p.shape)
            phase = np.exp(-1j * p * L["x"]) / SQRT2PI
        dspin = algebra.energy_spinor_derivative(m, p, lam, s)
        term = weight_factor(m, p)[..., None] * dspin * phase[..., None]
        return (weight_factor_derivative_ratio(m, p) + dln_phase)[..., None] * vals + term, term
    x, b, s = L["x"], L["b"], L["s"]
    tau = x * m / p
    dtau = -x * m / (p * p)
    t_x = np.hypot(x, tau)
    wx = np.sqrt(np.abs(x) / t_x)
    phase = np.exp(-1j * p * x) / SQRT2PI
    dspin_dtau = algebra.event_spinor_tau_derivative(x, tau, b, s)
    term = (wx * dtau)[..., None] * dspin_dtau * phase[..., None]
    return (-tau / (2.0 * t_x * t_x) * dtau - 1j * x)[..., None] * vals + term, term


REFERENCE_MEMBERS = [
    (build, label, sign, s)
    for build, labels in (
        (time_eigenfunction, (-5.0, 0.0, 2.0)),
        (position_eigenfunction, (-2.0, 0.5, 3.0)),
        (event_eigenfunction, (-2.0, 3.0)),
    )
    for label in labels
    for sign in (1, -1)
    for s in (0.5, -0.5)
]


@pytest.mark.parametrize("m", [0.0, 1.0, 3.0])
def test_table_matches_per_family_reference(grid256, m):
    # value: bit for bit.  d/dp: bit for bit for the time and position
    # families; the event family's amplitude x d spinor x phase term is now
    # wx (dtau dxi/dtau) phase, not (wx dtau) dxi/dtau phase, so each element
    # may move by a rounding of that term and of the sum:
    # |delta| <= 4 eps (|term| + |d/dp|)
    p = grid256.nodes
    eps = np.finfo(float).eps
    for build, label, sign, s in REFERENCE_MEMBERS:
        func = build(label, sign, s, m)
        assert np.array_equal(func.value(p), _reference_value(func, p)), func
        ref, term = _reference_derivative(func, p)
        got = func.on_grid(grid256).deriv_values
        if func.family == "event":
            assert np.all(np.abs(got - ref) <= 4.0 * eps * (np.abs(term) + np.abs(ref))), func
        else:
            assert np.array_equal(got, ref), func


def test_check_resolved_bounds_the_label(grid256):
    # the phase advance per node gap, |label| max step, must stay below pi/2
    ppos = grid256.nodes[grid256.positive]
    x_limit = np.pi / (2.0 * np.max(np.diff(ppos)))
    t_limit = np.pi / (2.0 * np.max(np.diff(np.hypot(ppos, 1.0))))
    position_eigenfunction(0.99 * x_limit, 1, 0.5, 1.0).check_resolved(grid256)
    event_eigenfunction(-0.99 * x_limit, 1, 0.5, 1.0).check_resolved(grid256)
    time_eigenfunction(0.99 * t_limit, -1, 0.5, 1.0).check_resolved(grid256)
    for func in (
        position_eigenfunction(1.01 * x_limit, 1, 0.5, 1.0),
        event_eigenfunction(-1.01 * x_limit, -1, 0.5, 1.0),
        time_eigenfunction(-1.01 * t_limit, 1, 0.5, 1.0),
    ):
        with pytest.raises(ValueError, match="resolution limit"):
            func.check_resolved(grid256)
    # E_p flat on the grid in double precision: every t is resolved
    time_eigenfunction(1e300, 1, 0.5, 1e300).check_resolved(grid256)


def test_overlap_orthogonality_distinct_labels(grid256):
    lam, s = np.array([[1, 1, -1, -1], [0.5, -0.5, 0.5, -0.5]])[..., None]
    f = eigenfunctions.ToaEigenfunction("position", 1.0, {"x": 1.5, "lam": lam, "s": s})
    gram = overlap_matrix(f, grid256)
    for member, a, b in zip(f.value(grid256.nodes), lam.flat, s.flat):
        assert np.array_equal(member, position_eigenfunction(1.5, int(a), b, 1.0).value(grid256.nodes))
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-10


def test_overlap_delta_concentration():
    m = 1.0
    widths = []
    for p_max in (10.0, 20.0):
        grid = grids.build_grid(1e-3, p_max, 384, 4)
        ref = position_eigenfunction(0.0, 1, 0.5, m).value(grid.nodes)
        dxs = np.linspace(-2.0, 2.0, 401)
        overlap = np.array(
            [
                abs(np.sum(grid.weights * np.sum(
                    np.conj(position_eigenfunction(dx, 1, 0.5, m).value(grid.nodes)) * ref, axis=1
                )))
                for dx in dxs
            ]
        )
        assert dxs[np.argmax(overlap)] == 0.0
        half = overlap.max() / 2.0
        above = dxs[overlap >= half]
        widths.append(above[-1] - above[0])
    ratio = widths[0] / widths[1]
    assert 1.6 <= ratio <= 2.4


def _packet(grid, m, p0, sigma, even=False):
    p = grid.nodes
    g = (2 * np.pi * sigma**2) ** -0.25 * np.exp(-((p - p0) ** 2) / (4 * sigma**2))
    vals = g[:, None] * algebra.energy_spinor_values(m, p, 1, 0.5)
    f = grids.GridSpinorField(grid, vals)
    if even:
        mirror = f.values[::-1] * np.array([1.0, 1.0, -1.0, -1.0])
        f = grids.GridSpinorField(grid, f.values + mirror)
    return f.normalized()


def test_resynthesis_recovers_reflection_even_state():
    m = 1.0
    grid = grids.build_grid(1e-3, 10.0, 384, 4)
    f = _packet(grid, m, 2.0, 0.25, even=True)
    rec = resynthesize_time_family(f, m, (-20.0, 20.0), 161)  # dt = 0.25
    assert grid.norm(rec.values - f.values) <= 1e-6


def test_resynthesis_one_sided_kernel_identity():
    # for any state, twice the resynthesis equals psi + beta P psi
    m = 1.0
    grid = grids.build_grid(1e-3, 10.0, 384, 4)
    f = _packet(grid, m, 2.0, 0.25)
    rec = resynthesize_time_family(f, m, (-20.0, 20.0), 161)  # dt = 0.25
    mirror = f.values[::-1] * np.array([1.0, 1.0, -1.0, -1.0])
    assert grid.norm(2.0 * rec.values - f.values - mirror) <= 1e-6
    # twice the output recovers the packet on its own half-line
    pos = grid.positive
    diff = (2.0 * rec.values - f.values)[pos]
    err = np.sqrt(np.sum(grid.weights[pos] * np.sum(np.abs(diff) ** 2, axis=1)))
    assert err <= 1e-6


# n_t = 2, primes, perfect squares K^2 and K^2 +- 1 around the block size
LATTICE_SIZES = [2, 3, 5, 7, 97, 101, 4, 9, 16, 100, 121, 8, 10, 15, 17, 99, 120, 122, 143, 145]


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(
    n_t=st.one_of(st.sampled_from(LATTICE_SIZES), st.integers(2, 400)),
    n_nodes=st.one_of(st.integers(1, 40), st.integers(1, 300)),  # up to 2 node blocks + a remainder
    e_exp=st.floats(-3.0, 2.0),
    t0=st.floats(-1e3, 1e3),
    t1=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**32 - 1),
    zero_block=st.booleans(),
    zero_column=st.booleans(),
    subnormal=st.booleans(),
)
def test_lattice_sums_match_extended_precision(
    n_t, n_nodes, e_exp, t0, t1, seed, zero_block, zero_column, subnormal
):
    """The factored lattice sums against the direct sums in long double.

    Bound, per output column: |delta| <= C eps (max|t| max|E| + L) sum|b| with
    C = 16, where L is the number of summed terms (N for the overlaps, n_t
    for the adjoint).  The first term is the rounding of E t in the two exp
    tables and of dt; the second bounds the rounding of the products and sums.
    The overlap coefficients may hold an exactly-zero node block, an
    exactly-zero column and subnormal parts; the overlaps flush those parts to
    0, which adds 2 N tiny to their bound.  The overlaps are also taken
    through ``_fold`` on the mirrored nodes (-p, p), with E_p = |p|
    as at m = 0 and the coefficients above on p: the same bound, with L and N
    the full node count 2n.
    """
    assume(t0 != t1)
    rng = np.random.default_rng(seed)
    E = 10.0**e_exp * rng.uniform(0.0, 1.0, n_nodes)
    dt = (t1 - t0) / (n_t - 1)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    plus, minus = cplx(n_nodes, 2), cplx(n_nodes, 3)
    x_plus, x_minus = cplx(n_t, 2), cplx(n_t, 3)
    tiny = np.finfo(float).tiny
    for coeff in (plus, minus):
        if zero_block:
            j = _NODE_BLOCK * rng.integers(0, -(-n_nodes // _NODE_BLOCK))
            coeff[j : j + _NODE_BLOCK] = 0.0
        if zero_column:
            coeff[:, rng.integers(0, coeff.shape[1])] = 0.0
        if subnormal:
            parts = coeff.view(float)  # a whole column and a random scatter of parts
            parts[:, 2 * rng.integers(0, coeff.shape[1]) + np.arange(2)] *= tiny / 8.0
            scatter = rng.random(parts.shape) < 0.3
            parts[scatter] = tiny * rng.uniform(-1.0, 1.0, np.count_nonzero(scatter))

    order = np.argsort(E)
    p = E[order]
    nodes = np.concatenate([-p[::-1], p])
    grid = grids.MomentumGrid(p[0], p[-1], n_nodes, 4, nodes, np.ones(2 * n_nodes))
    plus2 = np.concatenate([cplx(n_nodes, 2), plus[order]])
    minus2 = np.concatenate([cplx(n_nodes, 3), minus[order]])
    E2 = np.abs(grid.nodes)

    ld = np.longdouble
    t = ld(t0) + np.arange(n_t).astype(ld) * ((ld(t1) - ld(t0)) / ld(n_t - 1))
    P = np.exp(np.outer(t, E.astype(ld)) * np.clongdouble(-1j))
    P2 = np.exp(np.outer(t, E2.astype(ld)) * np.clongdouble(-1j))
    exact = {
        "overlap+": P @ plus.astype(np.clongdouble),
        "overlap-": np.conj(P) @ minus.astype(np.clongdouble),
        "adjoint+": np.conj(P).T @ x_plus.astype(np.clongdouble),
        "adjoint-": P.T @ x_minus.astype(np.clongdouble),
        "folded+": P2 @ plus2.astype(np.clongdouble),
        "folded-": np.conj(P2) @ minus2.astype(np.clongdouble),
    }
    got = dict(zip(("overlap+", "overlap-"), _lattice_overlaps(E, t0, dt, n_t, plus, minus)))
    got.update(zip(("adjoint+", "adjoint-"), _lattice_adjoint(E, t0, dt, n_t, x_plus, x_minus)))
    E_fold, plus_fold, minus_fold = _fold(grid, E2, plus2, minus2)
    got.update(zip(("folded+", "folded-"), _lattice_overlaps(E_fold, t0, dt, n_t, plus_fold, minus_fold)))
    eps, scale = np.finfo(float).eps, max(abs(t0), abs(t1)) * np.max(E)
    for key, coeff, terms in (
        ("overlap+", plus, n_nodes), ("overlap-", minus, n_nodes),
        ("adjoint+", x_plus, n_t), ("adjoint-", x_minus, n_t),
        ("folded+", plus2, 2 * n_nodes), ("folded-", minus2, 2 * n_nodes),
    ):
        assert got[key].shape == exact[key].shape, key
        err = np.max(np.abs(got[key] - exact[key]), axis=0).astype(float)
        bound = 16.0 * eps * (scale + terms) * np.sum(np.abs(coeff), axis=0)
        if not key.startswith("adjoint"):
            bound += 2.0 * terms * tiny
        assert np.all(err <= bound), (key, err / bound)


def _three_blocks():
    """Energies and (plus, minus) coefficients, 2 columns each, on three node
    blocks: the first all zero, the last all subnormal."""
    n = 3 * _NODE_BLOCK
    rng = np.random.default_rng(7)
    E = np.hypot(rng.uniform(1e-3, 10.0, n), 1.0)
    coeff = rng.standard_normal((2, n, 2)) + 1j * rng.standard_normal((2, n, 2))
    coeff[:, :_NODE_BLOCK] = 0.0
    coeff[:, 2 * _NODE_BLOCK :] *= np.finfo(float).tiny / 8.0
    return E, coeff[0], coeff[1]


def test_lattice_overlaps_build_no_tables_for_a_zero_block(monkeypatch):
    """Only the middle block holds a value once subnormals are flushed, so
    only its exp tables are built, and the sums equal those over it alone."""
    E, plus, minus = _three_blocks()
    phases, built = eigenfunctions._lattice_phases, []

    def counted(E_blk, *lattice):
        built.append(E_blk)
        return phases(E_blk, *lattice)

    monkeypatch.setattr(eigenfunctions, "_lattice_phases", counted)
    got = _lattice_overlaps(E, -20.0, 0.05, 801, plus, minus)
    assert len(built) == 1 and np.array_equal(built[0], E[_NODE_BLOCK : 2 * _NODE_BLOCK])
    mid = slice(_NODE_BLOCK, 2 * _NODE_BLOCK)
    alone = _lattice_overlaps(E[mid], -20.0, 0.05, 801, plus[mid], minus[mid])
    for a, b in zip(got, alone):
        assert np.array_equal(a, b)


def test_lattice_overlaps_drop_the_nodes_with_no_live_coefficient(monkeypatch):
    """Zero and subnormal node rows at both ends and in the middle join no
    block: the tables are built for the live rows alone, the sums equal the
    call on those rows bit for bit, and they keep the long-double bound of
    ``test_lattice_sums_match_extended_precision`` over all the rows."""
    n, tiny = 300, np.finfo(float).tiny
    rng = np.random.default_rng(11)
    E = np.hypot(rng.uniform(1e-3, 10.0, n), 1.0)
    plus, minus = rng.standard_normal((2, n, 3)) + 1j * rng.standard_normal((2, n, 3))
    dead = np.zeros(n, dtype=bool)
    for rows, scale in ((slice(0, 9), 0.0), (slice(9, 20), tiny / 8.0), (slice(140, 160), 0.0),
                        (slice(160, 175), tiny / 3.0), (slice(285, 300), 0.0), (slice(280, 285), tiny / 5.0)):
        plus[rows] *= scale
        minus[rows] *= scale
        dead[rows] = True
    live = ~dead
    phases, built = eigenfunctions._lattice_phases, []

    def counted(E_blk, *lattice):
        built.append(len(E_blk))
        return phases(E_blk, *lattice)

    monkeypatch.setattr(eigenfunctions, "_lattice_phases", counted)
    t0, dt, n_t = -20.0, 0.05, 801
    got = _lattice_overlaps(E, t0, dt, n_t, plus, minus)
    assert built == [_NODE_BLOCK, np.count_nonzero(live) - _NODE_BLOCK]
    for a, b in zip(got, _lattice_overlaps(E[live], t0, dt, n_t, plus[live], minus[live])):
        assert np.array_equal(a, b)
    ld = np.longdouble
    t = ld(t0) + np.arange(n_t).astype(ld) * ld(dt)
    P = np.exp(np.outer(t, E.astype(ld)) * np.clongdouble(-1j))
    scale = max(abs(t0), abs(t0 + (n_t - 1) * dt)) * np.max(E)
    for sums, exact, coeff in zip(got, (P @ plus.astype(np.clongdouble),
                                        np.conj(P) @ minus.astype(np.clongdouble)), (plus, minus)):
        err = np.max(np.abs(sums - exact), axis=0).astype(float)
        bound = 16.0 * np.finfo(float).eps * (scale + n) * np.sum(np.abs(coeff), axis=0) + 2.0 * n * tiny
        assert np.all(err <= bound), err / bound


def test_lattice_overlaps_zero_column_is_exact_zero():
    """An all-zero coefficient column, beside live ones, sums to +0 exactly;
    its lam = -1 sum is the conjugate of +0."""
    E, plus, minus = _three_blocks()
    plus[:, 1] = 0.0
    minus[:, 0] = 0.0
    pos, neg = _lattice_overlaps(E, -20.0, 0.05, 801, plus, minus)
    for col in (pos[:, 1], np.conj(neg[:, 0])):
        parts = np.ascontiguousarray(col).view(float)
        assert np.all(parts == 0.0) and not np.any(np.signbit(parts))
    assert np.all(pos[:, 0] != 0.0) and np.all(neg[:, 1] != 0.0)


def test_lattice_overlaps_keep_the_smallest_normal_live():
    """Only subnormals are flushed: a column whose one value is the smallest
    normal number, tiny, in an otherwise all-zero block still sums."""
    E, plus, minus = _three_blocks()
    plus[:, 0] = 0.0
    plus[3, 0] = np.finfo(float).tiny
    pos, _ = _lattice_overlaps(E, -20.0, 0.05, 801, plus, minus)
    assert np.max(np.abs(pos[:, 0])) >= 0.5 * np.finfo(float).tiny


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lattice_overlaps_keep_non_finite_coefficients_live(bad):
    """A NaN or inf coefficient in an otherwise all-zero block is not
    skipped: its column comes back non-finite, for the writer guard to see."""
    E, plus, minus = _three_blocks()
    plus[:, 0] = 0.0
    plus[5, 0] = bad
    minus[7, 1] = bad * 1j
    with np.errstate(invalid="ignore"):  # inf times a phase has NaN parts
        pos, neg = _lattice_overlaps(E, -20.0, 0.05, 801, plus, minus)
    assert not np.any(np.isfinite(pos[:, 0])) and not np.any(np.isfinite(neg[:, 1]))
    assert np.all(np.isfinite(pos[:, 1])) and np.all(np.isfinite(neg[:, 0]))


@pytest.mark.parametrize("n_nodes, n_t", [(2048, 2501), (512, 12001)])
def test_lattice_kernels_working_memory_is_bounded(n_nodes, n_t):
    """Peak traced memory of each kernel <= 2 x (Q + S + output) bytes with
    4 columns per branch: the contraction takes one column at a time, so no
    temporary grows with the column count (measured 1.5-1.6 x; the product of
    every column at once took 3.6-6.5 x)."""
    rng = np.random.default_rng(3)
    E = np.hypot(rng.uniform(1e-3, 20.0, n_nodes), 1.0)
    dt = 90.0 / (n_t - 1)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    K = math.isqrt(n_t - 1) + 1
    tables = 16 * n_nodes * (K + -(-n_t // K))
    for kernel, args, out_rows in (
        (_lattice_overlaps, (cplx(n_nodes, 4), cplx(n_nodes, 4)), n_t),
        (_lattice_adjoint, (cplx(n_t, 4), cplx(n_t, 4)), n_nodes),
    ):
        tracemalloc.start()
        try:
            kernel(E, -45.0, dt, n_t, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = 2 * (tables + 16 * 8 * out_rows)
        assert peak <= limit, (kernel.__name__, peak / limit)


@pytest.mark.parametrize("n_nodes, n_t", [(512, 12001), (2048, 2501)])
def test_lattice_overlaps_hold_one_block_of_tables_at_a_time(n_nodes, n_t):
    """Beside the output and its K x blocks product, the peak traced memory of
    the overlaps stays below 5 tables of 128 x max(K, blocks): the current
    block's Q, S and scaled S, and its small coefficient rows (measured 3.7
    and 4.2; with the previous block's tables still held while the next
    block's are built, 6.2 and 7.0).  The same holds for the adjoint beside
    its zero-padded columns and its output: the block's Q, S and Z (measured
    3.2 and 4.0; 6.2 and 7.0 with the previous block's held)."""
    rng = np.random.default_rng(3)
    E = np.hypot(rng.uniform(1e-3, 20.0, n_nodes), 1.0)
    K = math.isqrt(n_t - 1) + 1
    n_b = -(-n_t // K)
    for kernel, rows_in, beside in (
        (_lattice_overlaps, n_nodes, 16 * (8 + 1) * K * n_b),
        (_lattice_adjoint, n_t, 16 * 8 * (K * n_b + n_nodes)),
    ):
        plus, minus = rng.standard_normal((2, rows_in, 4)) + 1j * rng.standard_normal((2, rows_in, 4))
        tracemalloc.start()
        try:
            kernel(E, -45.0, 90.0 / (n_t - 1), n_t, plus, minus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables = (peak - beside) / (16 * _NODE_BLOCK * max(K, n_b))
        assert tables <= 5.0, (kernel.__name__, tables)


def test_lattice_kernels_memory_does_not_grow_with_the_node_count():
    """At (N, n_t) = (8192, 2501), 4 columns per branch, peak traced memory of
    each kernel <= 2 x (three tables of a 128-node block + coefficients +
    output): no N x sqrt(n_t) table is formed (measured 0.27 and 0.53 of the
    limit; with whole-N tables, about 13 MB here, the kernels read 5.4 x)."""
    n_nodes, n_t, cols = 8192, 2501, 8
    rng = np.random.default_rng(4)
    E = np.hypot(rng.uniform(1e-3, 20.0, n_nodes), 1.0)
    dt = 90.0 / (n_t - 1)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    K = math.isqrt(n_t - 1) + 1
    tables = 3 * 16 * 128 * (K + -(-n_t // K))
    for kernel, rows_in, rows_out in (
        (_lattice_overlaps, n_nodes, n_t), (_lattice_adjoint, n_t, n_nodes),
    ):
        args = (cplx(rows_in, cols // 2), cplx(rows_in, cols // 2))
        tracemalloc.start()
        try:
            kernel(E, -45.0, dt, n_t, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = 2 * (tables + 16 * cols * (rows_in + rows_out))
        assert peak <= limit, (kernel.__name__, peak / limit)
