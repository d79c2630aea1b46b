"""Nonrelativistic limits, dual event states, deficiency diagnostics."""
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_toa import limits, verify
from dirac_toa.algebra import energy_spinor_values, event_spinor_values
from dirac_toa.config import DEFAULT_CONFIG
from dirac_toa.grids import build_grid


def test_nr_spinor_error_leading_term():
    u_err, w_err = limits.nr_spinor_errors(0.1)
    # leading order r/2 = 0.05, within 20%
    assert abs(u_err - 0.05) <= 0.2 * 0.05
    assert abs(w_err - 0.05) <= 0.2 * 0.05
    u_err, _ = limits.nr_spinor_errors(0.01)
    assert 0.9 <= u_err / 0.005 <= 1.1


def test_nr_spinor_error_monotone():
    rs = np.linspace(0.01, 0.5, 25)
    errs = [limits.nr_spinor_errors(r)[0] for r in rs]
    assert np.all(np.diff(errs) > 0.0)


@pytest.mark.parametrize("r", [1e-160, 1e-200, 1e-300])
def test_nr_spinor_errors_at_tiny_ratios(r):
    # squared components of size r/2 underflowed: 4.99997e-161 at 1e-160, 0 below 1e-154
    u_err, w_err = limits.nr_spinor_errors(r)
    assert u_err == pytest.approx(r / 2.0, rel=1e-12, abs=0.0)
    assert w_err == pytest.approx(r / 2.0, rel=1e-12, abs=0.0)


def test_nr_spinor_slope_at_tiny_ratios():
    rep_u, rep_w = limits.nr_spinor_limit_scan([1e-160, 1e-200, 1e-300])
    assert np.isfinite(rep_u.fitted_order) and np.isfinite(rep_w.fitted_order)
    assert abs(rep_u.fitted_order - 1.0) <= 1e-12
    assert abs(rep_w.fitted_order - 1.0) <= 1e-12


def test_nr_spinor_slope():
    ratios = np.logspace(-4, -1, 7)
    rep_u, rep_w = limits.nr_spinor_limit_scan(ratios)
    assert abs(rep_u.fitted_order - 1.0) <= 0.05
    assert abs(rep_w.fitted_order - 1.0) <= 0.05


def test_nr_eigen_limit_check_345():
    t_rel, t_non, gap = limits.nr_eigen_limit_check(3.0, 4.0, 3.0)
    assert t_rel == -15.0 / 4.0
    assert t_non == -9.0 / 4.0
    assert gap == abs(t_rel - t_non)


def test_nr_eigen_limit_relative_gap():
    for r in (0.01, 0.3, 2.0):
        t_rel, t_non, gap = limits.nr_eigen_limit_check(3.0, r, 1.0)
        assert abs(gap / abs(t_non) - (np.hypot(1.0, r) - 1.0)) <= 1e-12
    # r = 0.01: relative gap ~ r^2/2 = 5e-5
    _, t_non, gap = limits.nr_eigen_limit_check(3.0, 0.01, 1.0)
    assert gap / abs(t_non) == pytest.approx(5.0e-5, rel=1e-4)


def test_nr_eigen_limit_x_zero():
    t_rel, t_non, gap = limits.nr_eigen_limit_check(0.0, 4.0, 3.0)
    assert t_rel == 0.0 and t_non == 0.0 and gap == 0.0


def test_nr_eigenfunction_limit_shrinks():
    d1 = limits.nr_eigenfunction_limit(1.0, 0.5, 1.0, 0.1)
    d2 = limits.nr_eigenfunction_limit(1.0, 0.5, 1.0, 0.01)
    assert d1 / d2 >= 5.0
    rep = limits.nr_eigenfunction_limit_scan(1.0, 0.5, 1.0, (0.1, 0.0316, 0.01))
    assert rep.fitted_order >= 1.0


def test_nr_eigenfunction_scan_keeps_ratios_from_1e_3():
    ratios = (1e-1, 3.16e-2, 1e-2, 3.16e-3, 1e-3, 3.16e-4, 1e-4)
    rep = limits.nr_eigenfunction_limit_scan(1.0, 0.5, 1.0, ratios)
    assert rep.ratios.tolist() == [1e-1, 3.16e-2, 1e-2, 3.16e-3, 1e-3]
    assert len(rep.errors) == 5 and 1.4 <= rep.fitted_order <= 1.6
    # fewer than two ratios in the window: the fixed fallback lattice
    for below in ((1e-4, 1e-5), (1e-2, 1e-5)):
        rep = limits.nr_eigenfunction_limit_scan(1.0, 0.5, 1.0, below)
        assert rep.ratios.tolist() == [1e-1, 1e-2, 1e-3]


def test_nr_eigenfunction_distance_scales_below_the_window():
    # the window is not numerical: d / ratio^1.5 stays at 0.2530 far below 1e-3
    for m in (1.0, 1e5):
        for r in (1e-3, 1e-6, 1e-9):
            d = limits.nr_eigenfunction_limit(1.0, 0.5, m, r)
            assert d / r**1.5 == pytest.approx(0.2530, rel=1e-3)


def _squared_form_eigenfunction_limit(t, m, ratio):
    """The distance as defined, at the physical momenta p = sigma z and mass
    m, with the full phases e^{i E_p t} e^{-i m t} and e^{i p^2 t / 2m} and
    the weight e^{-p^2/(2 sigma^2)} formed through sigma^2, summed in 30-digit
    arithmetic on the nodes z of build_grid(1e-2, 8, 1024); the reference.
    Both spinors carry eta_s of unit norm, so the sum does not depend on s."""
    grid = build_grid(1e-2, 8.0, 1024)
    with mpmath.workdps(30):
        t, m = mpmath.mpf(t), mpmath.mpf(m)
        sigma = mpmath.mpf(ratio) * m
        num = den = mpmath.mpf(0)
        for z, w in zip(grid.nodes, grid.weights):
            p = sigma * mpmath.mpf(z)
            E = mpmath.sqrt(p * p + m * m)
            upper = mpmath.sqrt(abs(p) / E * (m + E) / (2 * E))  # W N
            diff = upper * mpmath.expj((E - m) * t) - mpmath.sqrt(abs(p) / m) * mpmath.expj(
                p * p * t / (2 * m)
            )
            gauss = mpmath.mpf(w) * mpmath.exp(-p * p / (2 * sigma * sigma))
            num += gauss * (abs(diff) ** 2 + (upper * p / (m + E)) ** 2)
            den += gauss
        return float(mpmath.sqrt(num / den / (2 * mpmath.pi)))


@pytest.mark.parametrize("m", [1.0, 1e5])
def test_nr_eigenfunction_weight_matches_squared_form(m):
    # the z weight at unit mass with the relative phase stays within 4 eps of
    # the definition (measured <= 0.95 eps on the default ratios at m = 1 and
    # 1e5); the float64 squared form itself is up to 2000 eps off at m = 1e5,
    # where it rounds the phase E_p t ~ 1e5
    for r in (1e-1, 3.16e-2, 1e-2, 3.16e-3, 1e-3):
        d = limits.nr_eigenfunction_limit(1.0, 0.5, m, r)
        ref = _squared_form_eigenfunction_limit(1.0, m, r)
        assert abs(d - ref) <= 4.0 * np.finfo(float).eps * ref


@pytest.mark.parametrize("m", [1e-160, 1e-300])
def test_nr_eigenfunction_limit_at_tiny_mass(m):
    # sigma^2 = (ratio m)^2 underflows to 0 here; the distance is scale-free
    d = limits.nr_eigenfunction_limit(1.0, 0.5, m, 1e-2)
    assert d == pytest.approx(limits.nr_eigenfunction_limit(1.0, 0.5, 1.0, 1e-2), rel=1e-6)


@pytest.mark.parametrize("m", [1e-308, 1.0, 1e5])
def test_nr_eigenfunction_limit_broadcasts_bit_for_bit(m):
    ratios = DEFAULT_CONFIG["limits"]["ratios"]
    at_once = limits.nr_eigenfunction_limit(1.0, 0.5, m, ratios)
    assert at_once.shape == (len(ratios),)
    assert at_once.tolist() == [limits.nr_eigenfunction_limit(1.0, 0.5, m, r) for r in ratios]


def test_nr_eigenfunction_limit_rejects_a_ratio_whose_phase_overflows():
    # m t (q c)^2 / 2 passes the float range near ratio 1.7e153 at m t = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(limits.nr_eigenfunction_limit(1.0, 0.5, 1.0, 1e153))
        for scan in (limits.nr_eigenfunction_limit, limits.nr_eigenfunction_limit_scan):
            with pytest.raises(ValueError, match=r"not finite at ratio 1e\+160"):
                scan(1.0, 0.5, 1.0, (1.0, 1e160))


def test_nr_eigenfunction_limit_t_zero_nonzero():
    d = limits.nr_eigenfunction_limit(0.0, 0.5, 1.0, 0.1)
    assert d > 1e-4  # pure spinor + weight discrepancy survives at t = 0


def test_dual_solution_residual_and_labels():
    for x in (3.0, -1.2, 0.7):
        for tau in (0.0, 2.25, -1.0):
            for b in (1, -1):
                ds = limits.dual_solution(x, b, 0.5, tau)
                assert limits.dual_residual(ds) <= 1e-13
                assert ds.t**2 - ds.x**2 == pytest.approx(ds.tau**2, abs=1e-14)
    ds = limits.dual_solution(3.0, 1, 0.5, 2.25)
    assert ds.t == 3.75


def test_dual_solution_finite_difference_check():
    ds = limits.dual_solution(2.0, -1, 0.5, 1.5)
    E, p, h = 0.7, -0.3, 1e-6
    fd = (ds.value(E + h, p) - ds.value(E - h, p)) / (2 * h)
    assert np.max(np.abs(fd - ds.dvalue_dE(E, p))) <= 1e-8


def test_dual_solution_degenerate():
    with pytest.raises(ValueError):
        limits.dual_solution(0.0, 1, 0.5, 0.0)
    with pytest.raises(ValueError):
        limits.dual_solution(0.0, 1, 0.5, 1.0)


def test_label_helpers_broadcast_like_a_loop_of_scalar_calls():
    # the label lattices of ``verify.check_nr_eigenvalue_gap`` and ``check_dual_residual``
    x, p = np.meshgrid((3.0, -1.5), (0.01, 0.3, 2.0, -0.01, -0.3, -2.0), indexing="ij")
    X, TAU, B = np.meshgrid((3.0, -1.2), (0.0, 2.25, -1.0), (1, -1), indexing="ij")
    per_label = [limits.nr_eigen_limit_check(*row, 1.0) for row in zip(x.ravel().tolist(), p.ravel().tolist())]
    for got, want in zip(limits.nr_eigen_limit_check(x, p, 1.0), zip(*per_label)):
        assert np.array_equal(got, np.reshape(want, x.shape))
    ds = limits.dual_solution(X, B, 0.5, TAU)
    rows = [limits.dual_solution(x, b, 0.5, tau) for x, tau, b in zip(*(a.ravel().tolist() for a in (X, TAU, B)))]
    assert np.array_equal(ds.t, np.reshape([d.t for d in rows], X.shape))
    assert np.array_equal(limits.dual_residual(ds), np.reshape([limits.dual_residual(d) for d in rows], X.shape))
    for method in ("value", "dvalue_dE"):
        want = [getattr(d, method)(0.7, -0.3) for d in rows]
        assert np.array_equal(getattr(ds, method)(0.7, -0.3), np.reshape(want, X.shape + (4,)))


@pytest.mark.parametrize("helper, good, bad", [
    (lambda a: limits.nr_eigen_limit_check(3.0, a, 1.0), 2.0, 0.0),
    (lambda a: limits.dual_solution(a, 1, 0.5, 1.0), 3.0, 0.0),
    (lambda a: limits.dual_solution(3.0, a, 0.5, 1.0), -1, 0),
], ids=["p=0", "x=0", "b=0"])
def test_a_bad_label_in_an_array_is_rejected_with_the_scalar_message(helper, good, bad):
    with pytest.raises(ValueError) as scalar:
        helper(bad)
    with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
        helper(np.array([good, bad, good]))


def _duality_reference(n, seed):
    """The duality defect with its own draw of (m, p, lam, s), as
    ``limits.duality_map_max_residual`` computed it; kept as the reference."""
    rng = np.random.default_rng(seed)
    m = np.exp(rng.uniform(np.log(0.05), np.log(5.0), size=n))
    p = rng.uniform(0.2, 8.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    lam = rng.choice([1, -1], size=n)
    s = rng.choice([0.5, -0.5], size=n)
    phi = energy_spinor_values(m, p, lam, s)
    xi = event_spinor_values(p, m, lam, s)
    # the dual labels x = p, tau = m, t = b t_x of ``dual_solution``
    t = lam * np.hypot(p, m)
    return float(max(np.max(np.abs(phi - xi)), np.max(np.abs(t**2 - p**2 - m**2))))


@pytest.mark.parametrize("seed", [0, 123, DEFAULT_CONFIG["seed"]])
def test_duality_check_matches_reference(seed):
    assert np.max(verify.check_duality_bijection(seed)) == _duality_reference(100, seed)


def test_duality_map_bijection():
    assert np.max(verify.check_duality_bijection(123)) <= 1e-12


def test_deficiency_integral_value():
    # int_1^E e^{-2E'} dE' = (e^{-2} - e^{-2E})/2 -> e^{-2}/2 ~ 0.0676676
    rep = limits.deficiency_diagnostic(1.0, 10.0)
    val = np.exp(rep.log_integrals["+i/branch+1"][0])
    assert abs(val - (np.exp(-2.0) - np.exp(-20.0)) / 2.0) <= 1e-12
    assert abs(val - 0.0676676) <= 5e-8


def test_deficiency_divergent_growth():
    rep = limits.deficiency_diagnostic(1.0, 10.0)
    seq = np.exp(rep.log_integrals["-i/branch+1"])
    # doubling the truncation grows the integral ~ e^{2 dE}
    assert seq[1] / seq[0] > 1e6
    assert rep.classifications["-i/branch+1"] == "divergent"


def test_deficiency_indices_equal_and_stable():
    # m = 50 and 100 overflow e^{2E} unless the integrals are kept in log space
    for m in (0.5, 1.0, 3.0, 50.0, 100.0):
        rep = limits.deficiency_diagnostic(m, 10.0 * m)
        assert rep.n_plus == 1 and rep.n_minus == 1 and rep.equal
        assert np.all(np.isfinite(list(rep.log_integrals.values())))
        d = rep.to_dict()
        assert d["n_plus"] == 1 and d["n_minus"] == 1 and d["equal"] is True
        assert d["has_self_adjoint_extension"] is True
    # stability under the truncation family {10m, 20m, 40m}
    base = limits.deficiency_diagnostic(1.0, 10.0)
    assert base.e_max_values == (10.0, 20.0, 40.0)
    for e_max in (10.0, 20.0, 40.0):
        rep = limits.deficiency_diagnostic(1.0, e_max)
        assert (rep.n_plus, rep.n_minus) == (base.n_plus, base.n_minus)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(log_m=st.floats(-300.0, 300.0))
def test_deficiency_indices_equal_over_the_float_range(log_m):
    # the closed form's limit at an infinite cutoff classifies every branch,
    # including where e_max = 10 m reaches no decay length (m << 1)
    m = 10.0**log_m
    rep = limits.deficiency_diagnostic(m, 10.0 * m)
    assert rep.n_plus == rep.n_minus == 1 and rep.equal is True
    convergent = {k for k, c in rep.classifications.items() if c == "convergent"}
    assert convergent == {"+i/branch+1", "-i/branch-1"}


def _log_integral_mpmath(m, e_max, k):
    """ln int_0^{e_max - m} e^{2k(m + u)} du by 50-digit quadrature in u, with
    breakpoints 0, 1, 2, 4, ... graded toward the integrand's peak (u = 0 for
    k = -1, u = e_max - m for k = +1); the peak's exponent is factored out."""
    with mpmath.workdps(50):
        span = mpmath.mpf(e_max) - m
        offsets = [mpmath.mpf(0)]  # distances from the peak
        while offsets[-1] < span:
            offsets.append(min(span, mpmath.mpf(2) ** (len(offsets) - 1)))
        peak = 0 if k < 0 else span
        edges = offsets if k < 0 else [span - d for d in reversed(offsets)]
        integral = mpmath.quad(lambda u: mpmath.exp(2 * k * (u - peak)), edges)
        return float(2 * k * (m + peak) + mpmath.log(integral))


@pytest.mark.parametrize("m", [0.5, 370.0, 1e3, 1e5])
def test_deficiency_convergent_branches_match_closed_form(m):
    # 8 equal panels missed the decay length 1/2 here (ln I(4 e_max) - ln I(e_max) = -1.22 at m = 1e3)
    rep = limits.deficiency_diagnostic(m, 10.0 * m)
    exact = [_log_integral_mpmath(m, e, -1) for e in rep.e_max_values]
    for key in ("+i/branch+1", "-i/branch-1"):
        assert np.allclose(rep.log_integrals[key], exact, rtol=1e-14, atol=1e-12)
        assert rep.classifications[key] == "convergent"
    assert rep.n_plus == rep.n_minus == 1


@pytest.mark.parametrize("m", [100.0, 1e5])
def test_deficiency_divergent_branches_match_mpmath(m):
    # panels graded from the gap were coarse where e^{+2E} peaks: ln I was
    # off by 0.083 at m = 100 and by 1245 at m = 1e5
    rep = limits.deficiency_diagnostic(m, 10.0 * m)
    exact = [_log_integral_mpmath(m, e, 1) for e in rep.e_max_values]
    for key in ("+i/branch-1", "-i/branch+1"):
        assert np.allclose(rep.log_integrals[key], exact, rtol=1e-14, atol=1e-12)
        assert rep.classifications[key] == "divergent"


def test_deficiency_validation():
    with pytest.raises(ValueError):
        limits.deficiency_diagnostic(0.0, 10.0)
    with pytest.raises(ValueError):
        limits.deficiency_diagnostic(1.0, 0.5)
