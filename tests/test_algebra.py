"""Spinor and matrix construction tests.

Frozen expected values come from exact-rational substitution on Pythagorean
triples: with (m, p, E) = (3, 4, 5) the positive-branch prefactor is
(m + E)/(2E) = 4/5 and the lower-block factor is p/(m + E) = 1/2, giving
components sqrt(0.4) and sqrt(0.1).
"""
import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirac_toa import algebra

SQ04 = np.sqrt(0.4)
SQ01 = np.sqrt(0.1)


def test_clifford_anticommutators():
    assert algebra.clifford_max_residual() <= 1e-15


def test_clifford_residual_sees_a_wrong_metric(monkeypatch):
    # with g = I the spatial identities read gamma^i gamma^i + ... - 2 I = -4 I
    monkeypatch.setattr(algebra, "_METRIC", np.eye(4))
    assert algebra.clifford_max_residual() == 4.0


def test_alpha_beta_identities():
    b = algebra.dirac_basis()
    a1 = b.alpha[0]
    eye = np.eye(4)
    assert np.max(np.abs(a1 @ a1 - eye)) <= 1e-15
    assert np.max(np.abs(b.beta @ b.beta - eye)) <= 1e-15
    assert np.max(np.abs(a1 @ b.beta + b.beta @ a1)) <= 1e-15
    assert np.max(np.abs(a1 - a1.conj().T)) == 0.0
    assert np.max(np.abs(b.beta - b.beta.conj().T)) == 0.0


def test_kronecker_basis_is_the_block_basis():
    # the standard representation written out block by block (Bjorken & Drell)
    z2, i2 = np.zeros((2, 2)), np.eye(2)
    sigmas = (algebra.SIGMA1, algebra._SIGMA2, algebra._SIGMA3)
    beta = np.block([[i2, z2], [z2, -i2]])
    b = algebra.dirac_basis()
    assert np.array_equal(b.beta, beta)
    assert len(b.gamma) == 4 and np.array_equal(b.gamma[0], beta)
    for k, sig in enumerate(sigmas):
        assert np.array_equal(b.gamma[k + 1], np.block([[z2, sig], [-sig, z2]]))
        assert np.array_equal(b.alpha[k], np.block([[z2, sig], [sig, z2]]))
    assert np.array_equal(b.Sigma1, np.block([[algebra.SIGMA1, z2], [z2, algebra.SIGMA1]]))
    assert np.array_equal(algebra._BETA_DIAG, np.diag(b.beta))
    # apply_h_values at (m, p) = (0, 1) is alpha_1, and at (1, 0) beta, on any spinors
    rng = np.random.default_rng(7)
    v = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
    assert np.array_equal(algebra.apply_h_values(0.0, np.ones(16), v), v @ b.alpha[0].T)
    assert np.array_equal(algebra.apply_h_values(1.0, np.zeros(16), v), v @ b.beta.T)
    # each call builds fresh arrays
    assert not np.shares_memory(algebra.dirac_basis().beta, b.beta)


def test_helicity_spinors():
    up = algebra.helicity_spinor(0.5)
    dn = algebra.helicity_spinor(-0.5)
    assert np.allclose(up, np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert np.allclose(dn, np.array([1.0, -1.0]) / np.sqrt(2.0))
    assert np.max(np.abs(algebra.SIGMA1 @ up - up)) <= 1e-15
    assert np.max(np.abs(algebra.SIGMA1 @ dn + dn)) <= 1e-15
    assert abs(np.vdot(up, dn)) <= 1e-15
    comp = np.outer(up, up.conj()) + np.outer(dn, dn.conj())
    assert np.max(np.abs(comp - np.eye(2))) <= 1e-15
    with pytest.raises(ValueError):
        algebra.helicity_spinor(0.3)


def test_energy_spinor_345_values():
    phi = algebra.energy_spinor_values(3.0, np.array([4.0]), 1, 0.5)[0]
    assert np.allclose(phi, [SQ04, SQ04, SQ01, SQ01], atol=1e-15)
    phi = algebra.energy_spinor_values(3.0, np.array([4.0]), -1, 0.5)[0]
    assert np.allclose(phi, [SQ01, SQ01, -SQ04, -SQ04], atol=1e-15)


def test_energy_spinor_validation():
    with pytest.raises(ValueError):
        algebra.energy_spinor_values(1.0, np.array([0.0]), 1, 0.5)
    with pytest.raises(ValueError):
        algebra.energy_spinor_values(-1.0, np.array([1.0]), 1, 0.5)


def test_energy_spinor_norm_and_eigen_lattice():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = float(rng.choice([0.0, np.exp(rng.uniform(np.log(0.05), np.log(5.0)))], p=[0.1, 0.9]))
        p = float(rng.uniform(0.2, 8.0) * rng.choice([-1.0, 1.0]))
        lam = int(rng.choice([1, -1]))
        s = float(rng.choice([0.5, -0.5]))
        phi = algebra.energy_spinor_values(m, np.array([p]), lam, s)
        assert abs(np.linalg.norm(phi[0]) - 1.0) <= 1e-13
        h = algebra.apply_h_values(m, np.array([p]), phi)
        assert np.max(np.abs(h - lam * np.hypot(p, m) * phi)) <= 1e-12


def test_energy_spinor_orthonormality_completeness():
    for m, p in ((3.0, 4.0), (0.7, -2.2), (0.0, 1.3)):
        spinors = [
            algebra.energy_spinor_values(m, np.array([p]), lam, s)[0]
            for lam in (1, -1)
            for s in (0.5, -0.5)
        ]
        gram = np.array([[np.vdot(a, b) for b in spinors] for a in spinors])
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-13
        comp = sum(np.outer(v, v.conj()) for v in spinors)
        assert np.max(np.abs(comp - np.eye(4))) <= 1e-13


def test_massless_energy_spinor_closed_form():
    for p, lam in ((2.0, 1), (-2.0, 1), (3.0, -1), (-0.5, -1)):
        phi = algebra.energy_spinor_values(0.0, np.array([p]), lam, 0.5)[0]
        e = algebra.helicity_spinor(0.5)
        expect = np.concatenate([e, lam * np.sign(p) * (algebra.SIGMA1 @ e)]) / np.sqrt(2.0)
        assert np.max(np.abs(phi - expect)) <= 1e-15


def test_energy_spinor_derivative_vs_finite_difference():
    h = 1e-5
    for m, lam in ((1.0, 1), (1.0, -1), (0.5, -1)):
        for p0 in (0.7, -2.5, 4.0):
            d = algebra.energy_spinor_derivative(m, np.array([p0]), lam, 0.5)[0]
            fp = algebra.energy_spinor_values(m, np.array([p0 + h]), lam, 0.5)[0]
            fm = algebra.energy_spinor_values(m, np.array([p0 - h]), lam, 0.5)[0]
            assert np.max(np.abs(d - (fp - fm) / (2 * h))) <= 1e-9


def test_event_spinor_values():
    xi = algebra.event_spinor_values(3.0, np.array([2.25]), 1, 0.5)[0]
    assert np.allclose(xi, [SQ04, SQ04, SQ01, SQ01], atol=1e-15)
    assert abs(np.linalg.norm(xi) - 1.0) <= 1e-14


def test_event_spinor_massless_dual():
    # tau = 0: xi = (eta ; sign(x) sigma_1 eta)/sqrt(2) for b = +1
    for x in (2.0, -2.0):
        xi = algebra.event_spinor_values(x, np.array([0.0]), 1, 0.5)[0]
        e = algebra.helicity_spinor(0.5)
        expect = np.concatenate([e, np.sign(x) * (algebra.SIGMA1 @ e)]) / np.sqrt(2.0)
        assert np.max(np.abs(xi - expect)) <= 1e-15
    # and it is the massless energy spinor at p = x, lam = b, bit for bit
    x = np.array([2.0, -2.0, 0.3, -7.5, 1e-300, -1e300])
    b = np.array([1, 1, -1, -1, 1, -1])
    for tau in (0.0, -0.0):
        for s in (0.5, -0.5):
            xi = algebra.event_spinor_values(x, np.full_like(x, tau), b, s)
            assert np.array_equal(xi, algebra.energy_spinor_values(0.0, x, b, s))


def test_event_spinor_degenerate():
    with pytest.raises(ValueError):
        algebra.event_spinor_values(0.0, np.array([0.0]), 1, 0.5)
    # x = 0 is rejected at every tau, not only where t_x = 0
    for b in (1, -1):
        with pytest.raises(ValueError, match="p = 0"):
            algebra.event_spinor_values(0.0, np.array([1.0]), b, 0.5)


def test_event_spinor_norm_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = float(rng.uniform(-5.0, 5.0)) or 1.0
        tau = float(rng.uniform(-5.0, 5.0))
        b = int(rng.choice([1, -1]))
        s = float(rng.choice([0.5, -0.5]))
        xi = algebra.event_spinor_values(x, np.array([tau]), b, s)[0]
        assert abs(np.linalg.norm(xi) - 1.0) <= 1e-13


def test_event_spinor_tau_derivative_vs_finite_difference():
    h = 1e-5
    for x, b in ((3.0, 1), (-1.5, -1), (2.0, -1)):
        for tau0 in (2.25, -0.8, 0.0):
            d = algebra.event_spinor_tau_derivative(x, np.array([tau0]), b, 0.5)[0]
            fp = algebra.event_spinor_values(x, np.array([tau0 + h]), b, 0.5)[0]
            fm = algebra.event_spinor_values(x, np.array([tau0 - h]), b, 0.5)[0]
            assert np.max(np.abs(d - (fp - fm) / (2 * h))) <= 1e-9


def test_w_spinor_345_value():
    w = algebra.w_spinor_values(3.0, np.array([4.0]), 0.5)[0]
    assert np.allclose(w, [SQ01, SQ01, SQ04, SQ04], atol=1e-15)
    u = algebra.energy_spinor_values(3.0, np.array([4.0]), 1, 0.5)[0]
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-14
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-14


def test_w_relation_componentwise():
    # w(p, s) = Sigma_1 (p/|p|) phi_{-1, s}(-p), checked over random labels
    basis = algebra.dirac_basis()
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        p = float(rng.uniform(0.2, 8.0) * rng.choice([-1.0, 1.0]))
        s = float(rng.choice([0.5, -0.5]))
        w = algebra.w_spinor_values(m, np.array([p]), s)[0]
        phi = algebra.energy_spinor_values(m, np.array([-p]), -1, s)[0]
        rhs = (p / abs(p)) * (basis.Sigma1 @ phi)
        assert np.max(np.abs(w - rhs)) <= 1e-14


def test_nr_limit_spinors():
    z = algebra.nr_limit_spinor(1, 0.5)
    assert np.allclose(z, np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0))
    z = algebra.nr_limit_spinor(-1, -0.5)
    assert np.allclose(z, np.array([0.0, 0.0, 1.0, -1.0]) / np.sqrt(2.0))
    for s in (0.5, -0.5):
        for sp in (0.5, -0.5):
            assert abs(np.vdot(algebra.nr_limit_spinor(1, s), algebra.nr_limit_spinor(-1, sp))) == 0.0


def _hamiltonian_matrix(m, p):
    """Reference: H(p) = alpha_1 p + beta m as an explicit 4x4 matrix."""
    b = algebra.dirac_basis()
    return b.alpha[0] * p + b.beta * m


def test_hamiltonian_matrix_matches_apply():
    H = _hamiltonian_matrix(3.0, 4.0)
    phi = algebra.energy_spinor_values(3.0, np.array([4.0]), 1, 0.5)[0]
    assert np.max(np.abs(H @ phi - 5.0 * phi)) <= 1e-14
    via_apply = algebra.apply_h_values(3.0, np.array([4.0]), phi[None, :])[0]
    assert np.max(np.abs(H @ phi - via_apply)) <= 1e-15


_LABEL = st.tuples(
    st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
    st.sampled_from([1, -1]),
    st.sampled_from([0.5, -0.5]),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(labels=st.lists(_LABEL, min_size=1, max_size=12))
def test_broadcast_spinors_equal_scalar_evaluation(labels):
    # one broadcast call over arrays of (m, p, lam, s) against one call per
    # label, bit for bit, for every function that shares the branch factors
    m, p, lam, s = (np.array(col) for col in zip(*labels))
    funcs = [algebra.energy_spinor_values, algebra.energy_spinor_derivative]
    for fn in funcs:
        batch = fn(m, p, lam, s)
        assert batch.shape == (len(labels), 4)
        for i, (mi, pi, li, si) in enumerate(labels):
            assert np.array_equal(batch[i], fn(mi, np.array([pi]), li, si)[0]), (fn.__name__, i)
    # the event spinor under the duality substitution x = p, tau = m, b = lam
    batch = algebra.event_spinor_values(p, m, lam, s)
    for i, (mi, pi, li, si) in enumerate(labels):
        assert np.array_equal(batch[i], algebra.event_spinor_values(pi, np.array([mi]), li, si)[0])
    massive = m > 0.0
    if np.any(massive):
        batch = algebra.w_spinor_values(m[massive], p[massive], s[massive])
        for row, mi, pi, si in zip(batch, m[massive], p[massive], s[massive]):
            assert np.array_equal(row, algebra.w_spinor_values(mi, np.array([pi]), si)[0])


def test_massless_branch_factors_are_exact():
    # at m = 0, N = |N c| = sqrt(1/2), the correctly rounded 1/sqrt(2), and
    # N c = lam sign(p) N, inside a broadcast call that also holds massive labels
    m = np.array([0.0, 1.0, 0.0, 2.0])
    p = np.array([3.0, -1.5, -0.25, 4.0])
    lam = np.array([1, -1, -1, 1])
    _, N, Nc = algebra._branch_factors(m, p, lam)
    phi = algebra.energy_spinor_values(m, p, lam, 0.5)
    e = algebra.helicity_spinor(0.5)
    for i in (0, 2):
        sign = lam[i] * np.sign(p[i])
        assert N[i] == np.sqrt(0.5) and Nc[i] == sign * np.sqrt(0.5)
        assert np.array_equal(phi[i], np.sqrt(0.5) * np.concatenate([e, sign * e[::-1]]))
    assert not np.any(algebra.energy_spinor_derivative(m, p, lam, 0.5)[[0, 2]])


# The shared factor rule against a 50-digit oracle, on both sides of the
# duality: energy labels (m >= 0, p, lam) and event labels (tau, x, b), whose
# proper time tau = x m / p may be negative, up to the largest mass the config
# accepts.
_FACTOR_MASSES = {
    "energy": (0.0, 1e-300, 1.0, 1e100, 1e300, 1e308),
    "event": (0.0, 1e-300, 1.0, 1e100, 1e300, 1e308, -1e-300, -1.0, -1e100),
}


def _factor_labels(masses):
    """(m, p, lam) at p/|m| = 10^k, k = -150, -145, ..., 150 (p = 10^k,
    |k| <= 300, at m = 0) wherever p is a finite normal double; both signs of
    p and both lam."""
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    for m in masses:
        for k in range(-300, 301, 5) if m == 0.0 else range(-150, 151, 5):
            p = float(mpmath.mpf(abs(m) or 1.0) * mpmath.mpf(10) ** k)
            if tiny <= p <= huge:
                for sign in (1.0, -1.0):
                    for lam in (1, -1):
                        yield m, sign * p, lam


def _cancelled_digits(m, p):
    """The digits the direct sum m + lam E cancels, about 2 log10|m/p|."""
    return max(0, 2 * int(mpmath.log10(abs(m) / abs(p)))) if m else 0


def _factor_pair(m, p, lam):
    """(N, N c) = (sqrt(D/(2 lam E)), N p/D) with D = m + lam E, the direct
    sum, at the working precision; m and p are mpf."""
    E = mpmath.sqrt(p * p + m * m)
    D = m + lam * E
    N = mpmath.sqrt(D / (2 * lam * E))
    return N, N * p / D


@pytest.mark.parametrize("side", list(_FACTOR_MASSES))
def test_branch_factors_match_a_50_digit_oracle(side):
    # measured: at most 1.43 eps relative on all 3,320 labels, m = 1e308 included
    m, p, lam = (np.array(col) for col in zip(*_factor_labels(_FACTOR_MASSES[side])))
    _, N, Nc = algebra._branch_factors(m, p, lam)
    eps = np.finfo(float).eps
    for i, label in enumerate(zip(m, p, lam)):
        with mpmath.workdps(60 + _cancelled_digits(m[i], p[i])):
            refs = _factor_pair(mpmath.mpf(m[i]), mpmath.mpf(p[i]), lam[i])
        for got, ref in zip((N[i], Nc[i]), refs):
            assert np.isfinite(got) and abs((mpmath.mpf(got) - ref) / ref) <= 2 * eps, label


def _derivative_labels():
    """Derandomized (m, p, lam): m = 10^U(-3, 3) with either sign, p/|m| =
    10^U(-8, 8) with either sign, and both lam."""
    rng = np.random.default_rng(16)
    for log_m, log_ratio in rng.uniform((-3.0, -8.0), (3.0, 8.0), size=(12, 2)):
        for m_sign in (1.0, -1.0):
            for p_sign in (1.0, -1.0):
                for lam in (1, -1):
                    m = m_sign * 10.0**log_m
                    yield m, p_sign * abs(m) * 10.0**log_ratio, lam


def _diff_pair(m, p, lam, in_p):
    """40-digit mpmath.diff of (N, N c) in p (in_p) or in m."""
    with mpmath.workdps(40 + _cancelled_digits(m, p)):
        m, p = mpmath.mpf(m), mpmath.mpf(p)
        at = p if in_p else m
        # a step relative to |at|: mpmath's default absolute step vanishes at |at| >> 1
        h = abs(at) * mpmath.ldexp(1, -mpmath.mp.prec - 10)

        def pair(q, i):
            return _factor_pair(m, q, lam)[i] if in_p else _factor_pair(q, p, lam)[i]

        return [mpmath.diff(lambda q: pair(q, i), at, h=h) for i in (0, 1)]


def test_spinor_derivatives_match_a_40_digit_diff():
    # d/dp of the energy spinor and d/dtau of the event spinor against the
    # layout of the differentiated pair, within 4 eps of the largest component
    # (measured: 1.3 eps)
    eps = np.finfo(float).eps
    for m, p, lam in _derivative_labels():
        cases = [(algebra.event_spinor_tau_derivative, (p, np.array([m]), lam), False)]
        if m > 0.0:
            cases.append((algebra.energy_spinor_derivative, (m, np.array([p]), lam), True))
        for s in (0.5, -0.5):
            e = [mpmath.mpf(v) for v in algebra.helicity_spinor(s).real]
            for fn, args, in_p in cases:
                got = fn(*args, s)[0]
                dN, dNc = _diff_pair(m, p, lam, in_p)
                ref = [dN * e[0], dN * e[1], dNc * e[1], dNc * e[0]]
                scale = max(abs(r) for r in ref)
                err = max(abs(mpmath.mpf(g.real) - r) for g, r in zip(got, ref))
                assert not np.any(got.imag) and err <= 4 * eps * scale, (fn.__name__, m, p, lam, s)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(
    log_m=st.one_of(st.none(), st.floats(-300.0, 300.0)),
    log_ratio=st.floats(-150.0, 150.0),
    p_sign=st.sampled_from([1.0, -1.0]),
    lam=st.sampled_from([1, -1]),
    s=st.sampled_from([0.5, -0.5]),
)
def test_energy_spinor_is_a_unit_eigenvector_over_the_double_range(log_m, log_ratio, p_sign, lam, s):
    # m in {0} and 10^U(-300, 300), p/m in 10^U(-150, 150) (p/1 at m = 0),
    # 1e-300 <= |p| <= 1e300; measured: 1.5 eps in the norm, 1.0 eps in H phi
    log_p = log_ratio + (log_m or 0.0)
    assume(-300.0 <= log_p <= 300.0)
    m = 0.0 if log_m is None else 10.0**log_m
    p = np.array([p_sign * 10.0**log_p])
    phi = algebra.energy_spinor_values(m, p, lam, s)
    E = np.hypot(p, m)
    eps = np.finfo(float).eps
    assert np.all(np.isfinite(phi))
    assert abs(np.linalg.norm(phi) - 1.0) <= 4 * eps
    assert np.max(np.abs(algebra.apply_h_values(m / E, p / E, phi) - lam * phi)) <= 4 * eps


def test_helicity_spinor_broadcasts_over_s():
    s = np.array([[0.5, -0.5], [-0.5, 0.5]])
    e = algebra.helicity_spinor(s)
    assert e.shape == (2, 2, 2)
    assert np.array_equal(e[0, 1], algebra.helicity_spinor(-0.5))
    with pytest.raises(ValueError):
        algebra.helicity_spinor(np.array([0.5, 0.3]))
