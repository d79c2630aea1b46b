"""Spinor and matrix construction tests.

Frozen expected values come from exact-rational substitution on Pythagorean
triples: with (m, p, E) = (3, 4, 5) the positive-branch prefactor is
(m + E)/(2E) = 4/5 and the lower-block factor is p/(m + E) = 1/2, giving
components sqrt(0.4) and sqrt(0.1).
"""
import numpy as np
import pytest
from hypothesis import given, settings
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


def test_event_spinor_degenerate():
    with pytest.raises(ValueError):
        algebra.event_spinor_values(0.0, np.array([0.0]), 1, 0.5)


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
    # at m = 0, N = 1/sqrt(2) and c = lam sign(p) exactly, inside a broadcast
    # call that also holds massive labels
    m = np.array([0.0, 1.0, 0.0, 2.0])
    p = np.array([3.0, -1.5, -0.25, 4.0])
    lam = np.array([1, -1, -1, 1])
    phi = algebra.energy_spinor_values(m, p, lam, 0.5)
    e = algebra.helicity_spinor(0.5)
    for i in (0, 2):
        expect = np.concatenate([e, lam[i] * np.sign(p[i]) * e[::-1]]) / np.sqrt(2.0)
        assert np.array_equal(phi[i], expect)
    assert not np.any(algebra.energy_spinor_derivative(m, p, lam, 0.5)[[0, 2]])


def test_helicity_spinor_broadcasts_over_s():
    s = np.array([[0.5, -0.5], [-0.5, 0.5]])
    e = algebra.helicity_spinor(s)
    assert e.shape == (2, 2, 2)
    assert np.array_equal(e[0, 1], algebra.helicity_spinor(-0.5))
    with pytest.raises(ValueError):
        algebra.helicity_spinor(np.array([0.5, 0.3]))
