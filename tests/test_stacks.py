"""A field may be a stack of fields: the stack contract and the checks built on it.

A ``GridSpinorField`` of shape (..., N, 4) and a ``ToaEigenfunction`` with
(L, 1) labels act per member.  The contract tests compare each stacked call
with a loop over the members by ``np.array_equal``, on the label lattices
of ``verify``'s family checks and on stacks without derivative samples,
whose d/dp is the finite difference.  The spy tests count the members that
those checks construct: one stack per family and mass.
"""
import numpy as np
import pytest

from dirac_toa import arrival, eigenfunctions, grids, verify
from dirac_toa.eigenfunctions import event_eigenfunction, position_eigenfunction, time_eigenfunction

CONSTRUCTORS = {"time": time_eigenfunction, "position": position_eigenfunction, "event": event_eigenfunction}
# (family, mass, labels) of every family check's lattice
TIME_LABELS = dict(t=(-5.0, -2.0, 0.0, 1.0, 5.0), lam=(1, -1), s=(0.5, -0.5))
LATTICES = [
    *(("time", m, TIME_LABELS) for m in (0.0, 0.5, 1.0, 3.0)),
    *(("position", m, dict(x=(-2.0, 0.5, 3.0), lam=(1, -1), s=(0.5,))) for m in (0.0, 1.0, 3.0)),
    *(("event", m, dict(x=(-2.0, 3.0), b=(1, -1), s=(0.5,))) for m in (0.0, 1.0, 3.0)),
]


def _assert_stacked(stacked, per_member):
    """The stacked result is the loop's results, stacked, bit for bit."""
    per_member = np.stack(per_member)
    assert np.array_equal(np.reshape(stacked, per_member.shape), per_member)


@pytest.mark.parametrize("family, m, labels", LATTICES, ids=[f"{fam}-m={m}" for fam, m, _ in LATTICES])
def test_family_stack_matches_a_loop_over_its_members(family, m, labels):
    grid, stack, f, tv = verify._family_on_grid(family, m, **labels)
    rows = zip(*(a.ravel().tolist() for a in np.meshgrid(*labels.values(), indexing="ij")))
    members = [CONSTRUCTORS[family](*row, m) for row in rows]
    fields = [member.on_grid(grid) for member in members]
    p = grid.nodes
    assert f.values.shape == (len(members), grid.n_nodes, 4)
    _assert_stacked(f.values, [g.values for g in fields])
    _assert_stacked(f.deriv_values, [g.deriv_values for g in fields])
    _assert_stacked(stack.value(p), [member.value(p) for member in members])
    _assert_stacked(stack.eigenvalue(p), [member.eigenvalue(p) for member in members])
    _assert_stacked(f.norm(), [g.norm() for g in fields])
    normalized = f.normalized()
    _assert_stacked(normalized.values, [g.normalized().values for g in fields])
    _assert_stacked(normalized.deriv_values, [g.normalized().deriv_values for g in fields])
    h = grids.apply_hamiltonian(f, m)
    _assert_stacked(h.values, [grids.apply_hamiltonian(g, m).values for g in fields])
    _assert_stacked(h.deriv_values, [grids.apply_hamiltonian(g, m).deriv_values for g in fields])
    _assert_stacked(tv.values, [grids.apply_toa(g, m).values for g in fields])
    _assert_stacked(grids.commutator_residual(f, m), [grids.commutator_residual(g, m) for g in fields])


@pytest.mark.parametrize("order", [2, 4])
def test_stack_without_derivative_samples_takes_the_finite_difference_per_member(order):
    grid = grids.build_grid(1e-3, 10.0, 64, order)
    rng = np.random.default_rng(7)
    envelope = np.exp(-((grid.nodes[:, None] - rng.uniform(-4.0, 4.0, 6)) ** 2)).T.reshape(2, 3, -1, 1)
    values = envelope * (rng.standard_normal((2, 3, grid.n_nodes, 4)) + 1j)
    f = grids.GridSpinorField(grid, values)
    fields = [grids.GridSpinorField(grid, v) for v in values.reshape(-1, grid.n_nodes, 4)]
    _assert_stacked(grid.derivative(values), [grid.derivative(g.values) for g in fields])
    _assert_stacked(f.norm(), [g.norm() for g in fields])
    _assert_stacked(f.normalized().values, [g.normalized().values for g in fields])
    for m in (0.0, 1.5):
        for op in (grids.apply_hamiltonian, grids.apply_toa):
            _assert_stacked(op(f, m).values, [op(g, m).values for g in fields])
        _assert_stacked(grids.commutator_residual(f, m), [grids.commutator_residual(g, m) for g in fields])


def test_evolve_over_an_array_of_t_matches_one_call_per_t():
    grid = grids.build_grid(1e-3, 10.0, 128, 4)
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.5, c_plus=0.6, c_minus=0.8j)
    f = arrival.build_packet(spec, grid)
    ts = np.array([[0.0, 1.0], [5.0, 20.0]])
    evolved = arrival.evolve(f, spec.m, ts)
    assert evolved.values.shape == (2, 2, grid.n_nodes, 4)
    per_t = [arrival.evolve(f, spec.m, t) for t in ts.ravel().tolist()]
    _assert_stacked(evolved.values, [g.values for g in per_t])
    _assert_stacked(evolved.norm(), [g.norm() for g in per_t])


def test_field_rejects_a_wrong_trailing_shape_and_a_zero_member():
    grid = grids.build_grid(1e-3, 10.0, 16, 4)
    n = grid.n_nodes
    for shape in [(n,), (n, 3), (4, n), (2, n, 3), (2, n + 1, 4), (n, 4, 1)]:
        with pytest.raises(ValueError, match="values must have shape"):
            grids.GridSpinorField(grid, np.zeros(shape))
    with pytest.raises(ValueError, match="deriv_values shape"):
        grids.GridSpinorField(grid, np.ones((2, n, 4)), np.ones((n, 4)))
    values = np.ones((3, n, 4), dtype=complex)
    values[1] = 0.0
    f = grids.GridSpinorField(grid, values)
    with pytest.raises(ValueError, match="zero field"):
        f.normalized()
    with pytest.raises(ValueError, match="zero field"):
        grids.commutator_residual(f, 1.0)


def _constructions(monkeypatch, check):
    """The ``ToaEigenfunction`` stacks that one call of ``verify.<check>`` builds."""
    real, built = eigenfunctions.ToaEigenfunction, []

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    # the name every constructor, public or not, looks up at call time
    monkeypatch.setattr(eigenfunctions, "ToaEigenfunction", counting)
    getattr(verify, check)()
    return built


# the members each check may construct: one stack per family and mass
@pytest.mark.parametrize("check, most", [
    ("check_time_family_residual", 4),
    ("check_position_family_pointwise", 3),
    ("check_event_family_pointwise", 3),
    ("check_family_consistency", 4),
    ("check_rational_crosscheck", 2),
])
def test_family_checks_build_one_stack_per_family_and_mass(monkeypatch, check, most):
    assert 0 < len(_constructions(monkeypatch, check)) <= most


def test_family_consistency_takes_its_masses_as_a_label(monkeypatch):
    # one event and one position stack, each holding both masses
    built = _constructions(monkeypatch, "check_family_consistency")
    assert [args[0] for args in built] == ["event", "position"]
    assert all(set(np.ravel(args[1])) == {0.5, 3.0} for args in built)


def test_norm_drift_evolves_once(monkeypatch):
    real, calls = arrival.evolve, []

    def counting(f, m, t):
        calls.append(t)
        return real(f, m, t)

    monkeypatch.setattr(arrival, "evolve", counting)
    spec = arrival.PacketSpec(m=1.0, x0=-10.0, p0=2.0, sigma_p=0.1)
    f = arrival.build_packet(spec, grids.build_grid(1e-3, 10.0, 64, 4))
    assert np.max(verify.check_norm_drift(f, 1.0)) <= 1e-12
    assert len(calls) == 1
