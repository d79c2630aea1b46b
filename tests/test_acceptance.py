"""Acceptance suite over the `verify` check registry.

One run of `run_all_checks` on the default config feeds every test; each
test asserts one topic's group of registry checks and prints a PASS/FAIL
line per check.  Residuals and tolerances come from `dirac_toa.verify`
only.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import ast
import inspect
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dirac_toa import cli, verify
from dirac_toa.config import DEFAULT_CONFIG, config_from_dict

ORDER = DEFAULT_CONFIG["grid"]["deriv_order"]

# topic -> registry names; together they cover the registry exactly once
GROUPS = {
    "01_clifford_algebra": [
        "clifford_algebra", "alpha_beta_hermitian", "helicity_orthonormality",
    ],
    "02_spinor_identities": [
        "spinor_unit_norm", "hamiltonian_eigen",
        "spinor_orthonormality_completeness", "w_relation",
    ],
    "03_canonical_commutator": [
        "grid_weight_sum", "grid_gaussian_quadrature", "grid_odd_integrand",
        "commutator_analytic", f"commutator_order_{ORDER}", "massless_reduction",
    ],
    "04_eigen_residuals": [
        "time_family_eigen_residual", "position_family_pointwise",
        "event_family_pointwise", "family_label_consistency",
        "rational_eigenvalue_crosscheck", "overlap_orthogonality",
        "delta_concentration_width", "time_family_resynthesis",
    ],
    "05_measure_identity_and_parseval": [
        "measure_identity", "energy_parseval", "branch_isolation",
    ],
    "06_symmetry_and_deficiency": [
        "symmetry_defect", "boundary_rejection", "deficiency_indices",
    ],
    "07_arrival_benchmark": [
        "evolution_norm_drift", "interference_single_branch",
        "arrival_peak_benchmark", "flux_unit_crossing", "mirror_symmetry",
        "group_velocity", "antiparticle_reversed_peak",
    ],
    "08_nonrelativistic_limit": [
        "nonrel_arrival_l1", "nr_spinor_slope", "nr_spinor_leading_term",
        "nr_eigenvalue_gap", "nr_eigenfunction_ratio", "nr_eigenfunction_order",
    ],
    "09_duality": ["duality_bijection", "dual_residual"],
}


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in verify.run_all_checks(config_from_dict(DEFAULT_CONFIG))}


def report(r) -> None:
    verdict = "PASS" if r.passed else "FAIL"
    print(
        f"ACCEPTANCE {r.name}: max_residual={r.max_residual:.3e} "
        f"tolerance={r.tolerance:.1e} {verdict}"
    )
    assert r.passed, f"{r.name}: {r.max_residual} > {r.tolerance}"


def check_group(results, topic: str) -> None:
    for name in GROUPS[topic]:
        report(results[name])


def test_groups_cover_the_registry(results):
    grouped = [name for names in GROUPS.values() for name in names]
    assert sorted(grouped) == sorted(verify.check_names(ORDER))
    assert list(results) == verify.check_names(ORDER)


def test_01_clifford_algebra(results):
    check_group(results, "01_clifford_algebra")


def test_02_spinor_identities(results):
    check_group(results, "02_spinor_identities")


def test_03_canonical_commutator(results):
    check_group(results, "03_canonical_commutator")


def test_04_eigen_residuals(results):
    check_group(results, "04_eigen_residuals")


def test_05_measure_identity_and_parseval(results):
    check_group(results, "05_measure_identity_and_parseval")


def test_06_symmetry_and_deficiency(results):
    check_group(results, "06_symmetry_and_deficiency")


def test_07_arrival_benchmark(results):
    check_group(results, "07_arrival_benchmark")


def test_08_nonrelativistic_limit(results):
    check_group(results, "08_nonrelativistic_limit")


def test_09_duality(results):
    check_group(results, "09_duality")


# from m = 0 through the subnormal and normal doubles to 1e5, and round the
# masses where symmetry_defect (m < 0.042) and measure_identity (1e-4..1e-2)
# failed at the config mass before both were made scale-free
MASSES = [0.0, 5e-324, 1e-318, 1e-310, 1e-300, 1e-6, 1e-4, 1e-3, 1e-2, 0.041, 0.1, 0.25, 100.0, 1e3, 1e5]
# the checks that need the energy map, in registry order, and the edge of
# their domain rule: 1e-4 m, their lowest axis node, is a normal double
ENERGY_SIDE = [
    "measure_identity", "energy_parseval", "branch_isolation",
    "symmetry_defect", "boundary_rejection", "deficiency_indices",
]
FIRST_EVALUATED = 2.2250738585072014e-304
LAST_VACUOUS = np.nextafter(FIRST_EVALUATED, 0.0)


@pytest.mark.parametrize("mass", MASSES)
def test_every_check_passes_across_masses(mass):
    cfg = config_from_dict({**DEFAULT_CONFIG, "mass": mass})
    results = verify.run_all_checks(cfg)
    assert len(results) == 42
    for r in results:
        report(r)


def test_the_energy_side_rule_starts_where_the_lowest_axis_node_is_normal():
    assert verify.ENERGY_SIDE_MIN_MASS == FIRST_EVALUATED
    assert 1e-4 * FIRST_EVALUATED >= np.finfo(float).tiny > 1e-4 * LAST_VACUOUS


@pytest.mark.parametrize(
    "mass, vacuous",
    [(0.0, ENERGY_SIDE), (5e-324, ENERGY_SIDE), (LAST_VACUOUS, ENERGY_SIDE), (FIRST_EVALUATED, []), (1.0, [])],
    ids=["massless", "smallest_subnormal", "last_vacuous", "first_evaluated", "default"],
)
def test_verify_json_marks_the_checks_off_the_energy_side_rule_vacuous(tmp_path, mass, vacuous):
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps({**DEFAULT_CONFIG, "mass": mass}), encoding="utf-8")
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 0
    checks = json.loads((out / "verify.json").read_text(encoding="utf-8"))["checks"]
    assert [c["name"] for c in checks if "vacuous" in c] == vacuous
    assert all(c["vacuous"] is True and c["max_residual"] == 0.0 and c["pass"] for c in checks if "vacuous" in c)


# the six checks that ran at max(m, 0.5), and the position of the mass
# among each one's arguments
ONCE_CLAMPED = {
    "check_commutator_analytic": 0, "check_measure_identity": 0, "check_symmetry_defect": 0,
    "check_boundary_rejection": 0, "check_interference_zero": 1, "check_deficiency": 0,
}


def test_the_once_clamped_checks_run_at_the_config_mass(monkeypatch):
    seen = {}
    for name, position in ONCE_CLAMPED.items():
        def spy(*args, real=getattr(verify, name), name=name, position=position):
            seen.setdefault(name, []).append(args[position])
            return real(*args)

        monkeypatch.setattr(verify, name, spy)
    assert all(r.passed for r in verify.run_all_checks(config_from_dict({**DEFAULT_CONFIG, "mass": 1e-3})))
    assert seen == {name: [1e-3] for name in ONCE_CLAMPED}


@pytest.mark.parametrize("mass", [m for m in MASSES if m > 0.0])
def test_boundary_rejection_rejects_at_every_mass(mass):
    # verify reads it only where energy_side holds; the library check runs at any m > 0
    assert verify.check_boundary_rejection(mass) == 0.0


@pytest.mark.parametrize("mass", [10.0, 100.0, 1e5])
def test_measure_identity_compares_nonzero_sides_at_large_masses(monkeypatch, mass):
    # on the config grid h(E) = e^{-(E - 2)^2} put both sides at 0.0 from m ~ 30
    sides = []
    real = verify.grids.energy_measure_identity
    monkeypatch.setattr(verify.grids, "energy_measure_identity", lambda *args: sides.append(real(*args)) or sides[-1])
    assert verify.check_measure_identity(mass) <= 1e-8
    (left, right), = sides
    assert left > 0.0 and right > 0.0


@pytest.mark.parametrize("c_plus, c_minus", [([0.8, 0.0], [0.0, 0.6]), ([0.0, 0.0], [1.0, 0.0])])
def test_every_check_passes_on_two_branch_packets(c_plus, c_minus):
    # branch_isolation compares the lam = -1 branch with the packet's own |c_-|
    packet = {**DEFAULT_CONFIG["packet"], "c_plus": c_plus, "c_minus": c_minus}
    results = verify.run_all_checks(config_from_dict({**DEFAULT_CONFIG, "packet": packet}))
    assert len(results) == 42
    for r in results:
        report(r)


def test_a_run_builds_each_scenario_input_once(monkeypatch):
    # _Run holds the inputs that several checks share; no check builds one again
    cfg = config_from_dict(DEFAULT_CONFIG)
    seen, specs = Counter(), []

    def count(module, name, record):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            record(*args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(verify.arrival, "build_packet", lambda spec, grid: specs.append(spec))
    count(verify.grids, "to_energy_rep", lambda *args: seen.update(["to_energy_rep"]))
    count(verify.limits, "nr_spinor_limit_scan", lambda *args: seen.update(["nr_spinor_limit_scan"]))
    count(verify.limits, "build_grid", lambda *args: seen.update([args]))
    assert all(r.passed for r in verify.run_all_checks(cfg))
    assert seen["to_energy_rep"] == 1 and seen["nr_spinor_limit_scan"] == 1
    assert sum(s is cfg.packet for s in specs) == 1
    assert sum(s is verify._GROUP_SPEC for s in specs) == 1
    assert seen[(1e-2, 8.0, 1024)] <= 2  # the eigenfunction-limit z-grid


def _perfbench_verify_checks() -> dict:
    """VERIFY_CHECKS of perfbench/run.py, read from its source without importing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "VERIFY_CHECKS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no VERIFY_CHECKS")


@pytest.mark.parametrize("deriv_order", [2, 4])
def test_benchmark_times_every_check_by_a_public_function(deriv_order):
    # a check renamed in one place only would read as a null timing in the trace
    timed = _perfbench_verify_checks()
    for name in verify.check_names(deriv_order):
        fn = timed.get(name)
        assert fn is not None, f"perfbench/run.py times no function for {name}"
        assert not fn.startswith("_") and inspect.isfunction(getattr(verify, fn, None)), fn
