"""Mutants of the program, each applied by ``monkeypatch`` with no source
file edited.  Under each mutant of the first two batches the named check
must FAIL and `verify` exit 1.

The first batch puts NaN into a term of its check.  Python's ``max`` drops
a NaN that is not its first argument; ``run_all_checks`` folds every residual
with ``np.max``, which keeps it.  The second batch makes one number of the
physics wrong, and its check must read a finite residual above tolerance,
on the default config or at the mass the row names.  The third batch
makes one number wrong that `verify` passes at 42/42, each by a one-line
edit of a function's source (the ``edited`` fixture); each breaks the
relation of the tier-1 test that its row names.
"""
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import test_arrival
import test_symmetries
from dirac_toa import algebra, arrival, cli, eigenfunctions, grids, limits
from dirac_toa.config import DEFAULT_CONFIG


def _nan_at_label(real, k, part=None):
    """``real`` with the k-th value of its output, counted in flat order over
    all its calls, set to NaN; ``part`` picks one entry of a tuple output."""
    seen = 0

    def mutant(*args):
        nonlocal seen
        out = real(*args)
        term = np.array(out if part is None else out[part], dtype=float)
        flat = term.reshape(-1)
        if seen <= k < seen + flat.size:
            flat[k - seen] = math.nan
        seen += flat.size
        return term if part is None else (*out[:part], term, *out[part + 1:])

    return mutant


def _w_order_nan(real):
    def mutant(ratios):
        rep_u, rep_w = real(ratios)
        return rep_u, replace(rep_w, fitted_order=math.nan)

    return mutant


def _all_nan(real):
    return lambda *args: np.full_like(real(*args), math.nan)


# (check, module, attribute, mutant of the real attribute)
MUTANTS = [
    ("arrival_peak_benchmark", arrival, "flux_peak_time", lambda real: lambda t, J: math.nan),
    ("nr_spinor_slope", limits, "nr_spinor_limit_scan", _w_order_nan),
    ("nr_eigenvalue_gap", limits, "nr_eigen_limit_check", lambda real: _nan_at_label(real, 2, part=2)),
    ("dual_residual", limits, "dual_residual", lambda real: _nan_at_label(real, 1)),
    ("nr_eigenfunction_ratio", limits, "nr_eigenfunction_limit", _all_nan),
    ("nr_eigenfunction_order", limits, "nr_eigenfunction_limit", _all_nan),
]


@pytest.mark.parametrize("check, module, attr, mutate", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_a_nan_term_fails_its_check_and_verify(monkeypatch, capsys, check, module, attr, mutate):
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert re.search(rf"^{check}\s+max_residual=nan\s+tolerance=\S+\s+FAIL$", out, re.MULTILINE), out


def _t_non_with_abs_p(real):
    def mutant(x, p, m):
        t_rel, _, _ = real(x, p, m)
        t_non = -x * m / np.abs(p)
        return t_rel, t_non, abs(t_rel - t_non)

    return mutant


def _scaled_values(real):
    def mutant(*args):
        out = real(*args)
        return replace(out, values=out.values * 1.001)

    return mutant


def _toa_mass_term_negated(real):
    def mutant(f, m):
        out = real(f, m)
        p = f.grid.nodes
        term = (1j * m / (2.0 * p * p))[:, None] * (f.values * algebra._BETA_DIAG)
        return replace(out, values=out.values - 2.0 * term)

    return mutant


def _energy_weight_to_the_1_8(real):
    # the map's factor [E^2/(E^2 - m^2)]^(1/4) taken to the power 1/8
    def mutant(f, m):
        return tuple(
            replace(g, values=g.values * ((g.nodes**2 / (g.nodes**2 - m * m)) ** -0.125)[:, None])
            for g in real(f, m)
        )

    return mutant


def _jacobian_e_over_p(grid, m):
    # grids._induced_energy_axis with the weights w_p E_p / p, not w_p p / E_p
    ppos = grid.nodes[grid.positive]
    E_p = np.hypot(ppos, m)
    return E_p, grid.weights[grid.positive] * (E_p / ppos)


# (mutant, check, residual measured, config mass, bindings, mutant of the real attribute)
WRONG_NUMBERS = [
    ("W_to_the_1.001", "time_family_resynthesis", 1.2e-4, 1.0,
     [(eigenfunctions, "weight_factor"), (grids, "weight_factor"), (limits, "weight_factor")],
     lambda real: lambda m, p: real(m, p) ** 1.001),
    ("t_non_with_abs_p", "nr_eigenvalue_gap", 2.0, 1.0,
     [(limits, "nr_eigen_limit_check")], _t_non_with_abs_p),
    ("resynthesis_times_1.001", "time_family_resynthesis", 1.0e-3, 1.0,
     [(eigenfunctions, "resynthesize_time_family")], _scaled_values),
    ("toa_mass_term_negated", "commutator_analytic", 1.8, 1.0,
     [(grids, "apply_toa")], _toa_mass_term_negated),
    ("position_eigenvalue_with_abs_p", "position_family_pointwise", 42.7, 1.0,
     [(eigenfunctions.ToaEigenfunction, "eigenvalue")],
     lambda real: lambda self, p: real(self, np.abs(p) if self.family == "position" else p)),
    ("dvalue_dE_with_t_x", "dual_residual", 1.69, 1.0,
     [(limits.DualSolution, "dvalue_dE")],
     lambda real: lambda self, E, p: 1j * np.asarray(self.t_x)[..., None] * self.value(E, p)),
    ("energy_weight_to_the_1_8", "energy_parseval", 0.0546, 1.0,
     [(grids, "to_energy_rep")], _energy_weight_to_the_1_8),
    # tau(p) = x m / |p| is |tau| sign(x) at m >= 0, in the spinor and its d/dtau
    ("event_tau_with_abs_p", "event_family_pointwise", 42.7, 1.0,
     [(eigenfunctions, "event_spinor_values"), (eigenfunctions, "event_spinor_tau_derivative")],
     lambda real: lambda x, tau, b, s: real(x, np.abs(tau) * np.sign(x), b, s)),
    # the measure identity of the config grid read 0.0 at m = 100 before it ran
    # on an axis scaled with m
    ("energy_jacobian_E_over_p", "measure_identity", 3.04, 100.0,
     [(grids, "_induced_energy_axis")], lambda real: _jacobian_e_over_p),
]


@pytest.mark.parametrize("check, measured, mass, bindings, mutate", [m[1:] for m in WRONG_NUMBERS],
                         ids=[m[0] for m in WRONG_NUMBERS])
def test_a_wrong_number_fails_its_check_and_verify(monkeypatch, capsys, tmp_path, check, measured, mass,
                                                   bindings, mutate):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**DEFAULT_CONFIG, "mass": mass}), encoding="utf-8")
    for owner, attr in bindings:
        monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
    assert cli.main(["verify", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    found = re.search(rf"^{check}\s+max_residual=(\S+)\s+tolerance=(\S+)\s+FAIL$", out, re.MULTILINE)
    assert found, out
    residual, tolerance = (float(v) for v in found.groups())
    assert tolerance < residual < math.inf, (residual, measured)


# (mutant, tier-1 test whose relation it breaks, that test's arguments, module,
# function, one-line source edit (old, new)); the ROADMAP's item 17 table
# lists `verify` at 42/42 under each, on the default and arrival_broad configs
SEEN_BY_TESTS = [
    ("interference_factor_1", test_symmetries.test_interference_identity_on_raw_curves.hypothesis.inner_test,
     dict(m=1.0, p0=2.0, width=0.1, x0=0.0, theta=math.pi / 4, phi=0.0, s=0.5),
     arrival, "_normalized", ("pi_int = 2.0 *", "pi_int = 1.0 *")),
    ("full_line_mirror_negated", test_arrival.test_full_line_mass_mirror_term_at_zero_mass, {},
     arrival, "_full_line_mass", ("np.real(direct + mirror)", "np.real(direct - mirror)")),
    ("peak_shift_sign_flipped", test_arrival.test_peak_location_refines_between_samples, dict(center=3.37),
     arrival, "peak_location", ("shift = 0.5 *", "shift = -0.5 *")),
    ("J_times_0.9995", test_arrival.test_flux_matches_position_profile_current,
     dict(two_branch_packet=None, grid512=grids.build_grid(1e-3, 10.0, 512, 4), field="random", m=1.0),
     arrival, "arrival_distribution", ("J = 2.0 *", "J = 0.9995 * 2.0 *")),
]


@pytest.mark.parametrize("relation, kwargs, module, name, edit", [m[1:] for m in SEEN_BY_TESTS],
                         ids=[m[0] for m in SEEN_BY_TESTS])
def test_a_wrong_number_that_verify_passes_breaks_a_tier1_relation(monkeypatch, edited, relation, kwargs,
                                                                   module, name, edit):
    relation(**kwargs)
    monkeypatch.setattr(module, name, edited(module, name, *edit))
    with pytest.raises(AssertionError):
        relation(**kwargs)
