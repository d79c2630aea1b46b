"""Mutants that `verify` must catch: each is applied by ``monkeypatch``,
with no source edit, and the named check must FAIL and `verify` exit 1.

The first batch puts NaN into a term of its check.  Python's ``max`` drops
a NaN that is not its first argument; ``run_all_checks`` folds every residual
with ``np.max``, which keeps it.  The second batch makes one number of the
physics wrong, and its check must read a finite residual above tolerance.
"""
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from dirac_toa import algebra, arrival, cli, eigenfunctions, grids, limits


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


# (mutant, check, residual measured on the default config, bindings, mutant of the real attribute)
WRONG_NUMBERS = [
    ("W_to_the_1.001", "time_family_resynthesis", 1.2e-4,
     [(eigenfunctions, "weight_factor"), (grids, "weight_factor"), (limits, "weight_factor")],
     lambda real: lambda m, p: real(m, p) ** 1.001),
    ("t_non_with_abs_p", "nr_eigenvalue_gap", 2.0,
     [(limits, "nr_eigen_limit_check")], _t_non_with_abs_p),
    ("resynthesis_times_1.001", "time_family_resynthesis", 1.0e-3,
     [(eigenfunctions, "resynthesize_time_family")], _scaled_values),
    ("toa_mass_term_negated", "commutator_analytic", 1.8,
     [(grids, "apply_toa")], _toa_mass_term_negated),
    ("position_eigenvalue_with_abs_p", "position_family_pointwise", 42.7,
     [(eigenfunctions.ToaEigenfunction, "eigenvalue")],
     lambda real: lambda self, p: real(self, np.abs(p) if self.family == "position" else p)),
    ("dvalue_dE_with_t_x", "dual_residual", 1.69,
     [(limits.DualSolution, "dvalue_dE")],
     lambda real: lambda self, E, p: 1j * np.asarray(self.t_x)[..., None] * self.value(E, p)),
]


@pytest.mark.parametrize("check, measured, bindings, mutate", [m[1:] for m in WRONG_NUMBERS],
                         ids=[m[0] for m in WRONG_NUMBERS])
def test_a_wrong_number_fails_its_check_and_verify(monkeypatch, capsys, check, measured, bindings, mutate):
    for owner, attr in bindings:
        monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    found = re.search(rf"^{check}\s+max_residual=(\S+)\s+tolerance=(\S+)\s+FAIL$", out, re.MULTILINE)
    assert found, out
    residual, tolerance = (float(v) for v in found.groups())
    assert tolerance < residual < math.inf, (residual, measured)
