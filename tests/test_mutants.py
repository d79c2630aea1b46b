"""Mutants that `verify` must catch: each is applied by ``monkeypatch``,
with no source edit, and the named check must FAIL and `verify` exit 1.

The mutants here put NaN into a term of their check.  Python's ``max`` drops
a NaN that is not its first argument; ``run_all_checks`` folds every residual
with ``np.max``, which keeps it.
"""
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from dirac_toa import arrival, cli, limits


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
