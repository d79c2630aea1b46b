"""One phase table for every lattice sum: ``eigenfunctions._lattice_phases``.

The node sums over a uniform t or x lattice (arrival amplitudes, the flux,
the position profile, the delta-concentration scan, the resynthesis) go
through ``_lattice_overlaps`` or ``_lattice_adjoint``.  Each takes one
coefficient block, whose lam = +1 and lam = -1 columns share the two exp
tables that ``_lattice_phases`` builds as outer products, the lam = -1
columns through their conjugates.  An ``outer`` call anywhere else
in ``src/dirac_toa`` builds a second, dense n x N phase table, and this rule
fails.  Calls match by name: ``np.outer``, ``np.<ufunc>.outer`` and a bare
``outer``.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dirac_toa"

# (module, top-level function) allowed to call outer
_PHASE_TABLE = {("eigenfunctions", "_lattice_phases")}


def _is_outer(func: ast.expr) -> bool:
    return (isinstance(func, ast.Attribute) and func.attr == "outer") or (
        isinstance(func, ast.Name) and func.id == "outer"
    )


def outer_calls(sources: dict) -> list:
    """(module, enclosing top-level name or None, line) of every outer call
    outside ``_PHASE_TABLE``."""
    found = []
    for mod, text in sources.items():
        for top in ast.parse(text).body:
            owner = getattr(top, "name", None)
            if (mod, owner) in _PHASE_TABLE:
                continue
            found += [
                (mod, owner, node.lineno)
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and _is_outer(node.func)
            ]
    return found


def test_outer_is_called_only_in_the_phase_table():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert len(sources) >= 9
    assert outer_calls(sources) == []


def test_rule_flags_outer_outside_the_phase_table():
    sources = {
        "eigenfunctions": "import numpy as np\n"
                          "def _lattice_phases(E, t):\n    return np.outer(t, E)\n"
                          "class F:\n    def kernel(self, x, p):\n        return np.outer(x, p)\n",
        "arrival": "import numpy as np\nfrom numpy import outer\n"
                   "K = np.multiply.outer([1.0], [2.0])\n"
                   "def profile(x, p):\n    return np.exp(1j * outer(x, p))\n",
    }
    assert outer_calls(sources) == [
        ("eigenfunctions", "F", 6), ("arrival", None, 3), ("arrival", "profile", 5),
    ]
