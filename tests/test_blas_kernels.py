"""Which tier-1 tests depend on the OpenBLAS gemm kernel.

numpy's OpenBLAS is a DYNAMIC_ARCH build: it picks its gemm kernel from the
CPU when it loads, and ``OPENBLAS_CORETYPE`` overrides that choice for one
process.  Each case runs the kernel-sensitive tests in one child under one
kernel, with BLAS at one thread as perfbench and the digest test run it,
and asserts the set that fails there, as measured on an AVX-512 (SkylakeX)
host, where all of them pass.  The sets depend on the thread count: at two
threads Haswell also fails ``per_column…[dense]``.  A mend, or a new dependence,
changes a set and shows here; the bounds of the tests themselves are not
touched by this file.
"""
import ctypes
import glob
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_output_digests import THREAD_ENV

ROOT = Path(__file__).resolve().parents[1]
SELECTION = ["tests/test_output_digests.py", "tests/test_arrival.py", "-k",
             "every_output_matches or helicity_flux_moves or per_column_contraction or folded_sums_match"]
DIGEST = "tests/test_output_digests.py::test_every_output_matches_its_digest"
FLUX, COLUMNS, FOLDED = (f"tests/test_arrival.py::test_{name}" for name in (
    "helicity_flux_moves_the_benchmark_flux_by_rounding",
    "per_column_contraction_matches_single_gemm",
    "folded_sums_match_the_sums_over_every_node",
))
FAILING = {
    "Haswell": {DIGEST, f"{FLUX}[dense]", f"{COLUMNS}[broad]", f"{FOLDED}[broad]"},
    "Sandybridge": {DIGEST, f"{COLUMNS}[broad]"},
    "Prescott": {DIGEST},
}
# prints the kernel OpenBLAS chose in the child, then runs the selection there
_CHILD = """
import sys
import pytest
import test_blas_kernels
print("kernel:", test_blas_kernels.corename(), flush=True)
sys.exit(pytest.main(sys.argv[1:]))
"""


def corename():
    """The name of the kernel numpy's OpenBLAS runs, or None when numpy
    carries no OpenBLAS that can name it."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in map(ctypes.CDLL, libs):  # numpy has loaded it, so this is the same handle
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):  # ILP64, LP64
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                return getter().decode()
    return None


@pytest.mark.parametrize("kernel", sorted(FAILING))
def test_the_kernel_sensitive_tests_fail_as_measured(kernel):
    here = corename()
    if here is None:
        pytest.skip("numpy's BLAS is no OpenBLAS that names its kernel, so OPENBLAS_CORETYPE has no known effect")
    env = {**os.environ, **THREAD_ENV, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", _CHILD, "-q", "-rf", "-p", "no:cacheprovider", *SELECTION]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    child = re.search(r"^kernel: (.*)$", done.stdout, re.MULTILINE).group(1)
    if child == here:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} has no effect here: the child runs {child}, as this process does")
    assert done.returncode in (0, 1), done.stdout + done.stderr
    assert set(re.findall(r"^FAILED (\S+)", done.stdout, re.MULTILINE)) == FAILING[kernel], done.stdout
