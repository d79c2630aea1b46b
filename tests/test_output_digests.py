"""Every output of the four commands, byte for byte.

Each case runs the CLI in its own interpreter with BLAS at one thread, as
perfbench runs it, and the sha256 of every file it writes, and of
``verify``'s stdout, must match ``output_digests.json``.  The cases are
``arrival``, ``eigen``, ``limits`` and ``verify --out`` on the built-in
default config, and ``arrival`` on perfbench's ``arrival_dense`` and
``arrival_broad`` configs.  The sidecars echo the config, so a change of a
default shows too.

A change that moves a number rewrites the table in the same commit, with

    PYTHONPATH=src python tests/test_output_digests.py

and states the bound that the changed files were tested against.  The
digests hold for one numpy and BLAS; a new numpy is such a change too.
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("output_digests.json")
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

# case -> (command, perfbench workload whose config it reads, or None for the default)
CASES = {
    "arrival": ("arrival", None),
    "eigen": ("eigen", None),
    "limits": ("limits", None),
    "verify": ("verify", None),
    "arrival_dense": ("arrival", "arrival_dense"),
    "arrival_broad": ("arrival", "arrival_broad"),
}
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(work: Path) -> dict:
    """"case/file" -> sha256 of every file each case writes, and of
    "verify/stdout"; the cases run side by side."""
    env = {**os.environ, **THREAD_ENV, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    procs = {}
    for case, (command, workload) in CASES.items():
        argv = [sys.executable, "-m", "dirac_toa.cli", command, "--out", str(work / case)]
        if workload:
            config = work / f"{workload}.json"
            config.write_text(json.dumps(WORKLOADS[workload]["config"]), encoding="utf-8")
            argv += ["--config", str(config)]
        procs[case] = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    digests = {}
    for case, proc in procs.items():
        stdout, stderr = proc.communicate()
        assert proc.returncode == 0, (case, stderr.decode())
        if case == "verify":
            digests["verify/stdout"] = _sha256(stdout)
        for path in sorted((work / case).iterdir()):
            digests[f"{case}/{path.name}"] = _sha256(path.read_bytes())
    return digests


def test_every_output_matches_its_digest(tmp_path):
    assert output_digests(tmp_path) == json.loads(TABLE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        table = output_digests(Path(work))
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
