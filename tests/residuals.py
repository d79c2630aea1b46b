"""Every ``verify`` residual as ``float.hex``, one row per config and check.

The configs are perfbench's ``verify_default`` (the default config),
``arrival_dense`` and ``arrival_broad``, and the default at each ``--mass M``.
Each tree's checks run in their own interpreter with BLAS at one thread.
Run from the repository root (pytest does not collect this file):

    python tests/residuals.py [--mass M ...] [--since REV]

With ``--since REV`` the same rows are also computed on ``git archive REV
src`` in a temporary directory, and only the rows that differ are printed,
as ``config check REV-value -> value``; the exit status is 1 if any row
differs, 0 if none does.
"""
import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

# reads {label: config dict} on stdin, prints [[label, check, float.hex], ...]
_CHILD = """
import json, sys
from dirac_toa.config import config_from_dict
from dirac_toa.verify import run_all_checks
rows = []
for label, data in json.load(sys.stdin).items():
    rows += [[label, r.name, float(r.max_residual).hex()] for r in run_all_checks(config_from_dict(data))]
print(json.dumps(rows))
"""
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def configs(masses) -> dict:
    """label -> config dict, in row order."""
    default = WORKLOADS["verify_default"]["config"]
    out = {"default": default, **{name: WORKLOADS[name]["config"] for name in ("arrival_dense", "arrival_broad")}}
    out.update({f"mass={m!r}": {**default, "mass": m} for m in masses})
    return out


def residuals(src: Path, masses) -> dict:
    """(config, check) -> float.hex of the residual, by the package in ``src``."""
    env = {**os.environ, **THREAD_ENV, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(configs(masses)), env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"verify failed on {src}:\n{done.stderr}")
    return {(label, name): value for label, name, value in json.loads(done.stdout)}


def archived_src(rev: str, into: Path) -> Path:
    """``git archive REV src`` unpacked into ``into``; returns its src directory."""
    tar = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description="every verify residual as float.hex")
    parser.add_argument("--mass", type=float, action="append", default=[], help="also the default config at mass M")
    parser.add_argument("--since", metavar="REV", help="print only the rows that differ from this git revision")
    args = parser.parse_args()
    now = residuals(ROOT / "src", args.mass)
    if not args.since:
        for (label, name), value in now.items():
            print(f"{label:<16} {name:<36} {value}")
        return 0
    with tempfile.TemporaryDirectory() as work:
        then = residuals(archived_src(args.since, Path(work)), args.mass)
    differ = [key for key in {**then, **now} if then.get(key) != now.get(key)]
    for label, name in differ:
        print(f"{label:<16} {name:<36} {then.get((label, name))} -> {now.get((label, name))}")
    print(f"{len(differ)} of {len(now)} rows differ from {args.since}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
