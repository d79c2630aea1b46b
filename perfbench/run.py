#!/usr/bin/env python3
"""Benchmark of the dirac_toa CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload arrival_dense --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seconds 40        # every workload, every metric

Run from anywhere; the program is taken from ``src/`` next to this directory.
Each workload runs the real CLI as a child process, one at a time, with BLAS
pinned to one thread, for ``--seconds`` seconds, and checks every output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one traced
in-process run and reports the per-layer metrics.  The last line of stdout is
one JSON object holding the metrics that ``BENCHMARK.json`` declares.  See
``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REF_DIR = os.path.join(HERE, "reference")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before numpy loads in this process

sys.path.insert(0, HERE)
import numpy as np  # noqa: E402

import outputs  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_for  # noqa: E402

CHILD_TIMEOUT_S = 60.0
SETUP_RUNS = 7  # fresh interpreters per run for setup_s, after one warm-up
IMPORT_RUNS = 3
SETUP_CODE = (
    "import sys, dirac_toa.cli\n"
    "from dirac_toa.config import load_config\n"
    "load_config(sys.argv[1])\n"
)

# printed check name -> the verify function that computes it
VERIFY_CHECKS = {
    "clifford_algebra": "check_clifford",
    "alpha_beta_hermitian": "check_hermiticity",
    "helicity_orthonormality": "check_helicity",
    "spinor_unit_norm": "check_spinor_norms",
    "hamiltonian_eigen": "check_hamiltonian_eigen",
    "spinor_orthonormality_completeness": "check_orthonormality_completeness",
    "w_relation": "check_w_relation",
    "duality_bijection": "check_duality_bijection",
    "grid_weight_sum": "check_grid_weight_sum",
    "grid_gaussian_quadrature": "check_grid_gaussian",
    "grid_odd_integrand": "check_grid_odd",
    "commutator_analytic": "check_commutator_analytic",
    "commutator_order_2": "check_commutator_order",
    "commutator_order_4": "check_commutator_order",
    "measure_identity": "check_measure_identity",
    "energy_parseval": "check_parseval",
    "branch_isolation": "check_branch_isolation",
    "symmetry_defect": "check_symmetry_defect",
    "boundary_rejection": "check_boundary_rejection",
    "massless_reduction": "check_massless_reduction",
    "time_family_eigen_residual": "check_time_family_residual",
    "position_family_pointwise": "check_position_family_pointwise",
    "event_family_pointwise": "check_event_family_pointwise",
    "family_label_consistency": "check_family_consistency",
    "rational_eigenvalue_crosscheck": "check_rational_crosscheck",
    "overlap_orthogonality": "check_overlap_orthogonality",
    "delta_concentration_width": "check_delta_concentration",
    "time_family_resynthesis": "check_resynthesis",
    "evolution_norm_drift": "check_norm_drift",
    "interference_single_branch": "check_interference_zero",
    "arrival_peak_benchmark": "check_arrival_benchmark",
    "flux_unit_crossing": "check_flux_unit_crossing",
    "mirror_symmetry": "check_mirror_symmetry",
    "group_velocity": "check_group_velocity",
    "antiparticle_reversed_peak": "check_antiparticle_peak",
    "nonrel_arrival_l1": "check_nonrel_arrival_l1",
    "nr_spinor_slope": "check_nr_spinor_slope",
    "nr_spinor_leading_term": "check_nr_spinor_leading",
    "nr_eigenvalue_gap": "check_nr_eigenvalue_gap",
    "nr_eigenfunction_ratio": "check_nr_eigenfunction_ratio",
    "nr_eigenfunction_order": "check_nr_eigenfunction_order",
    "dual_residual": "check_dual_residual",
    "deficiency_indices": "check_deficiency",
}
CHECK_LINE = re.compile(r"^(\S+)\s+max_residual=\S+\s+tolerance=\S+\s+(PASS|FAIL)\s*$")
IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")

# per-layer metric -> (span name, field) read from the trace summary
SPAN_METRICS = {
    "config.load_config_s": ("config.load_config", "inclusive_s"),
    "grids.build_grid.calls": ("grids.build_grid", "calls"),
    "grids.build_grid_s": ("grids.build_grid", "inclusive_s"),
    "grids.fd_weights.calls": ("grids.fd_weights", "calls"),
    "grids.inner_product.calls": ("grids.inner_product", "calls"),
    "grids.inner_product_s": ("grids.inner_product", "inclusive_s"),
    "algebra.energy_spinor_values.calls": ("algebra.energy_spinor_values", "calls"),
    "algebra.energy_spinor_values_s": ("algebra.energy_spinor_values", "inclusive_s"),
    "eigenfunctions.on_grid.calls": ("eigenfunctions.on_grid", "calls"),
    "eigenfunctions.on_grid_s": ("eigenfunctions.on_grid", "inclusive_s"),
    "eigenfunctions.resynthesize_time_family_s": ("eigenfunctions.resynthesize_time_family", "inclusive_s"),
    "arrival.arrival_distribution.calls": ("arrival.arrival_distribution", "calls"),
    "arrival.arrival_distribution_s": ("arrival.arrival_distribution", "inclusive_s"),
    "arrival.flux_at_origin.calls": ("arrival.flux_at_origin", "calls"),
    "arrival.flux_at_origin_s": ("arrival.flux_at_origin", "inclusive_s"),
    "arrival.build_packet_s": ("arrival.build_packet", "inclusive_s"),
    "arrival.evolve_s": ("arrival.evolve", "inclusive_s"),
    "arrival.position_profile_s": ("arrival.position_profile", "inclusive_s"),
    "arrival.arrival_distribution_nonrel_s": ("arrival.arrival_distribution_nonrel", "inclusive_s"),
}
LAYER_SELF = ("grids", "algebra", "eigenfunctions", "arrival", "limits", "cli")
KERNELS = ("arrival.arrival_distribution", "arrival.flux_at_origin")


def unit_of(metric: str) -> str:
    if metric.endswith(".calls") or metric == "verify.checks_failed":
        return "count"
    return {
        "peak_rss_mb": "MB",
        "error_rate": "share",
        "cli.output_bytes": "bytes",
        "arrival.ns_per_sample_node": "ns",
        "arrival.live_node_share": "share",
    }.get(metric, "s")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list, log_dir: str, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one child; wall time is from launch to reap, rusage from wait4."""
    out_path, err_path = os.path.join(log_dir, "stdout"), os.path.join(log_dir, "stderr")
    lock, state = threading.Lock(), {"reaped": False, "killed": False}
    with open(out_path, "wb") as so, open(err_path, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=so, stderr=se, env=_child_env(), cwd=ROOT)

        def kill():
            with lock:
                if not state["reaped"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            with lock:
                state["reaped"] = True
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {
        "wall_s": wall,
        "returncode": proc.returncode,
        "timed_out": state["killed"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stdout": stdout,
        "stderr": stderr,
    }


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

class Workload:
    """One workload's config on disk and its reference outputs."""

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.command = WORKLOADS[name]["command"]
        self.config = config_for(name, seed)
        self.config_path = os.path.join(work, f"{name}.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.ref = self.ref_pi_total = None
        if self.command == "arrival":
            with open(os.path.join(REF_DIR, f"{name}.json"), "r", encoding="utf-8") as fh:
                self.ref = json.load(fh)
            with np.load(os.path.join(REF_DIR, f"{name}.npz")) as z:
                self.ref_pi_total = z["Pi_total"]

    def cli_args(self, out_dir: str) -> list:
        return [self.command, "--config", self.config_path, "--out", out_dir]

    def check(self, out_dir: str, child: dict) -> list:
        """Output problems of one run; a timeout or crash is a problem too."""
        if child["timed_out"]:
            return [f"timed out after {CHILD_TIMEOUT_S} s"]
        if self.command == "arrival":
            problems = outputs.check_arrival(out_dir, child["returncode"], self.ref, self.ref_pi_total)
        else:
            problems = outputs.check_verify(out_dir, child["returncode"], child["stdout"])
        if problems and child["returncode"] != 0:
            problems.append(_last_line(child["stderr"]))
        return problems

    def byte_identical(self, out_dir: str):
        path = os.path.join(out_dir, "arrival.csv")
        if self.ref is None or not os.path.isfile(path):
            return None
        return outputs.sha256_of(path) == self.ref["csv_sha256"]


def cli_runs(wl: Workload, seconds: float, work: str) -> list:
    """Untraced CLI runs, one after another, until ``seconds`` have passed."""
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        run_dir = tempfile.mkdtemp(dir=work)
        out_dir = os.path.join(run_dir, "out")
        child = run_child([sys.executable, "-m", "dirac_toa.cli", *wl.cli_args(out_dir)], run_dir)
        problems = wl.check(out_dir, child)
        runs.append({
            "wall_s": child["wall_s"],
            "peak_rss_mb": child["peak_rss_mb"],
            "cpu_s": child["cpu_s"],
            "returncode": child["returncode"],
            "problems": problems,
            "output_bytes": _dir_bytes(out_dir) if os.path.isdir(out_dir) else 0,
            "byte_identical": wl.byte_identical(out_dir),
        })
        shutil.rmtree(run_dir)
    return runs


def setup_times(wl: Workload, work: str) -> list:
    """Fresh interpreters that import the CLI and load the config, then exit.
    The first one warms the file cache and is not counted."""
    times = []
    for i in range(SETUP_RUNS + 1):
        child = run_child([sys.executable, "-c", SETUP_CODE, wl.config_path], work)
        if child["returncode"] != 0:
            raise RuntimeError(f"setup run failed: {_last_line(child['stderr'])}")
        if i:
            times.append(child["wall_s"])
    return times


def import_profile(work: str) -> dict:
    """Median over fresh interpreters of ``-X importtime`` for the CLI."""
    samples = []
    for _ in range(IMPORT_RUNS):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import dirac_toa.cli"], work)
        rows = [m for m in map(IMPORT_LINE.match, child["stderr"].splitlines()) if m]
        if child["returncode"] != 0 or not rows:
            raise RuntimeError(f"import profile failed: {_last_line(child['stderr'])}")
        top = min(len(m[3]) for m in rows)  # indentation of top-level imports
        total = sum(int(m[2]) for m in rows if len(m[3]) == top and m[4].startswith("dirac_toa"))
        scipy = sum(int(m[1]) for m in rows if m[4].split(".")[0] == "scipy")
        own = sum(int(m[1]) for m in rows if m[4].split(".")[0] == "dirac_toa")
        samples.append((total, scipy, own))
    total, scipy, own = (statistics.median(col) * 1e-6 for col in zip(*samples))
    return {"import.total_s": total, "import.scipy_s": scipy, "import.dirac_toa_self_s": own}


def probe(wl: Workload, work: str) -> dict:
    """Input properties of the workload, computed by the program itself."""
    child = run_child([sys.executable, os.path.join(HERE, "inproc.py"), "probe", wl.config_path], work)
    try:
        return json.loads(_last_line(child["stdout"]))
    except ValueError:
        return {"error": _last_line(child["stderr"]) or "probe printed nothing"}


def traced_run(wl: Workload, work: str) -> tuple:
    """One traced in-process CLI call: (trace summary, wall_s, problems)."""
    run_dir = tempfile.mkdtemp(dir=work)
    out_dir = os.path.join(run_dir, "out")
    spans_path = os.path.join(run_dir, "spans.json")
    child = run_child(
        [sys.executable, os.path.join(HERE, "inproc.py"), "trace", spans_path, *wl.cli_args(out_dir)],
        run_dir,
    )
    summary = None
    if os.path.isfile(spans_path):
        with open(spans_path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
    rc = child["returncode"]
    if summary is not None and rc == 0:
        # the in-process call reports its own status or crash
        rc = summary["status"] if summary["error"] is None else 1
        child["stdout"] = summary["stdout"]
        child["stderr"] = summary["error"] or ""
    problems = wl.check(out_dir, dict(child, returncode=rc))
    shutil.rmtree(run_dir)
    return summary, child["wall_s"], problems


def layer_metrics(summary, traced_wall: float, runs: list, imports: dict, props: dict) -> tuple:
    """Per-layer metrics and, for each null, the reason."""
    metrics, notes = dict(imports), {}
    if summary is None:
        return metrics, {"trace": "the traced child wrote no summary"}
    fns, wrapped = summary["functions"], set(summary["wrapped"])

    def span(metric, name, field):
        if name not in wrapped:
            metrics[metric] = None
            notes[metric] = f"{name} does not exist in the package"
        else:
            metrics[metric] = fns.get(name, {"calls": 0, "inclusive_s": 0.0})[field]

    for metric, (name, field) in SPAN_METRICS.items():
        span(metric, name, field)
    for layer in LAYER_SELF:
        metrics[f"{layer}.self_s"] = summary["layers"].get(layer, 0.0)

    kernel_s = sum(fns.get(k, {"inclusive_s": 0.0})["inclusive_s"] for k in KERNELS)
    samples = sum(summary["work"].get(k, 0) for k in KERNELS)
    metrics["arrival.ns_per_sample_node"] = 1e9 * kernel_s / samples if samples else None
    notes["arrival.ns_per_sample_node"] = (
        f"base: {samples} = sum of n_t*n_nodes over {' and '.join(KERNELS)} calls"
        if samples else "no arrival kernel call with n_t and a grid field"
    )
    metrics["arrival.live_node_share"] = props.get("live_node_share")
    if metrics["arrival.live_node_share"] is None:
        notes["arrival.live_node_share"] = f"probe failed: {props.get('error')}"

    checks = [CHECK_LINE.match(line) for line in summary["stdout"].splitlines()]
    checks = [m for m in checks if m]
    if checks:
        metrics["verify.checks_failed"] = sum(m[2] == "FAIL" for m in checks)
        for m in checks:
            fn = VERIFY_CHECKS.get(m[1])
            if fn is None:
                metrics[f"verify.check.{m[1]}_s"] = None
                notes[f"verify.check.{m[1]}_s"] = "no known verify function computes this check"
            else:
                span(f"verify.check.{m[1]}_s", f"verify.{fn}", "inclusive_s")
    else:
        metrics["verify.checks_failed"] = None
        notes["verify.checks_failed"] = "this workload runs no verify checks"

    good = [r for r in runs if r["returncode"] == 0] or runs
    metrics["cli.output_bytes"] = good[-1]["output_bytes"]
    metrics["cli.cpu_s"] = statistics.median(r["cpu_s"] for r in runs)
    metrics["trace.compute_s"] = summary["root_s"]
    metrics["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in runs)
    return metrics, notes


# ---------------------------------------------------------------------------
# run record and reporting
# ---------------------------------------------------------------------------

def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_version():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return None


def machine_record(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "thread_env": THREAD_ENV,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _stats(values: list) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": q[1], "q1": q[0], "q3": q[2],
            "min": values[0], "max": values[-1]}


def measure(name: str, seed: int, seconds: float, e2e: bool, layers: bool) -> dict:
    """Run one workload; return its metrics, sample statistics and record."""
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        wl = Workload(name, seed, work)
        props = probe(wl, work)
        setup = setup_times(wl, work) if e2e else []
        runs = cli_runs(wl, seconds, work)
        traced = traced_run(wl, work) if layers else None
        imports = import_profile(work) if layers else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runs) + (1 if traced else 0)
    problems = ["; ".join(r["problems"]) for r in runs if r["problems"]]
    failed = len(problems)
    metrics, samples, notes = {}, {}, {}
    if e2e:
        for key, values in (
            ("wall_s", [r["wall_s"] for r in runs]),
            ("setup_s", setup),
            ("peak_rss_mb", [r["peak_rss_mb"] for r in runs]),
        ):
            samples[key] = _stats(values)
            metrics[key] = samples[key]["median"]
        metrics["error_rate"] = failed / len(runs)
        samples["error_rate"] = {"n": len(runs), "failed": failed}
    if traced:
        summary, traced_wall, traced_problems = traced
        if traced_problems:
            failed += 1
            problems.append("traced run: " + "; ".join(traced_problems))
        layer, notes = layer_metrics(summary, traced_wall, runs, imports, props)
        metrics.update(layer)
        if summary is not None and summary.get("error"):
            notes["trace.status"] = f"the traced call raised {summary['error']}"
    identical = [r["byte_identical"] for r in runs if r["byte_identical"] is not None]
    record = dict(machine_record(seed), workload={
        "name": name,
        "command": WORKLOADS[name]["command"],
        "why": WORKLOADS[name]["why"],
        "seconds": seconds,
        **props,
        "byte_identical": all(identical) if identical else None,
        "failures": sorted(set(problems)),
    })
    return {"metrics": metrics, "samples": samples, "notes": notes, "record": record,
            "attempted": attempted, "failed": failed}


def print_report(result: dict) -> None:
    name = result["record"]["workload"]["name"]
    print(f"== {name}: {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["record"]["workload"]["failures"]:
        print(f"   failure: {failure}")
    if "trace.compute_s" in result["metrics"]:
        print(f"   per-layer figures come from one traced run; import.* is the median of "
              f"{IMPORT_RUNS} -X importtime runs; cli.cpu_s and cli.output_bytes come from "
              f"the untraced runs; trace.overhead_s is traced wall minus untraced median wall_s")
    for metric, value in result["metrics"].items():
        s = result["samples"].get(metric)
        if s and "median" in s:
            extra = f"  (median of n={s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, max {s['max']:.6g})"
        elif s:
            extra = f"  ({s['failed']} of n={s['n']} runs failed)"
        elif metric in result["notes"]:
            extra = f"  ({result['notes'][metric]})"
        else:
            extra = ""
        shown = "null" if value is None else f"{value:.6g}"
        print(f"   {metric} = {shown} {unit_of(metric)}{extra}")
    for metric, note in result["notes"].items():
        if metric not in result["metrics"]:
            print(f"   note {metric}: {note}")
    print("   record: " + json.dumps(result["record"], sort_keys=True))


def declared_metrics(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

def make_reference() -> None:
    """Write the reference outputs of every arrival workload from the
    program as it is now.  Run once; later runs are checked against them."""
    os.makedirs(REF_DIR, exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        for name, spec in WORKLOADS.items():
            if spec["command"] != "arrival":
                continue
            cfg_path = os.path.join(work, f"{name}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(config_for(name, DEFAULT_SEED), fh)
            out_dir = os.path.join(work, name)
            child = run_child([sys.executable, "-m", "dirac_toa.cli", "arrival",
                               "--config", cfg_path, "--out", out_dir], work)
            if child["returncode"] != 0:
                raise RuntimeError(f"{name}: {_last_line(child['stderr'])}")
            data = outputs.read_arrival_csv(os.path.join(out_dir, "arrival.csv"))
            with open(os.path.join(out_dir, "arrival.json"), "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
            np.savez_compressed(os.path.join(REF_DIR, f"{name}.npz"), Pi_total=data[:, 1])
            with open(os.path.join(REF_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump({
                    "peak_time": sidecar["peak_time"],
                    "flux_peak_time": sidecar["flux_peak_time"],
                    "csv_sha256": outputs.sha256_of(os.path.join(out_dir, "arrival.csv")),
                    "git_commit": _git_commit(),
                }, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote reference for {name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="every workload, every metric")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="also write the results to this JSON file")
    ap.add_argument("--make-reference", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dirac_toa", "cli.py")):
        print(f"no program to measure: {SRC}/dirac_toa/cli.py is missing", file=sys.stderr)
        return 2
    if args.make_reference:
        make_reference()
        return 0
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")

    names = sorted(WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        e2e, layers = (True, True) if args.all else (not args.trace, bool(args.trace))
        results[name] = measure(name, args.seed, args.seconds, e2e, layers)
        print_report(results[name])
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.all:
        return 0
    result = results[args.workload]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m: {"value": result["metrics"].get(m), "unit": unit_of(m)}
            for m in declared_metrics(bool(args.trace))
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
