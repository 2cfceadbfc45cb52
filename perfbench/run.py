"""Benchmark of the polydiv pipeline.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 55 --trace 0

Runs one workload (``sweep``, ``shapes`` or ``element``; see
``workloads.py`` and ``README.md``) as a closed loop with a single client:
one process, one command call at a time.  One untimed warm-up pass comes
first; timed passes then repeat for about ``--seconds``.  Every pass's
outputs are checked, the warm-up pass's too.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  Earlier lines give the provenance, each
pass and the output fingerprint.

The program is imported from ``src/`` of the checkout this file lives in;
the benchmark writes only under ``.perfbench_run/`` of that checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
# timed passes, not counting the warm-up pass
MIN_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("sweep", "shapes", "element"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import polydiv from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import polydiv

    if Path(polydiv.__file__).resolve().parent != SRC / "polydiv":
        raise ImportError(f"polydiv was imported from {polydiv.__file__}, not from {SRC}")


def provenance(nproc: int) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "polydiv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def timed_setup(name: str, seed: int, workdir: Path):
    """Set the workload up SETUP_REPS times.  One repetition is a fresh
    interpreter importing polydiv plus generating, validating and writing
    the inputs: what a user pays before the first command runs."""
    from workloads import setup_workload

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    wl = None
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import polydiv"], env=env, cwd=ROOT, check=True)
        wl = setup_workload(name, seed, workdir)
        times.append(time.perf_counter() - t0)
    return wl, times


def run(args) -> int:
    nproc = cap_blas_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import polydiv from {SRC}: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    prov = provenance(nproc)
    print("provenance " + json.dumps(prov, sort_keys=True))
    wl, setup_times = timed_setup(args.workload, args.seed, WORK / args.workload)
    checker = workloads.Checker(wl, workloads.load_reference())
    tracer = spans.Tracer() if args.trace else None
    os.chdir(wl.workdir)

    durations = {False: [], True: []}
    layer_runs = []
    fired = set()
    attempted = failed = 0
    fingerprint = {}
    index = 0
    t_begin = None
    while True:
        # pass 0 warms the interpreter and allocator up and is not timed;
        # a traced run then alternates untraced and traced passes
        warmup = index == 0
        traced = tracer is not None and index % 2 == 0 and not warmup
        gc.collect()
        outcome = None
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.patched(), tracer.traced_pass(index):
                    result = workloads.run_pass(wl)
                    with tracer.span(spans.CHECK):
                        outcome = checker.check(result)
            else:
                result = workloads.run_pass(wl)
                outcome = checker.check(result)
        except Exception:
            traceback.print_exc()
        dt = time.perf_counter() - t0
        if outcome is None:
            outcome = workloads.CheckResult(wl.elements_per_pass, wl.elements_per_pass, ["pass raised"], {})
        attempted += outcome.attempted
        failed += outcome.failed
        fingerprint = outcome.fingerprint or fingerprint
        print(
            f"pass {index} traced={int(traced)} warmup={int(warmup)} seconds={dt:.4f} elements={outcome.attempted} "
            f"failed={outcome.failed}" + "".join(f" | {n}" for n in outcome.notes)
        )
        index += 1
        if warmup:
            # one CLI command is one process: its peak is the first pass's
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            t_begin = time.perf_counter()
            continue
        durations[traced].append(dt)
        if traced and not outcome.notes:
            metrics, names, unattributed = tracer.pass_metrics()
            if abs(unattributed) > spans.COVERAGE_TOLERANCE:
                print(
                    f"perfbench: layer self times leave {unattributed:.2%} of traced pass {index - 1} unattributed "
                    f"(tolerance {spans.COVERAGE_TOLERANCE:.0%})",
                    file=sys.stderr,
                )
                return 1
            layer_runs.append(metrics)
            fired |= names
        done = len(durations[False]) + len(durations[True])
        elapsed = time.perf_counter() - t_begin
        estimate = statistics.median(durations[False] + durations[True])
        if done >= MIN_PASSES and elapsed + estimate > args.seconds:
            break

    untraced = durations[False]
    print(f"setup_s samples={[round(t, 4) for t in setup_times]}")
    print(
        f"pass_s mean={statistics.fmean(untraced):.4f} min={min(untraced):.4f} "
        f"median={statistics.median(untraced):.4f} max={max(untraced):.4f} n={len(untraced)}"
    )
    print(f"failed_frac={failed / attempted} ({failed}/{attempted} elements)")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_s": (statistics.fmean(untraced), "s"),
            "elements_per_s": (wl.elements_per_pass * len(untraced) / sum(untraced), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.write(wl.workdir / "spans.json")
        if not layer_runs:
            print("perfbench: no traced pass passed its checks", file=sys.stderr)
            return 1
        missing = tracer.missing(args.workload, fired)
        if missing:
            print("missing " + json.dumps(missing))
        metrics = {}
        for name, unit in spans.PER_LAYER_UNITS.items():
            if name == "trace.overhead_frac":
                value = statistics.fmean(durations[True]) / statistics.fmean(untraced) - 1.0
            elif spans.metric_missing(name, missing):
                continue  # reported as missing above, never as zero
            else:
                value = statistics.median(run[name] for run in layer_runs)
            metrics[name] = (value, unit)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("POLYDIV_MESH_H"):
        print("perfbench: POLYDIV_MESH_H is set and would change every workload's mesh; unset it", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
