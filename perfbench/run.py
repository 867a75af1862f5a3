"""cfqmc benchmark: one workload per process, closed loop, one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign-rates --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

The workload runs back to back, each iteration after the previous one ends,
for ``--seconds`` seconds. With ``--trace 0`` the last line of stdout is a
JSON object holding the end-to-end metrics (``setup_s``, ``wall_s``,
``peak_rss_mb``); with ``--trace 1`` it holds the per-layer metrics, taken
from traced iterations that alternate with untraced ones. Lines before it
are a readable report: the host record, every metric with its unit, the
failed fraction and the result of every output check. Output files, the
full result record and the spans go to ``.bench_out/`` in the checkout.

``all`` runs the three workloads one after another, each in a fresh
process, and prints their reports and one combined JSON line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: on a 2-core host the campaign ran 20% slower with two.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("campaign-rates", "gp-spread", "point-scoring")
SETUP_REPEATS = 5
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import cfqmc from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cfqmc" / "__init__.py").is_file():
        raise SystemExit(f"error: no cfqmc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cfqmc

    if Path(cfqmc.__file__).resolve().parent != SRC / "cfqmc":
        raise SystemExit(f"error: imported cfqmc from {cfqmc.__file__}, not from {SRC}")


def source_digest() -> str:
    """Digest of the package and benchmark sources: runs with one digest are
    runs of one version of the code."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py"), *BENCH_DIR.glob("*.json")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def host_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Time from starting a fresh process to the end of the workload's
    set-up, read from the monotonic clock the child prints, so neither the
    child's exit nor waiting for it is counted."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE, text=True,
        )
        times.append(float(child.stdout) - start)
    return times


def measure(wl, seconds: float, tracer) -> tuple[dict[str, list[float]], list]:
    """Run iterations back to back until the next one would overrun
    ``seconds``, but at least MIN_ITERATIONS untraced ones. With a tracer
    every second iteration is traced, and one of each kind is enough."""
    times: dict[str, list[float]] = {"untraced": [], "traced": []}
    outcomes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(times["untraced"]) > len(times["traced"])
        gc.collect()
        t0 = time.perf_counter()
        if traced:
            with tracer.recording(len(times["traced"])):
                wl.execute()
        else:
            wl.execute()
        elapsed = time.perf_counter() - t0
        times["traced" if traced else "untraced"].append(elapsed)
        outcomes.append(wl.inspect())
        enough = times["traced"] if tracer else len(times["untraced"]) >= MIN_ITERATIONS
        if enough and time.perf_counter() - start + elapsed > seconds:
            return times, outcomes


def determinism_problems(key: str, digests: set[str]) -> list[str]:
    """Every iteration must produce the same outputs, and so must every
    earlier run of the same code and seed in this checkout."""
    if len(digests) != 1:
        return [f"iterations of one run produced {len(digests)} different outputs"]
    record_path = OUT / "digests.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    digest = next(iter(digests))
    if record.setdefault(key, digest) != digest:
        return [f"outputs differ from an earlier run of the same code and seed ({key})"]
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return []


def run_workload(args) -> int:
    import tracing
    import workloads

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    host = host_record()
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    tracer = tracing.Tracer() if args.trace else None
    times, outcomes = measure(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    problems = [p for o in outcomes for p in o.problems]
    problems += wl.reference_problems()
    key = f"{source_digest()[:16]}:{args.workload}:seed{args.seed}"
    problems += determinism_problems(key, {o.digest for o in outcomes})
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    quality = outcomes[-1].quality

    wall_s = statistics.median(times["untraced"])
    report = [("failed_frac", failed / attempted, f"ratio ({failed} of {attempted})")]
    if args.trace:
        layers, count_problems = tracer.layer_metrics()
        problems += count_problems
        layers.update({name: quality.get(name, 0.0) for name in tracing.QUALITY_UNITS})
        layers["trace_overhead_s"] = statistics.median(times["traced"]) - wall_s
        units = dict(tracing.LAYER_METRICS) | tracing.QUALITY_UNITS | {"trace_overhead_s": "s"}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        report += [(name, value, tracing.QUALITY_UNITS[name]) for name, value in quality.items()]

    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(
        f"workload {args.workload} seed {args.seed}: {len(times['untraced'])} untraced and "
        f"{len(times['traced'])} traced iterations; wall times (s) "
        + " ".join(f"{t:.3f}" for t in times["untraced"])
        + ("; traced " + " ".join(f"{t:.3f}" for t in times["traced"]) if args.trace else "")
    )
    if setup:
        print(f"set-up times (s, {len(setup)} fresh processes): " + " ".join(f"{t:.3f}" for t in setup))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for name, value, unit in report:
        print(f"  {name:32s} {value:.6g} {unit}")
    for problem in problems:
        print(f"check failed: {problem}")
    print("checks: " + ("all passed" if not problems else f"{len(problems)} failed"))

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, host=host,
                  iterations=times, setup_runs=setup, problems=problems, report=report)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(f"error: workload {name} exited {child.returncode}\n")
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
