#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-paper --seed 1 \\
        --seconds 16 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with nothing installed; with ``--trace 1`` they are the
per-layer metrics, from a run whose layer calls are wrapped in spans
(written to ``.bench_out/`` as a Chrome trace and a flat JSON).  The
lines before it give the machine, the seed and the sample sizes.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the benchmark cannot run here (no ``src/repro`` to import).
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads: one process, one
# caller, no hidden thread pool competing for the two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".bench_out")

#: End-to-end metric -> unit; BENCHMARK.json carries the same table.
END_TO_END = {
    "setup_s": "s",
    "train_triples_per_s": "triples/s",
    "sim_train_s": "sim_s",
    "test_mrr": "ratio",
    "peak_rss_mb": "MB",
    "serve_qps.dense": "queries/s",
    "serve_qps.binary": "queries/s",
    "serve_p50_ms.dense": "ms",
    "serve_p50_ms.binary": "ms",
    "serve_p99_ms.dense": "ms",
    "serve_p99_ms.binary": "ms",
    "serve_recall_at_10": "ratio",
}


def environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _metric(value: float, unit: str) -> dict:
    # JSON has no infinity: a percentile that failures made infinite is
    # written as null (and the run is not correct).
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program under test is the checkout's own source tree, never an
    # installed copy.
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to run: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import layers
    import workloads
    from spans import Tracer

    if args.workload not in workloads.PROFILES:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(workloads.PROFILES)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    print("env: " + json.dumps(environment(args.seed)), flush=True)
    tracer = Tracer() if args.trace else None
    report = workloads.run(args.workload, args.seed, args.seconds, tracer,
                           OUT_DIR / "work")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.metrics["peak_rss_mb"] = rss_mb

    if tracer is None:
        metrics = {name: _metric(report.metrics[name], unit)
                   for name, unit in END_TO_END.items()}
    else:
        values = layers.per_layer_metrics(tracer, report.layer)
        metrics = {name: _metric(values[name], unit)
                   for name, (unit, _) in layers.PER_LAYER.items()}
        stem = OUT_DIR / f"trace-{args.workload}-{args.seed}"
        stem.parent.mkdir(parents=True, exist_ok=True)
        Path(f"{stem}.chrome.json").write_text(
            json.dumps(tracer.chrome_trace()))
        Path(f"{stem}.layers.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "metrics": values,
            "self_time_by_phase": layers.self_time_table(tracer),
            "phases": tracer.phases,
        }, indent=1))
        print(f"trace: {stem}.chrome.json ({len(tracer.spans)} spans), "
              f"{stem}.layers.json")

    print("checks: " + json.dumps(report.checks))
    print("detail: " + json.dumps(report.detail))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']!s:>22} {m['unit']}")
    finite = all(m["value"] is not None for m in metrics.values())
    correct = all(report.checks.values()) and report.failed == 0 and finite
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
