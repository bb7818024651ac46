"""Pipeline benchmark for hemtriage.

Run from the root of a checkout:

    python3 bench/run.py --workload train --seed 1 --seconds 40 --trace 0

Every stage runs in this one process through ``hemtriage.cli.main``. Cohorts
are generated from ``--seed``. Each iteration sets up (cohort synthesis and,
where the workload needs it, model training) and then runs the workload's
timed stages; iterations repeat for ``--seconds``. Stage times are medians
over iterations, and set-up time is the package import time plus the median
set-up; all times are scaled to a fixed reference speed (see
``harness.REFERENCE_S``). Every stage output is checked and its sha256 digest
compared with earlier passes over the same cohorts.

The last line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics from outside-in spans with ``--trace 1``. A
run record with the environment, cohort sizes, digests and (when traced) the
layer table and spans is written under ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: the GP solves are small, and a second thread only adds
# scheduling noise on a shared machine. Must be set before numpy is imported.
BLAS_THREADS = 1
_BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (root / ".git" / ref).is_file():
        return (root / ".git" / ref).read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hemtriage" / "cli.py").is_file():
        print(f"error: no hemtriage sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    for variable in _BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))

    import_start = time.perf_counter()
    import numpy as np
    import scipy
    import scipy.stats  # noqa: F401  (optimize imports it on first use)
    import hemtriage.cli  # noqa: F401
    import_s = time.perf_counter() - import_start

    import harness
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    runner, record = harness.measure(w, args.seed, args.seconds, bool(args.trace), work)
    if work.parent.is_dir() and not any(work.parent.iterdir()):
        work.parent.rmdir()

    if "metrics" in record:
        reference = statistics.median(harness.reference_loop() for _ in range(3))
        record["metrics"]["setup_s"] += import_s * harness.REFERENCE_S / reference
        units = harness.UNITS
        if args.trace:
            record["end_to_end"] = record["metrics"]
            record["metrics"] = record.pop("layer_metrics")
            units = tracing.UNITS
        metrics = {name: {"value": float(value), "unit": units[name]}
                   for name, value in record["metrics"].items()}
    else:
        print(f"error: {record['error']}", file=sys.stderr)
        metrics = {}
    record.update(
        workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        import_s=import_s,
        environment={"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
                     "python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "git_commit": git_commit(root)})

    runs = root / ".bench_runs"
    runs.mkdir(exist_ok=True)
    stem = runs / f"{w.name}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    correct = bool(metrics) and all(np.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
