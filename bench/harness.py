"""The measurement loop: runs a workload's stage chain, checks and digests every
output, and turns the stage times into the end-to-end metrics."""

from __future__ import annotations

import collections
import contextlib
import io
import resource
import shutil
import statistics
import time
import traceback
import warnings

import numpy as np
from hemtriage import cli, thresholds

import checks
import tracing
from workloads import (COHORT_SETS, EXTERNAL_PROBS, TIMED_STAGES, cohort_seed, plan,
                       write_external_probs)

# Times are reported at a fixed reference speed. A shared host can change
# speed by a quarter over minutes, uniformly across interpreter and numpy
# work, which no run length averages away. So a fixed
# reference loop, independent of the package, is timed before and after every
# stage, and each stage time is scaled by REFERENCE_S over the median of the
# last REFERENCE_WINDOW reference times: a stage time is then the time it
# takes on a machine where the reference loop takes REFERENCE_S. Raw times
# are kept in the run record.
REFERENCE_S = 0.020
REFERENCE_WINDOW = 5


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy work."""
    start = time.perf_counter()
    values = np.arange(2000, dtype=np.float64)
    total = 0.0
    for i in range(6000):
        total += float((values[i % 100: i % 100 + 50] * 1.5).sum())
    np.sort(np.random.default_rng(1).normal(size=40000))
    return time.perf_counter() - start


# At least every cohort set once, and one set a second time so that the
# byte-identity of repeated artifacts is checked in every run.
MIN_ITERATIONS = COHORT_SETS + 1

UNITS = {
    "setup_s": "s", "scans_per_s": "scans/s", "slice_train_s": "s", "oof_s": "s",
    "stack_train_s": "s", "slice_predict_s": "s", "stack_apply_s": "s", "optimize_s": "s",
    "peak_rss_mb": "MB", "any_auc": "ratio", "any_bacc": "ratio", "row_trees_per_s": "1/s",
}


class StageFailed(Exception):
    """A stage exited non-zero or produced a missing, malformed or changed output."""


class Runner:
    """Runs CLI stages in-process; times, checks and digests each one."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[tuple[int, float]]] = {}  # stage -> (cohort set, s)
        self.raw_times: dict[str, list[float]] = {}
        self.references = collections.deque(maxlen=REFERENCE_WINDOW)
        self.scale = 1.0  # REFERENCE_S over the recent reference times
        self.digests: dict[str, str] = {}  # "<stage>@<cohort set>" -> sha256
        self.cohorts: dict[str, checks.Cohort] = {}
        self.cohort_set = 0

    def run(self, stage) -> float:
        """Run one stage; return its time at the reference speed."""
        self.attempted += 1
        self.references.append(reference_loop())
        start = time.perf_counter()
        try:
            with self.tracer.span(f"stage.{stage.name}"), \
                    contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli.main([stage.name, *stage.argv])
        except Exception:  # a crash in the program counts as a failed stage run
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
        self.references.append(reference_loop())
        self.scale = REFERENCE_S / statistics.median(self.references)
        try:
            if code != 0:
                raise StageFailed(f"{stage.key}: exit code {code}")
            if stage.name == "synth":
                self.cohorts[stage.cohort] = checks.Cohort(stage.output.parent)
            checks.check_output(stage, self.cohorts[stage.cohort])
            digest = checks.digest(stage.output.parent if stage.name == "synth"
                                   else stage.output)
            if self.digests.setdefault(f"{stage.key}@{self.cohort_set}", digest) != digest:
                raise StageFailed(f"{stage.key}: artifact digest differs between repeats")
        except (StageFailed, checks.CheckFailed) as exc:
            self.failed += 1
            raise StageFailed(str(exc)) from exc
        self.raw_times.setdefault(stage.key, []).append(elapsed)
        self.times.setdefault(stage.key, []).append((self.cohort_set, elapsed * self.scale))
        return elapsed * self.scale

    def set_up(self, stage, w, seed, p) -> float:
        """Run one set-up stage plus the inputs the benchmark derives from its output."""
        spent = self.run(stage)
        start = time.perf_counter()
        if stage.key == "synth-train" and w.published:
            thresholds.save_thresholds(thresholds.PUBLISHED_THRESHOLDS, p.applied)
        elif stage.key == "synth-external":
            write_external_probs(self.cohorts["external"].slice_labels, seed,
                                 stage.output.parent / EXTERNAL_PROBS)
        return spent + (time.perf_counter() - start) * self.scale


def summarize(cohorts, p) -> dict:
    """Sizes, forest and judged outputs of one cohort set, read after its first pass."""
    stage = {s.key: s for s in p.stages}
    trees = checks.forest_size(stage["slice-train"].output, stage["stack-train"].output)
    summary = {name: {"scans": len(c.scan_ids), "slices": c.num_slices}
               for name, c in cohorts.items()}
    summary.update(
        forest_trees_per_slice=trees,
        row_trees=cohorts["incoming"].num_slices * trees,
        distinct_probabilities_per_axis=checks.distinct_per_axis(cohorts[p.fit_cohort],
                                                                 p.fit_probs),
        judged=checks.judged(cohorts[p.judged_cohort], p.judged_probs, p.applied))
    return summary


def per_set_mean(samples) -> float:
    """Mean over cohort sets of the median of each set's samples.

    The median damps a slow pass; the mean over sets weighs every cohort set
    equally, however many passes each one got.
    """
    by_set: dict[int, list[float]] = {}
    for cohort_set, value in samples:
        by_set.setdefault(cohort_set, []).append(value)
    return statistics.fmean(statistics.median(values) for values in by_set.values())


def measure(w, seed: int, seconds: float, trace: bool, work) -> tuple[Runner, dict]:
    """Run iterations of set-up plus timed stages for ``seconds``; return the record.

    Every iteration sets up afresh, so set-up is measured as often as the timed
    part and both sample the same stretch of time. Iterations cycle through the
    cohort sets. With ``trace`` every other iteration is traced; the untraced
    ones give the overhead. On failure the record holds only ``error``.
    """
    tracer = tracing.Tracer()
    runner = Runner(tracer)
    setup_times, timed_walls, traced = [], [], []
    sets: dict[int, dict] = {}
    if trace:
        tracer.install()
    try:
        start = time.perf_counter()
        while (len(timed_walls) < MIN_ITERATIONS
               or time.perf_counter() - start + iteration_s <= seconds):
            iteration = len(timed_walls)
            iteration_start = time.perf_counter()
            runner.cohort_set = iteration % COHORT_SETS
            set_seed = cohort_seed(seed, runner.cohort_set)
            p = plan(w, set_seed, work / f"iter-{iteration}")
            traced.append(trace and iteration % 2 == 0)
            tracer.enabled = traced[-1]
            tracer.phase = f"setup-{iteration}"
            setup_times.append(sum(runner.set_up(stage, w, set_seed, p)
                                   for stage in p.stages if stage.name not in w.timed))
            tracer.phase = f"iter-{iteration}"
            timed_walls.append(sum(runner.run(stage)
                                   for stage in p.stages if stage.name in w.timed))
            tracer.enabled = False
            if runner.cohort_set not in sets:
                sets[runner.cohort_set] = summarize(runner.cohorts, p)
            if iteration:
                shutil.rmtree(work / f"iter-{iteration - 1}")
            iteration_s = time.perf_counter() - iteration_start
    except (StageFailed, checks.CheckFailed) as exc:
        return runner, {"error": str(exc)}
    finally:
        tracer.enabled = False
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    any_auc, any_bacc = checks.quality([s.pop("judged") for s in sets.values()])
    stage_s = {key: per_set_mean(samples) for key, samples in runner.times.items()}
    cycle = [i % COHORT_SETS for i in range(len(timed_walls))]
    metrics = {
        "setup_s": per_set_mean(zip(cycle, setup_times)),  # the caller adds the import time
        "scans_per_s": sets[0][w.main_cohort]["scans"] / per_set_mean(zip(cycle, timed_walls)),
        **{f"{name.replace('-', '_')}_s": stage_s[name] for name in TIMED_STAGES},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "any_auc": any_auc,
        "any_bacc": any_bacc,
        "row_trees_per_s": (statistics.fmean(s["row_trees"] for s in sets.values())
                            / (stage_s["slice-predict"] + stage_s["stack-apply"])),
    }
    record = {
        "metrics": metrics,
        "cohort_sets": sets,
        "timed_stages": list(w.timed),
        "iterations": len(timed_walls),
        "setup_times_s": setup_times,
        "timed_walls_s": timed_walls,
        "stage_times_s": runner.times,
        "raw_stage_times_s": runner.raw_times,
        "digests": runner.digests,
        "failed_frac": runner.failed / runner.attempted,
    }
    if trace:
        record.update(trace_report(tracer, w, timed_walls, traced))
    return runner, record


def trace_report(tracer, w, timed_walls, traced) -> dict:
    """Layer metrics, the self-time table and the tracing overhead of a traced run."""
    setup_phases = [f"setup-{i}" for i, t in enumerate(traced) if t]
    timed_phases = [f"iter-{i}" for i, t in enumerate(traced) if t]
    initial = getattr(thresholds, "_NUM_INITIAL_POINTS", 20)
    layers = tracing.layer_metrics(tracer.spans, setup_phases, timed_phases, initial)
    traced_walls = [wall for wall, t in zip(timed_walls, traced) if t]
    untraced_walls = [wall for wall, t in zip(timed_walls, traced) if not t]
    layers["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                      / statistics.median(untraced_walls) - 1.0)
    table = tracing.layer_table(tracer.spans, set(timed_phases))
    shares = {name: {**row, "share": row["self_s"] / sum(traced_walls)}
              for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
              if not name.startswith("stage.")}
    dominant = next(iter(shares))
    print(f"dominant layer by self time: {dominant} (predicted {w.dominant})")
    for name, row in shares.items():
        print(f"  {name:24s} calls={row['calls']:7d} self={row['self_s']:8.3f}s "
              f"share={row['share']:.3f}")
    return {"layer_metrics": layers, "layers": shares, "dominant_layer": dominant,
            "predicted_dominant": w.dominant,
            "spans": [span.as_dict() for span in tracer.spans]}
