"""One benchmark process: set up one workload, run it, report.

Started by ``run.py``; prints ``READY <json>`` once set-up is done (the
parent times set-up from its launch to that line; the JSON holds the
set-up phases and speed probes, see :class:`common.SetupClock`) and,
unless ``--setup-only``, ends by printing ``RESULT <json>``.

Untraced (``--trace 0``) it runs the timed part once and reports the
end-to-end metrics, with every time normalized to reference core
speed (:func:`common.normalized`).  Traced (``--trace 1``) it runs half the budget
untraced, then installs the span wrappers and runs the other half, and
reports the per-layer metrics of the traced half plus the tracing
overhead.  Both modes run the correctness gate after the timed part.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

from common import SetupClock, normalized, p50, p90

#: Started before the program's modules are imported, so that set-up
#: phases cover the imports.
SETUP = SetupClock()

from tracer import Tracer, load_spans, self_times  # noqa: E402
from workloads import WORKLOADS, ServedSteering  # noqa: E402


def timed(workload, seconds: float, start: int = 0, before_unit=None):
    """Run units until ``workload.enough``; returns (samples, wall).

    Sets ``workload.rss_mb`` once ``workload.rss_units`` units have run.
    """
    samples: list[dict] = []
    t0 = perf_counter()
    index = start
    while not workload.enough(samples, perf_counter() - t0, seconds):
        if before_unit is not None:
            before_unit(index)
        samples.append(workload.unit(index))
        if len(samples) == workload.rss_units:
            workload.rss_mb = workload.peak_rss_mb()
        index += 1
    return samples, perf_counter() - t0


def fresh(samples):
    """Completed units that computed their result (not cache replays)."""
    return [
        s for s in samples
        if s.get("kind", "fresh") == "fresh" and s.get("ok", True)
    ]


def mean_wall(samples) -> float:
    return sum(s["wall"] for s in samples) / len(samples)


def end_to_end(samples, rss_mb) -> dict:
    """Throughput, CPU per unit and fresh-unit latency, normalized.

    On the direct workloads every unit is the same work, so both
    latency percentiles are that unit's normalized wall.
    """
    best = normalized(s for s in samples if s.get("ok", True))
    units = list(best.values())
    new = [u["wall"] for u in units if u["kind"] == "fresh"]
    return {
        "sim_speedup": (
            sum(u["sim_s"] for u in units) / sum(u["wall"] for u in units),
            "s/s",
        ),
        "cpu_s": (sum(u["cpu"] for u in units) / len(units), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "job_latency_p50_s": (p50(new), "s"),
        "job_latency_p90_s": (p90(new), "s"),
    }


#: Per-layer metric -> span name whose self time it reports.
SELF_TIME_METRICS = {
    "core.loop_self_s": "core.loop",
    "core.build_s": "core.build",
    "core.statistics_s": "core.statistics",
    "scheduler.tick_s": "scheduler.tick",
    "power.evaluate_s": "power.evaluate",
    "cooling.kernel_s": "cooling.kernel",
    "cooling.sync_s": "cooling.sync",
    "cooling.outputs_s": "cooling.outputs",
    "cooling.fmu_s": "cooling.fmu",
    "batch.kernel_s": "batch.kernel",
    "batch.power_s": "batch.power",
    "batch.loop_self_s": "batch.loop",
    "scenarios.plan_s": "scenarios.plan",
    "scenarios.store_record_s": "scenarios.store_record",
    "service.encode_s": "service.encode",
}
#: Per-layer counters, reported per unit.
COUNT_METRICS = (
    "core.steps",
    "scheduler.ticks",
    "power.evals",
    "cooling.steps",
)


def engine_layers(selfs: dict, counts: dict, units: int) -> dict:
    """Per-unit layer self times and counters, plus derived ratios."""
    out = {
        metric: (selfs.get(span, 0.0) / units, "s")
        for metric, span in SELF_TIME_METRICS.items()
    }
    for name in COUNT_METRICS:
        out[name] = (counts.get(name, 0.0) / units, "count")
    steps = counts.get("core.steps", 0.0)
    out["power.reuse_ratio"] = (
        counts.get("power.reuses", 0.0) / steps if steps else 0.0, "ratio"
    )
    lane_steps = counts.get("batch.lane_steps", 0.0)
    out["batch.lane_fill"] = (
        counts.get("batch.live_lane_steps", 0.0) / lane_steps
        if lane_steps else 0.0,
        "ratio",
    )
    out["scenarios.store_bytes"] = (
        counts.get("scenarios.store_bytes", 0.0), "bytes"
    )
    return out


SERVICE_ZERO = {
    "service.submit_s": (0.0, "s"),
    "service.queue_wait_s": (0.0, "s"),
    "service.compute_s": (0.0, "s"),
    "service.stream_tail_s": (0.0, "s"),
    "service.first_record_p50_s": (0.0, "s"),
    "service.cached_latency_p50_s": (0.0, "s"),
    "service.warm_hit_ratio": (0.0, "ratio"),
    "service.cache_hit_ratio": (0.0, "ratio"),
    "service.replay_records_per_s": (0.0, "1/s"),
    "service.retries": (0.0, "count"),
}


def traced_in_process(workload, tracer, seconds, setup_selfs) -> tuple:
    """Untraced half, then traced half, for a single-process workload."""
    workload.min_repeats = 1
    plain, _ = timed(workload, seconds / 2)
    tracer.reset()
    tracer.install_engine_layers()

    def before_unit(index):
        tracer.run_id = index

    try:
        traced, traced_wall = timed(
            workload, seconds / 2, start=len(plain), before_unit=before_unit
        )
    finally:
        tracer.uninstall()
    selfs = self_times(tracer.spans)
    metrics = engine_layers(selfs, tracer.counts, len(traced))
    metrics.update(SERVICE_ZERO)
    metrics["telemetry.synthesis_s"] = (
        setup_selfs.get("telemetry.synthesis", 0.0), "s"
    )
    attributed = sum(selfs.values())
    metrics["trace.unattributed_share"] = (
        (traced_wall - attributed) / traced_wall, "ratio"
    )
    metrics["trace.overhead_ratio"] = (
        mean_wall(traced) / mean_wall(plain), "ratio"
    )
    return plain + traced, metrics


def traced_served(workload: ServedSteering, seconds, trace_dir) -> tuple:
    """Untraced half, then traced half; layer spans come from the worker."""
    workload.min_passes = 1
    plain, _ = timed(workload, seconds / 2)
    before = workload.counters()
    (trace_dir / "on").touch()
    traced, _ = timed(workload, seconds / 2, start=len(plain))
    after = workload.counters()
    new = fresh(traced)
    cached = [s for s in traced if s["kind"] == "cached" and s["ok"]]
    latency = p50([s["wall"] for s in new])
    parts = {
        "service.submit_s": p50([s["submit"] for s in new]),
        "service.queue_wait_s": p50([s["queue"] for s in new]),
        "service.compute_s": p50([s["compute"] for s in new]),
        "service.stream_tail_s": p50([s["tail"] for s in new]),
    }
    metrics = {k: (v, "s") for k, v in parts.items()}
    metrics["service.first_record_p50_s"] = (
        p50([s["first_record"] for s in new]), "s"
    )
    metrics["service.cached_latency_p50_s"] = (
        p50([s["wall"] for s in cached]) if cached else 0.0, "s"
    )
    executed = after["executed"] - before["executed"]
    metrics["service.warm_hit_ratio"] = (
        (after["warm_hits"] - before["warm_hits"]) / executed
        if executed else 0.0,
        "ratio",
    )
    metrics["service.cache_hit_ratio"] = (
        (after["cache_hits"] - before["cache_hits"]) / len(traced), "ratio"
    )
    metrics["service.replay_records_per_s"] = (
        sum(s["n_records"] for s in cached)
        / sum(s["wall"] for s in cached)
        if cached else 0.0,
        "1/s",
    )
    metrics["trace.unattributed_share"] = (
        (latency - sum(parts.values())) / latency, "ratio"
    )
    metrics["trace.overhead_ratio"] = (
        latency / p50([s["wall"] for s in fresh(plain)]), "ratio"
    )
    return plain + traced, metrics, [s["job_id"] for s in new]


def worker_layers(trace_dir: Path, job_ids: list[str]) -> dict:
    """Per-fresh-job engine layers from the worker's span files."""
    rows: list = []
    counts: dict = {}
    for path in sorted(trace_dir.glob("worker-*.jsonl")):
        r, c = load_spans(path)
        base = len(rows)
        rows.extend(
            (n, s, e, p + base if p >= 0 else -1, run) for n, s, e, p, run in r
        )
        counts.update(c)
    wanted = set(job_ids)
    total: dict[str, float] = {}
    for run in wanted:
        for k, v in counts.get(run, {}).items():
            total[k] = total.get(k, 0.0) + v
    return engine_layers(
        self_times(rows, runs=wanted), total, max(len(wanted), 1)
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    SETUP.mark()
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace) and not args.setup_only
    cls = WORKLOADS[args.workload]
    tracer = trace_dir = None
    if cls is ServedSteering:
        if trace:
            # The engine layers run in the server's worker process.
            trace_dir = out / "trace"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
        workload = cls(args.seed, out, trace_dir=trace_dir)
    else:
        if trace:
            tracer = Tracer()
            tracer.install_setup_layers()
            tracer.run_id = "setup"
        workload = cls(args.seed, out)

    try:
        workload.mark = SETUP.mark
        workload.setup()
        SETUP.mark()
        print("READY " + json.dumps(SETUP.doc()), flush=True)
        if args.setup_only:
            return 0
        if not trace:
            samples, _ = timed(workload, args.seconds)
            rss = workload.rss_mb
        elif tracer is not None:
            setup_selfs = self_times(tracer.spans)
            samples, metrics = traced_in_process(
                workload, tracer, args.seconds, setup_selfs
            )
            tracer.dump(out / "spans.jsonl")
        else:
            samples, metrics, job_ids = traced_served(
                workload, args.seconds, trace_dir
            )
        workload.gate(samples)
    finally:
        workload.close()

    if not trace:
        metrics = end_to_end(samples, rss)
    elif trace_dir is not None:
        metrics.update(worker_layers(trace_dir, job_ids))
        metrics["service.retries"] = (float(workload.retries), "count")
        metrics["telemetry.synthesis_s"] = (0.0, "s")
    failed_units = sum(1 for s in samples if not s.get("ok", True))
    failed_checks = sum(1 for _, ok in workload.checks if not ok)
    attempted = len(samples) + len(workload.checks)
    failed = failed_units + failed_checks
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "units": len(samples),
        "unit_walls_s": [s["wall"] for s in samples],
        "fresh_units": len(fresh(samples)),
        "failed_share": failed / attempted,
        "recipe": workload.recipe,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
