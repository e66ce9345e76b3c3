"""Span tracing installed from outside the program.

:class:`Tracer` replaces a layer's public entry points with thin
wrappers that record one span per call — name, start, end, parent span
and run id — into an in-memory list, plus counters kept at the same
boundaries.  Nothing in ``repro`` is edited: the ``install_*`` methods
patch the attributes and :meth:`Tracer.uninstall` restores them, so an
untraced run executes the original code with no wrapper at all.

A layer's *self time* is its spans' duration minus the part covered by
their child spans (:func:`self_times`).  Spans are written as JSONL
when the run ends (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    """In-memory span recorder with attribute-patching installers."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index, run_id]`` per span.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``after(args, kwargs, result)`` runs once the call returns, to
        update counters from the call's arguments or result.
        """
        original = owner.__dict__[attr]
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run_id]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def count(self, name: str):
        """An ``after`` hook adding one to counter ``name``."""
        counts = self.counts

        def bump(args, kwargs, result):
            counts[name] += 1

        return bump

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- layer installers ------------------------------------------------------

    def install_setup_layers(self) -> None:
        """Input synthesis (the telemetry layer), which runs in set-up."""
        from repro.telemetry.synthesis import SyntheticTelemetryGenerator

        self.wrap(
            SyntheticTelemetryGenerator, "replay_day_fig9", "telemetry.synthesis"
        )

    def install_engine_layers(self) -> None:
        """Scheduler, power, cooling, core, batch and scenario layers."""
        import repro.scenarios.base as scenario_base
        from repro.batch.engine import BatchedEngine
        from repro.batch.kernel import BatchedPlantKernel
        from repro.batch.power import BatchedPowerModel
        from repro.cooling.fmu import CoolingFMU
        from repro.cooling.kernel import FusedPlantKernel
        from repro.cooling.plant import CoolingPlant
        from repro.core.engine import RapsEngine
        from repro.power.system import SystemPowerModel
        from repro.scenarios.artifacts import CampaignStore
        from repro.scenarios.base import Scenario
        from repro.scenarios.generated import GeneratedScenario
        from repro.scenarios.library import ReplayScenario, SyntheticScenario
        from repro.scheduler.engine import SchedulerEngine

        counts = self.counts
        self.wrap(SchedulerEngine, "tick", "scheduler.tick",
                  self.count("scheduler.ticks"))
        self.wrap(SystemPowerModel, "evaluate", "power.evaluate",
                  self.count("power.evals"))
        self.wrap(CoolingFMU, "do_step", "cooling.fmu")
        self.wrap(CoolingPlant, "step", "cooling.outputs",
                  self.count("cooling.steps"))
        self.wrap(FusedPlantKernel, "advance", "cooling.kernel")
        self.wrap(FusedPlantKernel, "pull", "cooling.sync")
        self.wrap(FusedPlantKernel, "push", "cooling.sync")

        def engine_done(args, kwargs, result):
            engine = args[0]
            counts["core.steps"] += len(result.times_s)
            counts["power.reuses"] += engine.power_reuses

        self.wrap(RapsEngine, "run", "core.loop", engine_done)
        self.wrap(Scenario, "build_engine", "core.build")
        self.wrap(scenario_base, "compute_statistics", "core.statistics")
        self.wrap(SyntheticScenario, "plan", "scenarios.plan")
        self.wrap(ReplayScenario, "plan", "scenarios.plan")
        self.wrap(GeneratedScenario, "plan", "scenarios.plan")

        def recorded(args, kwargs, result):
            store = args[0]
            counts["scenarios.store_bytes"] = os.path.getsize(store.results_path)

        self.wrap(CampaignStore, "record", "scenarios.store_record", recorded)
        self.wrap(BatchedEngine, "run", "batch.loop")

        def lanes(args, kwargs, result):
            kernel = args[0]
            active = kwargs.get("active", args[5] if len(args) > 5 else None)
            counts["batch.live_lane_steps"] += (
                kernel.batch if active is None else int(active)
            )
            counts["batch.lane_steps"] += kernel.batch

        self.wrap(BatchedPlantKernel, "advance", "batch.kernel", lanes)
        self.wrap(BatchedPowerModel, "evaluate", "batch.power")

    # -- output ----------------------------------------------------------------

    def dump(self, path: Path, *, mode: str = "w") -> None:
        """Write every span as one JSON line; ``mode="a"`` appends.

        Each dump opens with a ``chunk_start`` line, because its parent
        indices count from that dump's first span.
        """
        with open(path, mode) as fh:
            fh.write('{"chunk_start": true}\n')
            for name, start, end, parent, run_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )
            fh.write(
                json.dumps({"counts": dict(self.counts), "run": self.run_id})
                + "\n"
            )

    def reset(self) -> None:
        """Forget recorded spans and counters (installed wrappers stay)."""
        self.spans.clear()
        self.counts.clear()


def self_times(spans, runs=None) -> dict[str, float]:
    """Total self time per span name: duration minus child durations.

    ``spans`` holds ``(name, start, end, parent_index, run_id)`` rows
    indexed as recorded; children of one span never overlap (spans
    nest on one thread).  ``runs`` optionally keeps only the spans of
    those run ids.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, run) in enumerate(spans):
        if runs is None or run in runs:
            out[name] += (end - start) - child[i]
    return dict(out)


def load_spans(path: Path) -> tuple[list[tuple], dict]:
    """Read a JSONL span file back into ``self_times`` rows and counters.

    Parent indices in a file written by several :meth:`Tracer.dump`
    calls refer to their own dump; rows carry an offset per dump so
    the indices stay valid across appended chunks.  Counters come back
    keyed by the run id their dump carried.
    """
    rows: list[tuple] = []
    counts: dict = {}
    base = 0
    with open(path) as fh:
        for line in fh:
            doc = json.loads(line)
            if doc.get("chunk_start"):
                base = len(rows)
                continue
            if "counts" in doc:
                counts[doc["run"]] = doc["counts"]
                continue
            parent = doc["parent"]
            rows.append(
                (
                    doc["name"],
                    doc["start"],
                    doc["end"],
                    parent + base if parent >= 0 else -1,
                    doc["run"],
                )
            )
    return rows, counts
