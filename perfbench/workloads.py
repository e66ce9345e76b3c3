"""The three benchmark workloads.

Each workload builds its inputs from a seed (an input recipe), runs
units of work for a time budget, and checks its outputs outside the
timed part.  A *unit* is the work a user waits for:

- ``frontier-replay-day``: one direct 24 h coupled replay of the
  paper's Fig. 9 day (serial fused plant kernel);
- ``frontier-sweep-batched``: one 4 wet-bulb x 2 arrival-seed grid of
  3 h coupled Frontier cells, run as one batched ``Campaign`` into a
  fresh ``CampaignStore``;
- ``frontier-served-steering``: one submission to a ``repro serve``
  process with one worker, streamed to its last record by a single
  closed-loop client.

Every unit returns a sample dict with ``key`` (units with one key
repeat the same work), ``wall`` (seconds from the start of the unit to
its last record), ``sim_s`` (simulated seconds delivered) and the
unit's ``blocks``/``cpu_blocks`` (wall and CPU seconds of consecutive
pieces of it, the same pieces in every repeat) with the speed
``probes`` around them; see :func:`common.normalized`.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro.batch
from repro.batch import BatchedEngine
from repro.core.engine import collect_steps
from repro.scenarios import Campaign
from repro.scenarios.generated import GeneratedScenario
from repro.scenarios.library import (
    GridSweepScenario,
    ReplayScenario,
    SyntheticScenario,
)
from repro.scenarios.twin import DigitalTwin
from repro.service.client import TwinClient
from repro.telemetry.synthesis import SyntheticTelemetryGenerator
from repro.viz.export import step_record
from repro.workloads import DiurnalWorkload, clear_generation_cache

from common import (
    BlockClock,
    canonical_json,
    child_pids,
    probe,
    proc_cpu_ns,
    proc_peak_rss_mb,
    recipe_doc,
    sha256_json,
)

SYSTEM = "frontier"
DAY_S = 86400.0

#: Per-step series compared bit for bit between execution paths.
STEP_FIELDS = (
    "times_s",
    "system_power_w",
    "loss_w",
    "sivoc_loss_w",
    "rectifier_loss_w",
    "chain_efficiency",
    "utilization",
    "num_running",
    "cdu_power_w",
    "cdu_heat_w",
)


def first_mismatch(a, b, n: int) -> str | None:
    """Name of the first per-step series where ``a[:n]`` and ``b[:n]``
    (two :class:`~repro.core.engine.SimulationResult`) differ in any bit,
    or ``None`` when every series matches."""
    for name in STEP_FIELDS:
        x, y = getattr(a, name)[:n], getattr(b, name)[:n]
        if x.shape != y.shape or x.tobytes() != y.tobytes():
            return name
    if sorted(a.cooling) != sorted(b.cooling):
        return "cooling keys"
    for key in a.cooling:
        x, y = a.cooling[key][:n], b.cooling[key][:n]
        if x.shape != y.shape or x.tobytes() != y.tobytes():
            return f"cooling.{key}"
    return None


def dataset_sha256(day) -> str:
    """Content digest of a telemetry dataset: job records, traces, series."""
    h = hashlib.sha256()
    for job in day.jobs:
        h.update(
            canonical_json(
                [job.job_name, job.job_id, job.node_count, job.start_time,
                 job.wall_time, job.trace_quanta]
            )
        )
        h.update(np.ascontiguousarray(job.cpu_util).tobytes())
        h.update(np.ascontiguousarray(job.gpu_util).tobytes())
    for name in sorted(day.series):
        h.update(name.encode())
        h.update(np.ascontiguousarray(day.series[name].times).tobytes())
        h.update(np.ascontiguousarray(day.series[name].values).tobytes())
    return h.hexdigest()


class _Stop(Exception):
    """Raised from a step callback to end a run after a prefix."""


class Workload:
    """Base class: one seeded workload in one benchmark process."""

    name = ""
    #: Repeats of the unit a timed phase runs at least.
    min_repeats = 3

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out = out_dir
        self.rng = np.random.default_rng([seed, 20241118])
        self.twin = DigitalTwin(SYSTEM)
        self.recipe: dict = {}
        #: Correctness-gate operations: (description, ok).
        self.checks: list[tuple[str, bool]] = []

    # -- hooks -----------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def mark(self) -> None:
        """End a phase of :meth:`setup` (the benchmark process sets this
        to its :class:`common.SetupClock`'s ``mark``)."""

    def unit(self, index: int) -> dict:
        raise NotImplementedError

    def enough(self, samples: list[dict], elapsed: float, seconds: float) -> bool:
        """Whether a timed phase of ``seconds`` may stop now.

        Default: at least :attr:`min_repeats` units, and starting another
        would end past the budget by more than half a unit.
        """
        if len(samples) < self.min_repeats:
            return False
        mean = sum(s["wall"] for s in samples) / len(samples)
        return elapsed + mean / 2 > seconds

    def gate(self, samples: list[dict]) -> None:
        """Append correctness checks to :attr:`checks`."""
        raise NotImplementedError

    def pids(self) -> list[int]:
        """Every process of the workload (peak RSS is their maximum)."""
        return [os.getpid()]

    def peak_rss_mb(self) -> float:
        return max(proc_peak_rss_mb(p) for p in self.pids())

    @property
    def rss_units(self) -> int:
        """Units after which the timed phase reads peak RSS.

        A fixed amount of work, because a run holds as many units as fit
        in its time and the served workload's server grows with the jobs
        it has served.
        """
        return self.min_repeats

    def close(self) -> None:
        pass

    def check(self, what: str, ok: bool) -> None:
        self.checks.append((what, bool(ok)))
        if not ok:
            print(f"perfbench: check failed: {what}", file=sys.stderr)


# -- frontier-replay-day ---------------------------------------------------------


class ReplayDay(Workload):
    """The Fig. 9 day replayed directly, one 24 h coupled run per unit."""

    name = "frontier-replay-day"
    #: Engine steps per timed block: 30 simulated minutes of 15 s quanta.
    block_steps = 120

    def setup(self) -> None:
        gen = SyntheticTelemetryGenerator(self.twin.spec, seed=self.seed)
        day = gen.replay_day_fig9()
        path = self.out / "day"
        day.save(path)
        self.mark()
        self.scenario = ReplayScenario(
            name="fig9-day", duration_s=DAY_S, dataset_path=str(path)
        )
        self.recipe = recipe_doc(
            "repro.telemetry.synthesis.SyntheticTelemetryGenerator"
            ".replay_day_fig9",
            {"system": SYSTEM, "day_index": 20000, "duration_s": DAY_S},
            self.seed,
            dataset_sha256(day),
        )
        # Load the dataset into the twin's cache and run the whole
        # path once on a short window, so no lazy set-up is timed.
        ReplayScenario(
            name="warm", duration_s=900.0, dataset_path=str(path)
        ).run(self.twin)

    def unit(self, index: int) -> dict:
        self.outcome = None
        gc.collect()
        clock = BlockClock(self.block_steps)
        self.outcome = self.scenario.run(self.twin, progress=clock.tick)
        return {"key": "day", "sim_s": DAY_S, **clock.stop()}

    def gate(self, samples: list[dict]) -> None:
        # Serial fused replay vs the batched lane, on a seeded prefix.
        n = int(self.rng.integers(240, 481))
        steps = []

        def on_step(index, step):
            steps.append(step)
            if len(steps) >= n:
                raise _Stop

        engine = BatchedEngine([self.scenario], self.twin)
        try:
            engine.run(on_step=on_step)
        except _Stop:
            pass
        lane = collect_steps(
            iter(steps),
            jobs=[],
            num_cdus=self.twin.spec.cooling.num_cdus,
            scheduler_stats=None,
        )
        bad = first_mismatch(self.outcome.result, lane, n)
        self.check(f"replay: serial == batched lane over {n} steps ({bad})",
                   bad is None)


# -- frontier-sweep-batched --------------------------------------------------------


class SweepBatched(Workload):
    """A 4 x 2 grid of 3 h coupled cells as one batched campaign.

    Cells are generated synthetic workloads with stated parameters (the
    Table IV means), so the seed varies arrivals and job bodies but not
    the size of the input.  Cells are 3 h long so that a timed phase
    holds at least three campaigns.
    """

    name = "frontier-sweep-batched"
    cell_s = 3 * 3600.0
    #: Batched steps per timed block (7.5 simulated minutes).
    block_steps = 30
    #: Table IV day means: arrival interval, job size, runtime.
    workload_params = {
        "mean_arrival_s": 138.0,
        "amplitude": 0.0,
        "mean_nodes_per_job": 268.0,
        "mean_runtime_s": 39.0 * 60.0,
        "single_node_fraction": 0.32,
    }

    def setup(self) -> None:
        wetbulbs = np.round(np.sort(self.rng.uniform(6.0, 26.0, 4)), 1)
        grid = {
            "wetbulb_c": tuple(float(w) for w in wetbulbs),
            "workload.seed": tuple(
                int(s) for s in self.rng.integers(0, 2**31, 2)
            ),
        }
        base = GeneratedScenario(
            name="cell",
            duration_s=self.cell_s,
            workload=DiurnalWorkload(**self.workload_params),
        )
        self.sweep = GridSweepScenario(name="what-if-grid", base=base, grid=grid)
        self.cells = self.sweep.expand()
        self.recipe = recipe_doc(
            "repro.scenarios.library.GridSweepScenario",
            {"system": SYSTEM, "cell_s": self.cell_s,
             "workload": {"generator": "diurnal", **self.workload_params},
             "wetbulb_range_c": [6.0, 26.0], "arrival_seeds": 2},
            self.seed,
            sha256_json(self.sweep.to_dict()),
        )
        self.mark()
        # The same grid with short cells exercises every lazy import and
        # first-call path before timing; without it the first timed
        # campaign ran 20-30% slower than the next ones.
        warm = dataclasses.replace(
            self.sweep,
            name="warm",
            base=dataclasses.replace(base, duration_s=900.0),
        )
        path = self.out / "warm-campaign"
        shutil.rmtree(path, ignore_errors=True)
        Campaign.create(path, [warm], system=self.twin).run(execution="batched")

    def unit(self, index: int) -> dict:
        path = self.out / "campaign"
        shutil.rmtree(path, ignore_errors=True)
        # Every campaign starts from the same state: no generated
        # payloads memoized by an earlier one, no earlier results alive.
        clear_generation_cache()
        self.results = None
        gc.collect()
        # Every lane calls on_step once per batched step: a block closes
        # every block_steps batched steps.
        clock = BlockClock(self.block_steps * len(self.cells))

        class SteppedEngine(BatchedEngine):
            def run(self, *, progress=None, on_step=None):
                return super().run(progress=progress, on_step=clock.tick)

        repro.batch.BatchedEngine = SteppedEngine
        try:
            campaign = Campaign.create(path, [self.sweep], system=self.twin)
            self.results = campaign.run(execution="batched")
        finally:
            repro.batch.BatchedEngine = BatchedEngine
        return {
            "key": "campaign",
            "sim_s": self.cell_s * len(self.cells),
            **clock.stop(),
        }

    def gate(self, samples: list[dict]) -> None:
        # A seeded cell's batched lane vs the serial fused engine.
        index = int(self.rng.integers(len(self.cells)))
        n = int(self.rng.integers(240, 481))
        stream = self.cells[index].iter_steps(self.twin)
        steps = list(itertools.islice(stream, n))
        stream.close()
        serial = collect_steps(
            iter(steps),
            jobs=[],
            num_cdus=self.twin.spec.cooling.num_cdus,
            scheduler_stats=None,
        )
        bad = first_mismatch(self.results[index].result, serial, n)
        self.check(
            f"sweep cell {index}: batched lane == serial over {n} steps ({bad})",
            bad is None,
        )


# -- frontier-served-steering -------------------------------------------------------


class ServedSteering(Workload):
    """One closed-loop client steering a one-worker ``repro serve``.

    The timed part submits the same sequence of jobs in several passes.
    Each pass renames its fresh jobs (and moves its warm-miss wet-bulbs
    by a millidegree), so every pass computes them again instead of
    replaying the result cache; a job's latency is the median over the
    passes of its normalized time (:func:`common.normalized`).
    """

    name = "frontier-served-steering"
    job_s = 600.0
    #: Submissions per pass: 100 fresh jobs, so that at least ten lie
    #: beyond the p90, plus one resubmission after every four.
    per_pass = 125
    min_passes = 3
    #: Pass names and wet-bulb offsets stay distinct up to this many.
    max_passes = 9
    #: Fresh jobs re-run directly to check their streams.
    gate_samples = 2

    def __init__(self, seed: int, out_dir: Path, *, trace_dir: Path | None = None):
        super().__init__(seed, out_dir)
        self.trace_dir = trace_dir
        self.server: subprocess.Popen | None = None
        self.client: TwinClient | None = None
        self.retries = 0

    # -- inputs --------------------------------------------------------------

    def plan_pass(self, number: int) -> list[tuple[str, dict]]:
        """The submissions of pass ``number``, fixed by construction.

        Every fifth submission repeats an earlier job of the same pass
        (result cache); every fifth fresh job runs at a wet-bulb no job
        used before (warm-plant cache miss); the rest run at the
        wet-bulb the set-up job warmed.  Passes differ only in job
        names and warm-miss wet-bulbs, so each pass does the same work.
        """
        rng = np.random.default_rng([self.seed, 7])
        self.warm_wb = round(float(rng.uniform(12.0, 22.0)), 2)
        plan: list[tuple[str, dict]] = []
        fresh: list[dict] = []
        for i in range(self.per_pass):
            if i % 5 == 4:
                plan.append(("cached", fresh[int(rng.integers(len(fresh)))]))
                continue
            f = len(fresh)
            wb = self.warm_wb
            if f % 5 == 4:
                wb = round(self.warm_wb + 0.5 + 0.01 * f + 0.001 * number, 3)
            doc = SyntheticScenario(
                name=f"steer-{f}-p{number}",
                duration_s=self.job_s,
                wetbulb_c=wb,
                seed=self.seed * 100_000 + f,
            ).to_dict()
            fresh.append(doc)
            plan.append(("fresh", doc))
        return plan

    def setup(self) -> None:
        self.plan = [
            item for n in range(self.max_passes) for item in self.plan_pass(n)
        ]
        self.recipe = recipe_doc(
            "perfbench.workloads.ServedSteering.plan_pass",
            {"system": SYSTEM, "submissions_per_pass": self.per_pass,
             "passes": self.max_passes, "job_s": self.job_s,
             "cached_every": 5, "warm_miss_every": 5},
            self.seed,
            sha256_json(self.plan),
        )
        self.mark()
        self.start_server()
        self.mark()
        # Throw-away job: the first job on a fresh worker pays its lazy
        # initialisation and warms the plant at the shared wet-bulb.
        warm = SyntheticScenario(
            name="warm", duration_s=self.job_s, wetbulb_c=self.warm_wb,
            seed=self.seed * 100_000 + 99_999,
        )
        self.client.steps(self.client.submit(warm)["id"])
        self.cpu_pids = [self.server_pid, *child_pids(self.server_pid)]
        self.pin()

    def pin(self) -> None:
        """Put the worker and this client on one CPU, the server on another.

        The client runs the speed probe between jobs, so it must share
        the worker's core; the server's threads relay records while the
        worker computes, so they get a core of their own.  With a
        single CPU nothing is pinned.
        """
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return
        placement = [(os.getpid(), cpus[0]), (self.server_pid, cpus[1])]
        placement += [(pid, cpus[0]) for pid in self.cpu_pids[1:]]
        for pid, cpu in placement:
            for task in Path(f"/proc/{pid}/task").iterdir():
                try:
                    os.sched_setaffinity(int(task.name), {cpu})
                except ProcessLookupError:
                    pass  # the thread has ended

    def start_server(self) -> None:
        store = self.out / "store"
        shutil.rmtree(store, ignore_errors=True)
        env = dict(os.environ)
        if self.trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(self.trace_dir)
        here = Path(__file__).resolve().parent
        log = self.out / "server.log"
        with open(log, "w") as fh:
            self.server = subprocess.Popen(
                [sys.executable, str(here / "serve.py"), "--system", SYSTEM,
                 "--workers", "1", "--port", "0", "--store", str(store)],
                stdout=subprocess.DEVNULL,
                stderr=fh,
                env=env,
            )
        self.server_pid = self.server.pid
        deadline = time.monotonic() + 60.0
        match = None
        while match is None:
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {log.read_text()!r}")
            time.sleep(0.005)
            match = re.search(r"listening on (http://\S+)", log.read_text())
        self.client = TwinClient(match.group(1))
        client = self.client
        count_retry = client._count_retry

        def counted(op):
            self.retries += 1
            count_retry(op)

        client._count_retry = counted

    def pids(self) -> list[int]:
        if self.server is None:
            return [os.getpid()]
        return [os.getpid(), self.server_pid, *child_pids(self.server_pid)]

    def counters(self) -> dict:
        return self.client.health()["counters"]

    # -- timed part ----------------------------------------------------------

    @property
    def rss_units(self) -> int:
        return self.min_passes * self.per_pass

    def server_cpu_s(self) -> float:
        """CPU seconds of the client, the server and its worker."""
        return time.process_time() + sum(
            proc_cpu_ns(pid) for pid in self.cpu_pids
        ) / 1e9

    def unit(self, index: int) -> dict:
        """Submit the plan's next document and stream it to the end."""
        kind, doc = self.plan[index]
        records: list[dict] = []
        t_first = t_last = None
        probe0 = probe()
        cpu0 = self.server_cpu_s()
        t0 = time.time()
        job = self.client.submit(doc)
        t_sub = time.time()
        summary = None
        for event in self.client.watch(job["id"]):
            if "index" in event:
                t_last = time.time()
                if t_first is None:
                    t_first = t_last
                records.append(event)
            elif event.get("event") == "restart":
                records = []
            elif "event" in event and "job" in event:
                summary = event["job"]
        cpu = self.server_cpu_s() - cpu0
        probes = [probe0, probe()]
        ok = summary is not None and summary["state"] == "done" and records
        sample = {
            "kind": kind,
            "key": f"{kind}-{index % self.per_pass}",
            "name": doc["name"],
            "ok": bool(ok),
            # A digest, not the records: a run streams tens of thousands
            # of them, and holding them would grow the client's RSS with
            # the number of passes.
            "records": sha256_json(records),
            "n_records": len(records),
            "sim_s": self.job_s if ok else 0.0,
            "submit": t_sub - t0,
        }
        if not ok:
            sample.update(wall=time.time() - t0, first_record=time.time() - t0)
            return sample
        sample.update(
            wall=t_last - t0,
            blocks=[t_last - t0],
            cpu_blocks=[cpu],
            probes=probes,
            first_record=t_first - t0,
            cached=bool(summary["cached"]),
        )
        if kind == "fresh":
            sample.update(
                queue=summary["started_at"] - summary["submitted_at"],
                compute=summary["elapsed_s"],
                tail=t_last - (summary["started_at"] + summary["elapsed_s"]),
                job_id=summary["id"],
            )
        return sample

    def enough(self, samples, elapsed, seconds) -> bool:
        """Only after whole passes: at least ``min_passes`` of them."""
        passes, rest = divmod(len(samples), self.per_pass)
        if rest or passes < self.min_passes:
            return False
        return elapsed >= seconds or passes >= self.max_passes

    def gate(self, samples: list[dict]) -> None:
        first: dict[str, list] = {}
        for s in samples:
            self.check(f"served {s['kind']} job {s['name']} completed", s["ok"])
            if not s["ok"]:
                continue
            if s["kind"] == "fresh":
                first[s["name"]] = s["records"]
                self.check(f"fresh job {s['name']} ran fresh", not s["cached"])
            else:
                self.check(
                    f"resubmitted {s['name']} equals its first delivery",
                    s["cached"] and s["records"] == first.get(s["name"]),
                )
        fresh = [s for s in samples if s["kind"] == "fresh" and s["ok"]]
        if not fresh:
            return
        picks = self.rng.choice(
            len(fresh), min(self.gate_samples, len(fresh)), replace=False
        )
        for i in picks:
            s = fresh[int(i)]
            doc = next(d for k, d in self.plan if d["name"] == s["name"])
            direct = [
                step_record(step)
                for step in SyntheticScenario.from_dict(doc).iter_steps(self.twin)
            ]
            self.check(
                f"served stream of {s['name']} equals direct iter_steps",
                s["records"] == sha256_json(direct),
            )

    def close(self) -> None:
        if self.server is None:
            return
        workers = child_pids(self.server_pid)
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        deadline = time.monotonic() + 10.0
        while workers and time.monotonic() < deadline:
            workers = [p for p in workers if Path(f"/proc/{p}").exists()]
            time.sleep(0.02)
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.server = None


WORKLOADS = {
    cls.name: cls for cls in (ReplayDay, SweepBatched, ServedSteering)
}
