"""Shared helpers for the twin benchmark: statistics, process probes,
environment provenance and input recipes.

Everything here is stdlib plus NumPy, and Linux-specific where it
reads ``/proc``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

#: Environment of every benchmark process.  BLAS/OpenMP pools are
#: pinned to one thread, so a run's figures do not depend on how many
#: cores a library decides to use.  String hashing is fixed: with a
#: random hash seed per process, dict and set layouts change from run
#: to run, and JSON-heavy paths (store reloads, result-cache replays)
#: were measured 30-40% apart between processes on identical inputs.
STEADY_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# -- statistics ----------------------------------------------------------------


def p50(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """The 90th percentile (linear interpolation between samples)."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


#: The speed probe's time at reference speed, in seconds.  A fixed
#: constant: on the 2-vCPU Intel Xeon VM the benchmark was built on the
#: probe took 1-2 ms, depending on the load of other tenants.
#: Normalized times are scaled to it.
PROBE_REF_S = 2.0e-3

_rng = np.random.default_rng(0)
_NODES = _rng.random(10_000), _rng.random(10_000), _rng.integers(0, 10_000, 10_000)


def probe() -> float:
    """Wall seconds of one fixed reference computation.

    Gathers and arithmetic over node-sized vectors, like the engine's
    per-node power and trace work.  Run next to each block of work, it
    measures how fast the core and its caches are at that moment.  (A
    probe of interpreted small-array work tracked the program's
    slowdowns a third as well.)
    """
    t0 = perf_counter()
    x, y, index = _NODES
    for _ in range(50):
        x = x * 0.5 + y[index] * 0.25
        float(x.sum())
    return perf_counter() - t0


def normalized(samples) -> dict:
    """Wall and CPU time of each unit key, at reference core speed.

    Every sample is one repeat of the unit named by its ``key``, timed
    in ``blocks`` (wall seconds) and ``cpu_blocks`` (CPU seconds) that
    cover the same work in every repeat, with ``probes`` holding the
    :func:`probe` times measured before the first block and after each
    one.  A block's time is divided by the mean of the probes around it
    and scaled by :data:`PROBE_REF_S`; each block takes the median over
    the repeats; a key's time is the sum over its blocks.

    The host this benchmark was built on shares its cores with other
    tenants, and its speed moves by 30% and more within seconds and
    between minutes.  The probe slows down with the program, so the
    normalized time keeps the program's own cost and drops most of the
    neighbours' load.
    """
    groups: dict[str, list[dict]] = defaultdict(list)
    for s in samples:
        groups[s["key"]].append(s)
    out = {}
    for key, reps in groups.items():
        n = len(reps[0]["blocks"])
        if any(len(r["blocks"]) != n for r in reps):
            raise RuntimeError(f"repeats of {key!r} ran different blocks")
        scale = [
            [PROBE_REF_S * 2.0 / (r["probes"][b] + r["probes"][b + 1])
             for b in range(n)]
            for r in reps
        ]
        out[key] = {
            "kind": reps[0].get("kind", "fresh"),
            "sim_s": reps[0]["sim_s"],
            "repeats": len(reps),
            "wall": sum(
                statistics.median(r["blocks"][b] * k[b] for r, k in zip(reps, scale))
                for b in range(n)
            ),
            "cpu": sum(
                statistics.median(
                    r["cpu_blocks"][b] * k[b] for r, k in zip(reps, scale)
                )
                for b in range(n)
            ),
        }
    return out


class SetupClock:
    """Phases of a benchmark process's set-up, with speed probes between.

    Created as early as the process can (it needs NumPy); :meth:`mark`
    ends a phase.  Each probe is the median of three :func:`probe` runs,
    as a set-up has few of them.
    """

    def __init__(self) -> None:
        self.start = perf_counter()
        self.probes = [self._probe()]
        self.phases: list[float] = []
        self.t = perf_counter()

    @staticmethod
    def _probe() -> float:
        return statistics.median(probe() for _ in range(3))

    def mark(self) -> None:
        self.phases.append(perf_counter() - self.t)
        self.probes.append(self._probe())
        self.t = perf_counter()

    def doc(self) -> dict:
        """Phases, probes and the clock's whole span, for the parent."""
        return {
            "phases": self.phases,
            "probes": self.probes,
            "span_s": perf_counter() - self.start,
        }


def normalized_setup(total_s: float, clock: dict) -> float:
    """Set-up time at reference core speed (see :func:`normalized`).

    ``total_s`` runs from the launch of the process to its ready line;
    the part before the :class:`SetupClock` started (interpreter start,
    NumPy import) is scaled by the first probe, each phase by the mean
    of the probes around it.  Probe time itself is left out.
    """
    probes = clock["probes"]
    before = max(total_s - clock["span_s"], 0.0)
    scaled = before * PROBE_REF_S / probes[0]
    for i, phase in enumerate(clock["phases"]):
        scaled += phase * PROBE_REF_S * 2.0 / (probes[i] + probes[i + 1])
    return scaled


class BlockClock:
    """Wall and CPU time of consecutive blocks of one unit of work.

    :meth:`tick` is called once per piece of work (an engine step) and
    closes a block every ``every`` calls; :meth:`stop` closes the last
    one.  A :func:`probe` runs at the start and after every block,
    outside the block's time.
    """

    def __init__(self, every: int) -> None:
        self.every = every
        self.calls = 0
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.probes = [probe()]
        self.t = perf_counter()
        self.c = process_time()

    def stamp(self) -> None:
        t, c = perf_counter(), process_time()
        self.walls.append(t - self.t)
        self.cpus.append(c - self.c)
        self.probes.append(probe())
        self.t, self.c = perf_counter(), process_time()

    def tick(self, *_) -> None:
        self.calls += 1
        if self.calls % self.every == 0:
            self.stamp()

    def stop(self) -> dict:
        self.stamp()
        return {
            "wall": sum(self.walls),
            "blocks": self.walls,
            "cpu_blocks": self.cpus,
            "probes": self.probes,
        }


# -- process probes --------------------------------------------------------------


def proc_cpu_ns(pid: int) -> int:
    """CPU nanoseconds of every thread of a live process (``schedstat``)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (OSError, IndexError, ValueError):
            continue
    return total


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (every thread's ``children`` list)."""
    out: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            out.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            continue
    return sorted(set(out))


# -- provenance ------------------------------------------------------------------


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources (path + bytes, sorted by path).

    Identifies the code under test even where the checkout carries no
    git metadata.
    """
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_rev(root: Path) -> str | None:
    """The checked-out commit, or None outside a git working tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def environment(root: Path) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(root),
        "source_sha256": source_digest(root),
        "machine": platform.machine(),
    }


# -- input recipes ------------------------------------------------------------------


def canonical_json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def sha256_json(doc) -> str:
    return hashlib.sha256(canonical_json(doc)).hexdigest()


def recipe_doc(generator: str, params: dict, seed: int, inputs_sha256: str) -> dict:
    """A workload input recipe: re-running ``generator(params, seed)``
    reproduces inputs whose digest is ``inputs_sha256``."""
    recipe = {"generator": generator, "params": params, "seed": seed}
    return {
        **recipe,
        "recipe_sha256": sha256_json(recipe),
        "inputs_sha256": inputs_sha256,
    }
