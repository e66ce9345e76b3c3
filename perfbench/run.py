"""Frontier digital-twin benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload frontier-replay-day --seed 1 \\
        --seconds 25 --trace 0

Workloads: ``frontier-replay-day``, ``frontier-sweep-batched`` and
``frontier-served-steering`` (see ``perfbench/README.md``).  The run
sets up the workload several times in fresh processes and reports the
median set-up time; the last of those processes goes on to the timed
part and the correctness gate.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Each run also appends a record (metrics, input recipe,
environment) to ``perfbench/out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = (
    "frontier-replay-day",
    "frontier-sweep-batched",
    "frontier-served-steering",
)
#: Set-up samples per run (the last one is the measuring process).
SETUP_RUNS = 3
#: Hard limit on the whole run, set-ups included.
RUN_TIMEOUT_S = 170.0


def child_env() -> dict:
    from common import STEADY_ENV

    env = dict(os.environ)
    env.update(STEADY_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def launch(args, out: Path, deadline: float, *, setup_only: bool):
    """Start one benchmark process; returns (process, setup seconds,
    raw setup seconds).

    Set-up time runs from the launch to the process's ``READY`` line,
    normalized to reference core speed with the phases and probes that
    line carries (``common.normalized_setup``).
    The process leads its own session, so a timeout can stop it and
    every process it started.
    """
    from common import normalized_setup

    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
        start_new_session=True,
    )
    ready, _, _ = select.select(
        [proc.stdout], [], [], max(deadline - time.monotonic(), 1.0)
    )
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - t0
    if not line.startswith("READY "):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{args.workload}: set-up failed ({line!r})")
    clock = json.loads(line[len("READY "):])
    return proc, normalized_setup(setup_s, clock), setup_s


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a benchmark process; kill its whole session on timeout."""
    try:
        rest, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("benchmark process timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited {proc.returncode}")
    return rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(HERE))
    import statistics

    from common import environment

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    raw_setups = []
    for _ in range(SETUP_RUNS - 1):
        proc, setup_s, raw_s = launch(args, out, deadline, setup_only=True)
        finish(proc, deadline - time.monotonic())
        setups.append(setup_s)
        raw_setups.append(raw_s)
    proc, setup_s, raw_s = launch(args, out, deadline, setup_only=False)
    setups.append(setup_s)
    raw_setups.append(raw_s)
    rest = finish(proc, deadline - time.monotonic())
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        raise RuntimeError("benchmark process printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"
        }

    record = {
        "time": time.time(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        **result,
        "environment": environment(ROOT),
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    summary = {k: result[k] for k in ("units", "fresh_units", "failed_share")}
    print(f"perfbench: {args.workload} seed {args.seed}: {summary}; "
          f"recipe {result['recipe']['recipe_sha256'][:12]} "
          f"inputs {result['recipe']['inputs_sha256'][:12]}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
