"""Launch ``repro serve`` for the served workload, optionally traced.

Run as ``python3 perfbench/serve.py <repro serve arguments>``; it calls
the ``repro`` CLI's ``serve`` verb unchanged.

Worker processes are started with the ``spawn`` method, which imports
this file (as ``__mp_main__``) in each worker before the worker runs.
When ``PERFBENCH_TRACE_DIR`` is set, that import installs the
benchmark's span wrappers around the worker's engine layers.  Each job
is traced only if the file ``<dir>/on`` exists when the job starts, so
one server can serve an untraced phase followed by a traced one; a
traced job's spans are appended to ``<dir>/worker-<pid>.jsonl`` as soon
as the job ends.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def _install_worker_tracing(trace_dir: Path) -> None:
    import repro.service.workers as workers
    from tracer import Tracer

    tracer = Tracer()
    run_job = workers._run_job
    flag = trace_dir / "on"
    out = trace_dir / f"worker-{os.getpid()}.jsonl"
    installed = False

    def traced_run_job(conn, twin, msg):
        nonlocal installed
        if not flag.exists():
            return run_job(conn, twin, msg)
        if not installed:
            tracer.install_engine_layers()
            tracer.wrap(workers, "step_record", "service.encode")
            installed = True
        tracer.reset()
        tracer.run_id = msg["job_id"]
        try:
            return run_job(conn, twin, msg)
        finally:
            tracer.dump(out, mode="a")

    workers._run_job = traced_run_job


# A spawned worker runs this file under the name ``__mp_main__``.
if __name__ == "__mp_main__" and os.environ.get("PERFBENCH_TRACE_DIR"):
    _install_worker_tracing(Path(os.environ["PERFBENCH_TRACE_DIR"]))


if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(["serve", *sys.argv[1:]]))
