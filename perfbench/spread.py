"""Run-to-run spread of the benchmark's metrics.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload frontier-replay-day \\
        --seeds 1-10 [--seconds 25] [--trace 0]

Runs ``perfbench/run.py`` once per seed and prints, for every metric,
the median, the first and third quartiles and the quartile spread
(``(q3 - q1) / median``, with ``statistics.quantiles(values, n=4)``),
next to the bound ``BENCHMARK.json`` fixes for it.  The table is also
appended to ``perfbench/out/spread.jsonl``, so bounds can be set from
recorded data.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    failures = 0
    for seed in args.seeds:
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.splitlines()[-1])
        failures += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s, "
              f"correct={result['correct']}", file=sys.stderr)

    rows = []
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        rows.append({"metric": name, "median": med, "q1": q1, "q3": q3,
                     "spread": spread, "bound": bound, "values": vals})
        print(f"{name:32s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {bound if bound is not None else '':>6}")
    print(f"failed operations: {failures}")
    with open(HERE / "out" / "spread.jsonl", "a") as fh:
        fh.write(json.dumps({"time": time.time(), "workload": args.workload,
                             "seeds": args.seeds, "seconds": seconds,
                             "trace": args.trace, "rows": rows}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
