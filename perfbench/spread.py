"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload serve_eclipse --seeds 1-10 [--trace 0]

For every end-to-end metric it prints the median of the per-seed values
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the bound ``BENCHMARK.json`` gives the metric. Runs go one after another,
each as its own ``perfbench/run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    spec = bench["per_layer" if args.trace else "end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec}
    for seed in _seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], f"seed {seed}: outputs incorrect"
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        shown = " ".join(f"{n}={values[n][-1]:.5g}" for n in list(values)[:8])
        print(f"seed {seed} ({wall:.1f} s): {shown}", flush=True)
    print(f"{'metric':32s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for m in spec:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = m.get("bound", float("nan"))
        print(f"{m['name']:32s} {med:12.6g} {spread:8.4f} {bound:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
