"""ALBADross benchmark: one command, three workloads, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload serve_eclipse --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
workload with span tracing on and prints the per-layer metrics instead
(spans go to ``.perfbench/traces/``). The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--smoke`` shrinks every workload for the self-test.

``BENCHMARK.json`` gates ``serve_eclipse`` and ``campaign_volta``.
``al_eclipse``, the control workload with no extraction or serving, runs
the same way but is left out of it: its training time swings with the
host's load more than the bounds allow (see ``README.md``).

The benchmark is one process: it runs the library serially (``n_jobs=1``),
starts no subprocess or server, and before printing a result asserts that
no child process, no thread besides the main one, and no shared-memory
segment is left. It imports the program from ``src/`` next to this
directory and fails without a result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("serve_eclipse", "campaign_volta", "al_eclipse")


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes (self-test)")
    return parser.parse_args(argv)


def _leftovers(active_segments, timeout_s: float = 5.0) -> list[str]:
    """Child processes, extra threads and shm segments still alive."""
    import multiprocessing

    deadline = time.monotonic() + timeout_s
    while True:
        problems = []
        children = multiprocessing.active_children()
        if children:
            problems.append(f"child processes alive: {children}")
        threads = [t for t in threading.enumerate() if t is not threading.main_thread()]
        if threads:
            problems.append(f"threads alive besides main: {[t.name for t in threads]}")
        segments = active_segments()
        if segments:
            problems.append(f"shared-memory segments left: {segments}")
        if not problems or time.monotonic() > deadline:
            return problems
        time.sleep(0.05)  # a stopped dispatcher may still be unwinding


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    # one process, one core's worth of BLAS: keeps timings comparable
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))

    from common import END_TO_END, PER_LAYER
    from tracer import Tracer

    import campaign
    import curves
    import serve
    from repro.parallel import active_segments, close_shared_executors

    workload = {"serve_eclipse": serve, "campaign_volta": campaign, "al_eclipse": curves}[
        args.workload
    ]
    tracer = Tracer().install() if args.trace else None
    work_dir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        outcome = workload.run(args.seed, args.seconds, tracer, work_dir, args.smoke)
    finally:
        if tracer is not None:
            tracer.uninstall()
        close_shared_executors()
        shutil.rmtree(work_dir, ignore_errors=True)

    leftovers = _leftovers(active_segments)
    if leftovers:
        for problem in leftovers:
            print(f"error: unclean shutdown: {problem}", file=sys.stderr)
        return 3

    if tracer is not None:
        tracer.write(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    spec = PER_LAYER if args.trace else END_TO_END
    values = outcome.layer if args.trace else outcome.e2e
    missing = [name for name, _, _ in spec if name not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 4
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not outcome.problems
    print(f"digest {args.workload} seed={args.seed} {outcome.digest}")
    print(f"samples {json.dumps(outcome.samples)}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in spec},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
