"""Reduced-size self-test of the benchmark (a few minutes).

Run from the repository root::

    python3 perfbench/selftest.py

For every workload ``perfbench/run.py`` knows (those ``BENCHMARK.json``
gates and ``al_eclipse``) it runs it with ``--smoke`` untraced twice and
traced once, and checks that

* each run exits 0 after its own clean-shutdown assertions (no child
  process, no thread besides the main one, no shared-memory segment);
* the last output line is the result object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``, the outputs
  checked correct, and no operation failed;
* every metric ``BENCHMARK.json`` names for the mode is printed, with its
  unit, as a finite number;
* repeated runs of the same seed print the same output digest.

It also checks that ``BENCHMARK.json`` and ``perfbench/common.py`` name
the same metrics, and that the benchmark fails without printing a result
when only ``BENCHMARK.json`` and ``perfbench/`` are present.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
SECONDS = "2"


def _run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _check_result(proc, spec: list[dict], label: str, errors: list[str]) -> str | None:
    if proc.returncode != 0:
        errors.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{label}: outputs not correct")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"{label}: attempted {result.get('attempted')!r}")
    if result.get("failed") != 0:
        errors.append(f"{label}: failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in spec}:
        errors.append(f"{label}: metric names differ from BENCHMARK.json")
    for m in spec:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            errors.append(f"{label}: {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {m['name']} value {value!r}")
    digests = [line for line in lines if line.startswith("digest ")]
    return digests[-1] if digests else None


def main() -> int:
    sys.path.insert(0, str(HERE))
    from common import END_TO_END, PER_LAYER
    from run import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    for key, spec in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        if listed != spec:
            errors.append(f"BENCHMARK.json {key} differs from perfbench/common.py")

    gated = {w["name"] for w in bench["workloads"]}
    if not gated <= set(WORKLOADS):
        errors.append(f"BENCHMARK.json names unknown workloads: {sorted(gated - set(WORKLOADS))}")
    for workload in WORKLOADS:
        digests = []
        for i, trace in enumerate((0, 0, 1)):
            spec = bench["per_layer" if trace else "end_to_end"]
            proc = _run(ROOT, workload, trace)
            digests.append(_check_result(proc, spec, f"{workload} trace={trace} #{i}", errors))
        if len(set(digests)) != 1 or None in digests:
            errors.append(f"{workload}: digests differ across runs: {digests}")
        print(f"{workload}: {len(errors)} problem(s) so far", flush=True)

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(bare, "serve_eclipse", 0, smoke=False)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("benchmark printed a result without the program sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    sys.path.insert(0, str(ROOT / "src"))
    from repro.parallel import active_segments

    if active_segments():
        errors.append(f"shared-memory segments left: {active_segments()}")
    for error in errors:
        print(f"FAIL {error}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
