#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-stream --seed 1 --seconds 30 --trace 0

Workloads (the reasons for each are in ``BENCHMARK.json``):

* ``archive-batch`` — offline ``annotate_many`` over a mixed archive into a
  fresh SQLite store, then a read pass (:mod:`perfbench.archive`);
* ``fleet-stream`` — several hundred cars and a few taxis into the default
  service with the WAL on: open loop for latency, closed loop for rate
  (:mod:`perfbench.fleet`);
* ``people-http`` — smartphone feeds as batched ``POST /ingest`` requests
  over keep-alive connections, thread transport (:mod:`perfbench.people`).

The seed only varies the generated traffic; the city is fixed.  A change
that claims a gain must also show it on seed 101, which is held out: no
tuning of this benchmark used it.

Every run checks each sealed trajectory (canonical bytes) and the store row
counts against a sequential reference computed before the timed window, and
the service's no-drop ledger; any mismatch makes ``correct`` false and the
exit status 1.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the traced variant and prints the
per-layer ones (layers a workload bypasses read zero), and writes its spans
to ``perfbench/.work/trace-<workload>.jsonl``.  The last line of
standard output is one JSON object.  The lines before it hold the machine
facts, the sample counts and the p95 result latency (reported, not gated:
on a shared two-core host it swings with the host's load by more than any
bound allows), then one ``PROBLEM:`` line per failed check.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import multiprocessing
import os
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
#: A run that has not finished by then is killed with its children.
HARD_LIMIT_S = 170

#: Workload name -> the module that builds its inputs and runs it.
WORKLOADS = {
    "archive-batch": "perfbench.archive",
    "fleet-stream": "perfbench.fleet",
    "people-http": "perfbench.people",
}

#: Per-layer metrics of layers a workload does not run; they read zero.
BYPASSED: Dict[str, List[str]] = {
    "archive-batch": [
        "service.",
        "faults.journal.",
        "engine.",
        "streaming.",
        "generator.",
    ],
    "fleet-stream": ["parallel.shard_skew", "parallel.efficiency", "service.http."],
    "people-http": [
        "parallel.shard_skew",
        "parallel.efficiency",
        "faults.journal.",
        "service.workers.",
        "store.",
        "generator.",
    ],
}


def _kill_children_and_exit(signum: int, frame: object) -> None:
    for child in multiprocessing.active_children():
        child.kill()
    for child in multiprocessing.active_children():
        child.join(timeout=2.0)
    print(f"run exceeded {HARD_LIMIT_S} s; stopped", file=sys.stderr)
    os._exit(3)


def settle() -> None:
    """Keep the benchmark's own inputs and reference out of the program's
    garbage collections: they are long-lived and would only lengthen them."""
    gc.collect()
    gc.freeze()


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: str):
    """Build the seed's inputs and reference, then measure (or trace) a run."""
    from perfbench.trace import Tracer

    workload = importlib.import_module(WORKLOADS[name])
    inputs = workload.build_inputs(seed, work_dir)
    settle()
    tracer = Tracer() if trace else None
    report = workload.run(inputs, seconds, work_dir, tracer)
    if tracer is not None:
        tracer.write(str(WORK / f"trace-{name}.jsonl"))
    return report


def per_layer(report, name: str, spec: List[dict]) -> Dict[str, float]:
    values = dict(report.layers)
    values["failed_frac"] = report.failed / max(1, report.attempted)
    for metric in spec:
        if metric["name"] not in values and any(
            metric["name"].startswith(prefix) for prefix in BYPASSED[name]
        ):
            values[metric["name"]] = 0.0
    return values


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The benchmark fixes the program's configuration; ambient chaos or
    # telemetry switches would change what is measured.
    for variable in ("SEMITRI_FAULTS", "SEMITRI_OBSERVABILITY"):
        os.environ.pop(variable, None)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

    signal.signal(signal.SIGALRM, _kill_children_and_exit)
    signal.alarm(HARD_LIMIT_S)
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    from perfbench.common import calibration_ms, cpu_seconds, machine_facts

    calibration = calibration_ms()
    wall_started, cpu_started = time.perf_counter(), cpu_seconds()
    try:
        report = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), str(work_dir)
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    signal.alarm(0)

    facts = {**machine_facts(), **report.facts, "calibration_ms": calibration}
    facts["run_wall_s"] = time.perf_counter() - wall_started
    facts["run_cpu_s"] = cpu_seconds() - cpu_started
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "facts": facts,
                "samples": report.samples(),
            }
        )
    )
    for problem in report.problems:
        print(f"PROBLEM: {problem}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    correct = not report.problems
    metrics: Dict[str, Dict[str, object]] = {}
    if correct:
        values = (
            per_layer(report, args.workload, wanted) if args.trace else report.end_to_end()
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
