"""Benchmark entry point.

    python3 perfbench/run.py --workload dense-layered --seed 1 --seconds 20 --trace 0

Run from the repository root. Prints a human-readable report, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``). ``--workload all`` runs every workload in turn and
prefixes each metric with its workload name.

Inputs are written under ``perfbench/_work`` (removed at exit); identity
records and Chrome traces go to ``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "perfbench"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "coalloc" / "__init__.py").is_file():
        print(f"error: no coalloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import speed
    from perfbench.bench import run_workload
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    speed.pin_to_one_cpu()
    work_dir = PACKAGE_DIR / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    reports = []
    try:
        for name in names:
            report = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                ROOT, work_dir / name, PACKAGE_DIR / "_out",
            )
            print("\n".join(report.lines), flush=True)
            reports.append(report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only when no other run is using it

    prefix = len(reports) > 1
    metrics = {
        (f"{r.workload}/{name}" if prefix else name): {"value": value, "unit": unit}
        for r in reports
        for name, (value, unit) in r.metrics.items()
    }
    print(json.dumps({
        "correct": all(r.correct for r in reports),
        "attempted": sum(r.attempted for r in reports),
        "failed": sum(r.failed for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
