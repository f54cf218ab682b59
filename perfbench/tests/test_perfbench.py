"""Tests of the benchmark itself, on scaled-down copies of its workloads."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import coalloc  # noqa: E402
from coalloc import FinalSchedule, Placement  # noqa: E402
from perfbench import bench, spans  # noqa: E402
from perfbench.checks import check_schedule  # noqa: E402
from perfbench.workloads import WORKLOADS, make_pool  # noqa: E402

TINY = {
    "library": dataclasses.replace(
        WORKLOADS["dense-layered"], instances=2, num_tasks=(40, 40), layers=(5, 5),
        density=(0.1, 0.1), num_agents=(3, 3), num_resources=6,
    ),
    "cli": dataclasses.replace(
        WORKLOADS["cli-batch"], instances=2, num_tasks=(20, 30), peak_jobs=1,
    ),
}


def _run(kind: str, trace: bool, tmp_path: Path) -> bench.RunReport:
    return bench.run_workload(
        TINY[kind], 3, 0.0, trace, ROOT, tmp_path / f"work-{kind}-{trace}",
        tmp_path / "out",
    )


def _declared(group: str) -> list[tuple[str, str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc[group]]


@pytest.mark.parametrize("kind", ["library", "cli"])
def test_printed_metrics_match_benchmark_json_and_identity_survives_tracing(kind, tmp_path):
    plain = _run(kind, False, tmp_path)
    traced = _run(kind, True, tmp_path)
    for report, group in [(plain, "end_to_end"), (traced, "per_layer")]:
        assert report.correct, report.lines
        assert [(n, u) for n, (_, u) in report.metrics.items()] == _declared(group)
        assert all(math.isfinite(v) for v, _ in report.metrics.values())
    assert plain.identity["sha256"] is not None
    assert traced.identity == plain.identity
    written = json.loads((tmp_path / "out" / f"trace-{TINY[kind].name}-seed3-trace1.json").read_text())
    assert {e["ph"] for e in written["traceEvents"]} == {"X"}
    shares = traced.metrics["trace.self_sum_share"][0]
    assert 0.9 < shares <= 1.0 + 1e-6


def test_wrappers_are_removed_after_a_traced_job():
    before = (coalloc.broker.cluster_tasks, coalloc.graph.TaskDag.restrict,
              coalloc.agent.AgentActor.handle)
    recorder = spans.Recorder()
    with spans.traced(recorder):
        assert coalloc.broker.cluster_tasks is not before[0]
    after = (coalloc.broker.cluster_tasks, coalloc.graph.TaskDag.restrict,
             coalloc.agent.AgentActor.handle)
    assert after == before


def _small_result():
    tasks = coalloc.generate_workload(5, 30, 4, 0.2)
    resources, agents = make_pool(random.Random(7), 3, 6)
    return coalloc.orchestrate(tasks, resources, agents), resources, agents


def test_clean_schedule_passes_the_check():
    result, resources, agents = _small_result()
    problems, validate_s = check_schedule(result.schedule, result.dag, resources, agents)
    assert problems == [] and validate_s >= 0


@pytest.mark.parametrize("corruption", ["inf-end", "dropped-task", "duplicate"])
def test_corrupted_schedule_is_a_problem(corruption):
    result, resources, agents = _small_result()
    placements = list(result.schedule.placements)
    first = placements[0]
    if corruption == "inf-end":
        placements[0] = dataclasses.replace(first, end=math.inf)
    elif corruption == "dropped-task":
        placements.pop()
    else:
        placements.append(first)
    schedule = FinalSchedule(tuple(placements), result.schedule.makespan)
    problems, _ = check_schedule(schedule, result.dag, resources, agents)
    assert problems


@pytest.mark.parametrize("trace", [False, True])
def test_corrupted_job_counts_as_failed(trace, tmp_path, monkeypatch):
    real = coalloc.orchestrate

    def corrupting(tasks, resources, agents, **kwargs):
        result = real(tasks, resources, agents, **kwargs)
        last = result.schedule.placements[-1]
        bad = Placement(last.task_id, last.resource_id, last.agent_id, last.start, math.inf)
        result.schedule = FinalSchedule(
            result.schedule.placements[:-1] + (bad,), result.schedule.makespan
        )
        return result

    monkeypatch.setattr(coalloc, "orchestrate", corrupting)
    report = bench.run_workload(TINY["library"], 3, 0.0, trace, ROOT, tmp_path / "w", tmp_path / "o")
    assert report.attempted == 2 * bench.MIN_PASSES * (2 if trace else 1)
    assert report.failed == report.attempted and not report.correct


def test_run_refuses_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
