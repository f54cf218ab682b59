"""Acceptance suite: every criterion asserted at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import coalloc
from coalloc import (
    Cluster,
    MessageKind,
    PartialSchedule,
    Placement,
    ResourceSpec,
    ResourceTimeline,
    apply_dependency_delays,
    build_dag,
    cluster_tasks,
    generate_workload,
    host_masks,
    max_cluster_size,
    orchestrate,
    schedule_cluster,
    validate_schedule,
)
from coalloc.harness import TIME_GRID, compute_metrics
from coalloc.model import (
    serialize_agent_map,
    serialize_resource_set,
    serialize_task_set,
)
from conftest import corpus_instance, make_engineered, make_pool
from oracles import (
    check_selection_rule,
    coloring_is_acyclic,
    successor_lists,
)

CORPUS_SIZE = 1000


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)


@dataclass
class CorpusSummary:
    instances: int = 0
    multi_level: int = 0
    quota_failures: list = field(default_factory=list)
    acyclicity_failures: list = field(default_factory=list)
    validity_failures: list = field(default_factory=list)
    protocol_failures: list = field(default_factory=list)
    elapsed: float = 0.0


def protocol_deviations(result) -> list[str]:
    """Check per-cluster message sequences, that every cluster-addressed
    message names the cluster its payload carries or schedules, and
    recompute every readyTime."""
    issues: list[str] = []
    level_of = {
        c.cluster_id: depth
        for depth, level in enumerate(result.cluster_dag.levels(), start=1)
        for c in level
    }
    short = [MessageKind.ASSIGN_CLUSTER, MessageKind.CLUSTER_SCHEDULED]
    long = short + [MessageKind.DEPENDENCY_INFO, MessageKind.ADJUSTED_SCHEDULE]
    for cluster in result.cluster_dag.clusters:
        kinds = [e.kind for e in result.log if e.cluster_id == cluster.cluster_id]
        expected = short if level_of[cluster.cluster_id] == 1 else long
        if kinds != expected:
            issues.append(f"{cluster.cluster_id}: sequence {kinds}")

    cdag = result.cluster_dag
    owner = cdag.cluster_of
    latest: dict[str, dict] = {}
    for entry in result.log:
        if entry.kind is MessageKind.DEPENDENCY_INFO:
            # the entries name the cluster's own tasks
            carried = {owner.get(task_id) for task_id, _ in entry.payload}
        elif entry.kind in long:
            carried = {entry.payload.cluster_id}
        else:
            continue
        if entry.cluster_id is None or carried != {entry.cluster_id}:
            issues.append(
                f"{entry.kind.value} for cluster {entry.cluster_id!r} "
                f"carries {sorted(carried, key=str)}"
            )
            continue
        if entry.kind in (MessageKind.CLUSTER_SCHEDULED,
                          MessageKind.ADJUSTED_SCHEDULE):
            latest[entry.cluster_id] = entry.payload.placements
        elif entry.kind is MessageKind.DEPENDENCY_INFO:
            cluster = cdag.by_id[entry.cluster_id]
            inside = set(cluster.tasks)
            expected_entries = []
            for task_id in cluster.tasks:
                t_res = latest[entry.cluster_id][task_id].resource_id
                for dep in result.dag.tasks[task_id].dependencies:
                    if dep.task_id in inside:
                        continue
                    prior = latest[owner[dep.task_id]][dep.task_id]
                    ready = prior.end
                    if prior.resource_id != t_res:
                        ready += dep.comm_time
                    expected_entries.append((task_id, ready))
            if tuple(expected_entries) != tuple(entry.payload):
                issues.append(
                    f"{entry.cluster_id}: readiness {tuple(entry.payload)} "
                    f"!= end+commTime {tuple(expected_entries)}"
                )
    return issues


@pytest.fixture(scope="session")
def corpus_summary() -> CorpusSummary:
    summary = CorpusSummary()
    for seed in range(CORPUS_SIZE):
        scenario = corpus_instance(seed)
        dag = build_dag(scenario.tasks)
        quota = max_cluster_size(len(dag.tasks), len(scenario.agents))
        hosts = host_masks(dag, scenario.resources, scenario.agents)
        cdag = cluster_tasks(dag, len(scenario.agents), hosts)
        for cluster in cdag.clusters:
            if len(cluster.tasks) > quota:
                summary.quota_failures.append(
                    f"seed {seed}: {cluster.cluster_id} has {len(cluster.tasks)}"
                )
        if not coloring_is_acyclic(successor_lists(cdag.edges)):
            summary.acyclicity_failures.append(f"seed {seed}")

        started = time.perf_counter()
        result = orchestrate(scenario.tasks, scenario.resources, scenario.agents)
        violations = validate_schedule(
            result.schedule, result.dag, scenario.resources, scenario.agents
        )
        summary.elapsed += time.perf_counter() - started
        if not violations.is_empty():
            summary.validity_failures.append(
                f"seed {seed}: {violations.lines()[:3]}"
            )
        if len(result.cluster_dag.levels()) >= 2:
            summary.multi_level += 1
            summary.protocol_failures.extend(
                f"seed {seed}: {issue}" for issue in protocol_deviations(result)
            )
        summary.instances += 1
    return summary


def test_criterion_1_balance_scenario(engineered):
    started = time.perf_counter()
    result = orchestrate(engineered.tasks, engineered.resources, engineered.agents)
    elapsed = time.perf_counter() - started
    agent_ids = [a.agent_id for a in engineered.agents]
    metrics = compute_metrics(result.schedule, agent_ids)
    quota = max_cluster_size(len(engineered.tasks), len(engineered.agents))
    ok = (
        quota == 3
        and len(result.cluster_dag.clusters) == 3
        and metrics.tasks_per_agent
        == {"agent1": 3, "agent2": 3, "agent3": 2}
        and metrics.balance_spread == 1
        and elapsed < 1.0
    )
    report(
        "criterion 1: 8-task/3-agent balance scenario",
        ok,
        f"counts={tuple(metrics.tasks_per_agent.values())} "
        f"quota={quota} {elapsed * 1000:.0f}ms",
    )
    assert ok


def test_criterion_2_cluster_quota(corpus_summary):
    ok = (
        corpus_summary.instances >= 1000
        and not corpus_summary.quota_failures
        and not corpus_summary.acyclicity_failures
    )
    report(
        "criterion 2: quota and quotient acyclicity over corpus",
        ok,
        f"{corpus_summary.instances} instances, "
        f"{len(corpus_summary.quota_failures)} quota / "
        f"{len(corpus_summary.acyclicity_failures)} cycle failures",
    )
    assert ok, (corpus_summary.quota_failures[:5],
                corpus_summary.acyclicity_failures[:5])


def test_criterion_3_schedule_validity(corpus_summary):
    ok = (
        corpus_summary.instances >= 1000
        and not corpus_summary.validity_failures
        and corpus_summary.elapsed < 60.0
    )
    report(
        "criterion 3: validator-clean schedules over corpus",
        ok,
        f"{corpus_summary.instances} instances in "
        f"{corpus_summary.elapsed:.1f}s",
    )
    assert ok, corpus_summary.validity_failures[:5]


def test_criterion_4_selection_rule_oracle():
    rng = random.Random(404)
    checked = 0
    failures: list[str] = []
    while checked < 200:
        seed = rng.randint(0, 10**6)
        n = rng.randint(1, 10)
        tasks = generate_workload(seed, n, rng.randint(1, min(n, 3)), 0.4)
        num_resources = rng.randint(1, 4)
        resources = [
            ResourceSpec(
                f"r{i}", f"r{i}", "c", "f",
                2.0 + rng.randint(0, 24) * 0.25,
                2.0 + rng.randint(0, 24) * 0.25,
                90.0,
            )
            for i in range(num_resources - 1)
        ]
        # one roomy resource keeps every task feasible
        resources.append(ResourceSpec(f"r{num_resources - 1}", "big", "c", "f",
                                      8.0, 8.0, 90.0))
        dag = build_dag(tasks)
        timelines = {r.resource_id: ResourceTimeline(r) for r in resources}
        ids = sorted(dag.tasks)
        half = rng.randint(1, len(ids))
        clusters = [Cluster("K1", tuple(ids[:half]))]
        if half < len(ids):
            clusters.append(Cluster("K2", tuple(ids[half:])))
        busy: dict[str, list[tuple[float, float]]] = {
            r.resource_id: [] for r in resources
        }
        for cluster in clusters:
            partial = schedule_cluster(cluster, dag, timelines, "a1")
            failures.extend(
                f"seed {seed}/{cluster.cluster_id}: {msg}"
                for msg in check_selection_rule(
                    cluster.tasks, dag, resources, busy, partial.placements
                )
            )
            for p in partial.placements.values():
                if p.duration > 0:
                    busy[p.resource_id].append((p.start, p.end))
            checked += 1
    ok = not failures and checked >= 200
    report(
        "criterion 4: earliest-start selection is unbeatable",
        ok,
        f"{checked} clusters re-evaluated",
    )
    assert ok, failures[:5]


def test_criterion_5_protocol_conformance(corpus_summary):
    ok = (
        corpus_summary.multi_level > 0
        and not corpus_summary.protocol_failures
    )
    report(
        "criterion 5: protocol sequences and readiness payloads",
        ok,
        f"{corpus_summary.multi_level} multi-level instances, "
        f"{len(corpus_summary.protocol_failures)} deviations",
    )
    assert ok, corpus_summary.protocol_failures[:5]


def test_criterion_6_rigid_delay():
    rng = random.Random(606)
    failures = 0
    for _ in range(200):
        count = rng.randint(1, 12)
        placements = {}
        for i in range(count):
            start = rng.randint(0, 2000) * TIME_GRID
            duration = rng.randint(0, 40) * TIME_GRID
            placements[f"t{i:02d}"] = Placement(
                f"t{i:02d}", f"r{i % 3}", "a1", start, start + duration
            )
        partial = PartialSchedule("K", placements)
        picked = rng.sample(sorted(placements), rng.randint(1, count))
        readiness = [
            (t, rng.randint(0, 4000) * TIME_GRID) for t in picked
        ]
        moved = apply_dependency_delays(partial, readiness)
        for a in placements:
            for b in placements:
                before = placements[b].start - placements[a].start
                after = moved.placements[b].start - moved.placements[a].start
                if before != after:
                    failures += 1
                ends = placements[b].end - placements[a].end
                ends_after = moved.placements[b].end - moved.placements[a].end
                if ends != ends_after:
                    failures += 1
        if any(
            moved.placements[t].start < ready for t, ready in readiness
        ):
            failures += 1
    ok = failures == 0
    report(
        "criterion 6: rigid delay preserves pairwise differences exactly",
        ok,
        "200 delay reports",
    )
    assert ok


def test_criterion_7_end_to_end_determinism(tmp_path):
    tasks = generate_workload(11, 40, 6, 0.15)
    rng = random.Random(11)
    resources, agents = make_pool(rng, 4, 9)
    task_file = tmp_path / "tasks.xml"
    resource_file = tmp_path / "resources.xml"
    agent_file = tmp_path / "agents.txt"
    task_file.write_text(serialize_task_set(tasks))
    resource_file.write_text(serialize_resource_set(resources))
    agent_file.write_text(serialize_agent_map(agents))

    # the children import the same package as this process
    package_root = str(Path(coalloc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )

    def run(out):
        # separate interpreter per run: different hash seeds, real invocations
        proc = subprocess.run(
            [sys.executable, "-m", "coalloc.cli", "schedule",
             "--tasks", str(task_file), "--resources", str(resource_file),
             "--agents", str(agent_file), "--out", str(out),
             "--emit-log", "--emit-gantt"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return out

    first = run(tmp_path / "o1")
    second = run(tmp_path / "o2")
    artifacts = ["schedule.csv", "metrics.csv", "tasks_per_agent.csv",
                 "tasks_per_agent.svg", "protocol.log", "clusters.txt",
                 "gantt.svg", "gantt.txt"]
    identical = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in artifacts
    )
    report(
        "criterion 7: byte-identical reruns",
        identical,
        f"{len(artifacts)} artifacts compared",
    )
    assert identical


def test_criterion_8_desk_scale():
    tasks = generate_workload(99, 1000, 25, 0.02)
    rng = random.Random(7)
    resources, agents = make_pool(rng, 10, 30)
    started = time.perf_counter()
    result = orchestrate(tasks, resources, agents)
    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0 and len(result.schedule.placements) == 1000
    report(
        "criterion 8: 1000 tasks / 10 agents / 30 resources",
        ok,
        f"{elapsed:.2f}s",
    )
    assert ok


def test_acceptance_inputs_match_demo_files():
    """The shipped demo inputs are exactly the engineered scenario."""
    from pathlib import Path

    scenario = make_engineered()
    demo = Path(__file__).resolve().parent.parent / "demo"
    if not demo.exists():
        pytest.skip("demo directory not present")
    from coalloc.model import parse_agent_map, parse_resource_file, parse_task_file

    assert parse_task_file((demo / "tasks.xml").read_text()) == scenario.tasks
    assert (
        parse_resource_file((demo / "resources.xml").read_text())
        == scenario.resources
    )
    assert parse_agent_map((demo / "agents.txt").read_text()) == scenario.agents
