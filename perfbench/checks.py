"""Output checks, deterministic counts and the output identity record."""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass

from coalloc import FinalSchedule, TaskDag, validate_schedule
from coalloc.protocol import MessageKind

VALIDATE_CALLS = 3


def check_schedule(
    schedule: FinalSchedule, dag: TaskDag, resources, agents
) -> tuple[list[str], float]:
    """Problems found in one schedule, and the median ``validate_schedule``
    wall time over ``VALIDATE_CALLS`` calls.

    Adds what the validator does not check: finite start and end, every task
    placed exactly once, and ``end == start + processing_time``. The
    validator runs only on a structurally complete schedule, since it raises
    on missing or duplicated tasks.
    """
    problems: list[str] = []
    placed = Counter(p.task_id for p in schedule.placements)
    problems += [f"task {t} placed {n} times" for t, n in placed.items() if n > 1]
    problems += [f"task {t} not placed" for t in sorted(set(dag.tasks) - set(placed))]
    problems += [f"unknown task {t} placed" for t in sorted(set(placed) - set(dag.tasks))]
    for p in schedule.placements:
        if not (math.isfinite(p.start) and math.isfinite(p.end)):
            problems.append(f"task {p.task_id} has non-finite start/end")
        elif p.task_id in dag.tasks and (
            p.end != p.start + dag.tasks[p.task_id].processing_time
        ):
            problems.append(f"task {p.task_id} end != start + processing time")
    if problems:
        return problems, math.nan
    times = []
    for _ in range(VALIDATE_CALLS):
        start = time.perf_counter()
        report = validate_schedule(schedule, dag, resources, agents)
        times.append(time.perf_counter() - start)
    return report.lines(), statistics.median(times)


@dataclass(frozen=True)
class JobCounts:
    """Deterministic counts of one job, derived from its result and log."""

    clusters: int
    quotient_edges: int
    largest_cluster: int
    messages: int
    rigid_shift_sum: float
    repair_moved_tasks: int
    repair_push_sum: float
    max_reservations_per_resource: int
    makespan: float


def job_counts(result) -> JobCounts:
    """Counts from an ``OrchestrationResult``.

    The rigid shift of a cluster is the start difference between its
    ``AdjustedSchedule`` and its ``ClusterScheduled`` reply. A repair push is
    a task whose final start is later than its last reported start.
    """
    scheduled: dict[str, dict] = {}
    adjusted: dict[str, dict] = {}
    for entry in result.log:
        if entry.kind is MessageKind.CLUSTER_SCHEDULED:
            scheduled[entry.cluster_id] = entry.payload.placements
        elif entry.kind is MessageKind.ADJUSTED_SCHEDULE:
            adjusted[entry.cluster_id] = entry.payload.placements
    shift_sum = 0.0
    for cluster_id, placements in adjusted.items():
        task_id, moved = next(iter(placements.items()))
        shift_sum += moved.start - scheduled[cluster_id][task_id].start
    reported = {}
    for placements in scheduled.values():
        reported.update(placements)
    for placements in adjusted.values():
        reported.update(placements)
    pushes = [
        p.start - reported[p.task_id].start
        for p in result.schedule.placements
        if p.start != reported[p.task_id].start
    ]
    per_resource = Counter(p.resource_id for p in result.schedule.placements)
    clusters = result.cluster_dag.clusters
    return JobCounts(
        clusters=len(clusters),
        quotient_edges=len(result.cluster_dag.edges),
        largest_cluster=max((len(c.tasks) for c in clusters), default=0),
        messages=len(result.log),
        rigid_shift_sum=shift_sum,
        repair_moved_tasks=len(pushes),
        repair_push_sum=sum(pushes),
        max_reservations_per_resource=max(per_resource.values(), default=0),
        makespan=result.schedule.makespan,
    )


def output_digest(schedule_csv: str, clusters_txt: str) -> str:
    """sha256 of one job's ``schedule.csv`` and ``clusters.txt`` contents."""
    h = hashlib.sha256()
    for text in (schedule_csv, clusters_txt):
        data = text.encode()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def identity_record(digests: list[str], counts: list[JobCounts]) -> dict:
    """Combined digest over every distinct job, in job order, plus summed counts."""
    h = hashlib.sha256()
    for digest in digests:
        h.update(bytes.fromhex(digest))
    return {
        "sha256": h.hexdigest(),
        "jobs": len(digests),
        "clusters": sum(c.clusters for c in counts),
        "quotient_edges": sum(c.quotient_edges for c in counts),
        "protocol_messages": sum(c.messages for c in counts),
        "rigid_shift_sum": sum(c.rigid_shift_sum for c in counts),
        "repair_moved_tasks": sum(c.repair_moved_tasks for c in counts),
        "repair_push_sum": sum(c.repair_push_sum for c in counts),
    }
