"""Independent schedule validation, seeded workload generation, and metrics.

The validator works from the data model alone and never calls scheduling
code, so it can serve as an oracle for the engine's output.
"""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Iterable, Sequence
from operator import attrgetter

from .errors import ValidationError
from .graph import TaskDag
from .model import (
    AgentSpec,
    Dependency,
    FinalSchedule,
    Record,
    ResourceSpec,
    TaskSpec,
    _set,
)

# Generated times sit on a quarter-second grid: every value and every sum of
# values is exactly representable in binary floating point, so schedule
# arithmetic and comparisons stay exact end to end.
TIME_GRID = 0.25

_task_id = attrgetter("task_id")
_start = attrgetter("start")


class ViolationReport(Record):
    """Everything wrong with a schedule; empty means valid.

    ``duration_mismatches`` flags rows whose end is not start + processing
    time, impossible for engine output, possible in hand-made placements. A
    list left out starts as a new empty list of the report's own.
    """

    __slots__ = (
        "overlaps",
        "precedence_violations",
        "eligibility_violations",
        "deadline_misses",
        "duration_mismatches",
    )

    def __init__(
        self,
        overlaps: list[tuple[str, str, str]] | None = None,
        precedence_violations: list[tuple[str, str, float, float]] | None = None,
        eligibility_violations: list[tuple[str, str]] | None = None,
        deadline_misses: list[tuple[str, float, float]] | None = None,
        duration_mismatches: list[tuple[str, float, float]] | None = None,
    ) -> None:
        lists = (
            overlaps,
            precedence_violations,
            eligibility_violations,
            deadline_misses,
            duration_mismatches,
        )
        for name, value in zip(self.__slots__, lists):
            _set(self, name, [] if value is None else value)

    def is_empty(self) -> bool:
        return not any(getattr(self, name) for name in self.__slots__)

    def lines(self) -> list[str]:
        out: list[str] = []
        for rid, a, b in self.overlaps:
            out.append(f"overlap on {rid}: {a} and {b}")
        for pred, succ, required, actual in self.precedence_violations:
            out.append(
                f"precedence {pred} -> {succ}: requires start >= {required}, "
                f"got {actual}"
            )
        for task_id, rid in self.eligibility_violations:
            out.append(f"eligibility: {task_id} cannot run on {rid}")
        for task_id, end, deadline in self.deadline_misses:
            out.append(f"deadline: {task_id} ends {end} after {deadline}")
        for task_id, expected, actual in self.duration_mismatches:
            out.append(
                f"duration: {task_id} should end at {expected}, row says {actual}"
            )
        return out


class Metrics(Record):
    """Load-balance and utilization summary of a schedule."""

    __slots__ = ("tasks_per_agent", "makespan", "per_resource_busy", "balance_spread")

    def __init__(
        self,
        tasks_per_agent: dict[str, int],
        makespan: float,
        per_resource_busy: dict[str, float],
        balance_spread: int,
    ) -> None:
        _set(self, "tasks_per_agent", tasks_per_agent)
        _set(self, "makespan", makespan)
        _set(self, "per_resource_busy", per_resource_busy)
        _set(self, "balance_spread", balance_spread)

    def series(self) -> list[tuple[str, int]]:
        """Chart-ready (agentId, count) pairs, ascending agent id."""
        return sorted(self.tasks_per_agent.items())


def validate_schedule(
    schedule: FinalSchedule,
    dag: TaskDag,
    resources: Sequence[ResourceSpec],
    agents: Sequence[AgentSpec],
) -> ViolationReport:
    """Exhaustively check a schedule against the task DAG and resource pool.

    Checks resource overlaps (closed-open intervals), every dependency edge
    (communication time owed only across resources), task-resource
    eligibility including agent ownership, deadlines and row durations. Each
    check is the float expression the engine computes: ``fl(end + commTime)
    <= start`` for an edge across resources and ``fl(start + processingTime)
    == end`` for a row. A schedule holding an infinite end (as any infinite
    start implies) raises :class:`ValidationError` naming the least such
    task id.

    Each check makes one pass, and only what it reports is sorted.
    Overlaps come by resource id, then by (start, taskId) of each row;
    precedence violations by the DAG's task order, then by declared
    dependency; the other three lists by task id.
    """
    placements = schedule.placements
    by_task = {p.task_id: p for p in placements}
    if len(by_task) != len(placements):
        raise ValidationError("schedule places some task twice")
    tasks = dag.tasks
    if by_task.keys() != tasks.keys():
        missing = sorted(tasks.keys() - by_task.keys())
        if missing:
            raise ValidationError("schedule misses tasks: " + ", ".join(missing))
        extra = sorted(by_task.keys() - tasks.keys())
        raise ValidationError("schedule has unknown tasks: " + ", ".join(extra))

    report = ViolationReport()
    infinite: list[str] = []
    resource_by_id = {r.resource_id: r for r in resources}
    owner: dict[str, str] = {}
    for agent in agents:
        for rid in agent.resources:
            owner[rid] = agent.agent_id

    # zero-length rows are empty closed-open intervals: they never overlap
    rows: dict[str, list] = {}
    for p in placements:
        if p.end > p.start:
            rows.setdefault(p.resource_id, []).append(p)
    for rid in sorted(rows):
        # two stable sorts order the group by (start, taskId): totally, as
        # task ids are unique and no start is NaN
        group = rows[rid]
        group.sort(key=_task_id)
        group.sort(key=_start)
        for i in range(1, len(group)):
            a = group[i - 1]
            end = a.end
            if group[i].start < end:  # else no later row overlaps a either
                for j in range(i, len(group)):
                    b = group[j]
                    if b.start >= end:  # so does every later b: starts ascend
                        break
                    report.overlaps.append((rid, a.task_id, b.task_id))

    for task_id, spec in tasks.items():
        placement = by_task[task_id]
        rid, start, end = placement.resource_id, placement.start, placement.end
        if spec.dependencies:
            for dep in spec.dependencies:
                p = by_task[dep.task_id]
                required = p.end if p.resource_id == rid else p.end + dep.comm_time
                if start < required:
                    report.precedence_violations.append(
                        (p.task_id, task_id, required, start)
                    )
        resource = resource_by_id.get(rid)
        if (
            resource is None
            or resource.memory < spec.memory
            or resource.cpu_power < spec.cpu_power
            or owner.get(rid) != placement.agent_id
        ):
            report.eligibility_violations.append((task_id, rid))
        if spec.deadline_time is not None and end > spec.deadline_time:
            report.deadline_misses.append((task_id, end, spec.deadline_time))
        if end == math.inf:
            infinite.append(task_id)
        expected_end = start + spec.processing_time
        if end != expected_end:
            report.duration_mismatches.append((task_id, expected_end, end))
    if infinite:
        raise ValidationError(f"placement of {min(infinite)!r}: end must be finite")
    for found in (
        report.eligibility_violations,
        report.deadline_misses,
        report.duration_mismatches,
    ):
        found.sort()  # by task id: each task appears once in a list
    return report


def compute_metrics(
    schedule: FinalSchedule, agent_ids: Iterable[str] = ()
) -> Metrics:
    """Tasks per agent, makespan, per-resource busy time, and balance spread.

    ``agent_ids`` only widens the agent set, so idle agents show up with a
    zero count (pass ``Assignment.tasks_per_agent`` after a broker run).
    """
    counts: dict[str, int] = {a: 0 for a in sorted(agent_ids)}
    busy: dict[str, float] = {}
    for p in schedule.placements:
        counts[p.agent_id] = counts.get(p.agent_id, 0) + 1
        busy[p.resource_id] = busy.get(p.resource_id, 0.0) + p.duration
    counts = dict(sorted(counts.items()))
    busy = dict(sorted(busy.items()))
    spread = (max(counts.values()) - min(counts.values())) if counts else 0
    return Metrics(
        tasks_per_agent=counts,
        makespan=schedule.makespan,
        per_resource_busy=busy,
        balance_spread=spread,
    )


# Generator value ranges, all on TIME_GRID. A task's deadline, when it gets
# one, is a loose critical-path estimate plus a slack drawn from
# _DEADLINE_SLACK, so generated workloads only miss deadlines when a test
# constructs the miss deliberately.
_PROCESSING_TIME = (1.0, 10.0)
_COMM_TIME = (0.0, 5.0)
_MEMORY = (0.0, 4.0)
_CPU_POWER = (0.0, 4.0)
_DEADLINE_SLACK = (10.0, 100.0)


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    steps = int((hi - lo) / TIME_GRID)
    return lo + TIME_GRID * rng.randint(0, steps)


def generate_workload(
    seed: int,
    num_tasks: int,
    num_layers: int,
    edge_density: float,
    deadline_probability: float = 0.0,
) -> list[TaskSpec]:
    """Build a seeded, layered random task set; identical inputs, identical output.

    Tasks are spread over ``num_layers`` nonempty layers and edges point only
    from earlier to later layers, so the result is acyclic by construction.
    Each ordered cross-layer pair becomes an edge with probability
    ``edge_density``, and each task gets a deadline with probability
    ``deadline_probability``.
    """
    if not 0.0 <= deadline_probability <= 1.0:
        raise ValidationError("deadline_probability must be in [0, 1]")
    if num_tasks < 0:
        raise ValidationError("num_tasks must be nonnegative")
    if num_layers < 1:
        raise ValidationError(f"num_layers must be >= 1, got {num_layers}")
    if not 0.0 <= edge_density <= 1.0:  # NaN fails too
        raise ValidationError("edge_density must be in [0, 1]")
    if num_tasks == 0:
        return []
    if num_layers > num_tasks:
        raise ValidationError(
            f"num_layers must be in [1, {num_tasks}], got {num_layers}"
        )
    rng = random.Random(seed)

    layer_of = list(range(num_layers))  # one pin per layer keeps all nonempty
    layer_of += [rng.randrange(num_layers) for _ in range(num_tasks - num_layers)]
    layer_of.sort()
    width = len(str(num_tasks))
    ids = [f"t{i + 1:0{width}d}" for i in range(num_tasks)]

    processing = {t: _draw(rng, *_PROCESSING_TIME) for t in ids}
    memory = {t: _draw(rng, *_MEMORY) for t in ids}
    cpu_power = {t: _draw(rng, *_CPU_POWER) for t in ids}

    deps: dict[str, list[Dependency]] = {t: [] for t in ids}
    for consumer, layer in zip(ids, layer_of):
        # ``layer_of`` ascends, so the earlier-layer tasks are a prefix
        for producer in ids[:bisect.bisect_left(layer_of, layer)]:
            if rng.random() < edge_density:
                deps[consumer].append(
                    Dependency(producer, _draw(rng, *_COMM_TIME))
                )

    # Loose critical-path estimate: ignores resource contention entirely.
    estimate: dict[str, float] = {}
    for t in ids:
        reach = max(
            (estimate[d.task_id] + d.comm_time for d in deps[t]), default=0.0
        )
        estimate[t] = reach + processing[t]
    deadlines: dict[str, float | None] = {}
    for t in ids:
        if rng.random() < deadline_probability:
            deadlines[t] = estimate[t] + _draw(rng, *_DEADLINE_SLACK)
        else:
            deadlines[t] = None

    return [
        TaskSpec(
            task_id=t,
            processing_time=processing[t],
            memory=memory[t],
            cpu_power=cpu_power[t],
            deadline_time=deadlines[t],
            dependencies=tuple(deps[t]),
        )
        for t in ids
    ]
