"""Phase 2 and the agent half of phase 3: local scheduling on owned resources.

An agent owns a disjoint set of resources, each modeled as a capacity-1
reservation timeline. Assigned clusters are scheduled from time 0 by level
decomposition and earliest-start selection; when the broker later reports
inter-cluster readiness times, the agent rigidly shifts the whole cluster.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Mapping, Sequence

from .clustering import Cluster
from .errors import InfeasibleTaskError, ProtocolError, StructuralError, ValidationError
from .graph import TaskDag, level_sweep
from .model import AgentSpec, Placement, Record, ResourceSpec, _set
from . import protocol


class ResourceTimeline:
    """Free time of one resource, kept only as an index of its free gaps.

    Reservations are non-overlapping closed-open slots. The timeline holds
    the sorted, disjoint, positive-length gaps between them, which never
    touch; their bounds are the slots' own floats, and an empty timeline has
    one gap ``(-inf, inf)``. A request of duration ``d`` fits at ``t`` in a
    gap when ``t + d <= gap end``: the test ``reserve`` and the validator make.
    """

    def __init__(self, resource: ResourceSpec):
        self.resource = resource
        self._gap_starts: list[float] = [-math.inf]
        self._gap_ends: list[float] = [math.inf]

    @property
    def resource_id(self) -> str:
        return self.resource.resource_id

    def earliest_fit(self, ready: float, duration: float) -> float:
        """Earliest instant >= ready where a slot of ``duration`` fits.

        Gaps between existing reservations count; zero-length requests fit
        anywhere because closed-open intervals of zero length occupy nothing.
        """
        if duration == 0:
            return ready
        starts, ends = self._gap_starts, self._gap_ends
        for i in range(bisect.bisect_right(ends, ready), len(ends)):
            t = starts[i] if starts[i] > ready else ready  # max() without the call
            if t + duration <= ends[i]:
                return t
        return math.inf  # only after a reservation that runs to infinity

    def reserve(self, task_id: str, start: float, duration: float) -> None:
        """Take ``[start, start + duration)`` out of the free gap holding it.

        A zero-length request occupies nothing and changes nothing. A
        positive one that no single free gap holds, such as one overlapping
        a reservation or one starting at NaN, raises :class:`StructuralError`;
        an overlap names the earliest booked stretch it runs into, the span
        between two gaps (adjacent reservations read as one stretch).
        """
        end = start + duration
        if duration > 0:
            starts, ends = self._gap_starts, self._gap_ends
            i = bisect.bisect_right(starts, start) - 1
            if i < 0 or not end <= ends[i]:
                where = ""
                if not (math.isnan(start) or math.isnan(end)):
                    lo = ends[i] if i >= 0 else -math.inf
                    hi = starts[i + 1] if i + 1 < len(starts) else math.inf
                    where = f": it overlaps booked [{lo}, {hi})"
                raise StructuralError(
                    f"reservation for {task_id!r} at [{start}, {end}) fits no "
                    f"free gap on {self.resource_id}{where}"
                )
            # the gap keeps a piece before the slot, after it, both or neither
            before, after = starts[i] < start, end < ends[i]
            if before and after:
                starts.insert(i + 1, end)
                ends.insert(i, start)
            elif before:
                ends[i] = start
            elif after:
                starts[i] = end
            else:
                del starts[i], ends[i]


class PartialSchedule(Record):
    """One cluster's placements, keyed by task id in decision order."""

    __slots__ = ("cluster_id", "placements")

    def __init__(self, cluster_id: str, placements: dict[str, Placement]) -> None:
        _set(self, "cluster_id", cluster_id)
        _set(self, "placements", placements)

    def shifted(self, delta: float) -> "PartialSchedule":
        """These placements ``delta`` later; the first task, in decision
        order, that would end past the largest float raises
        :func:`overflow_error`."""
        if delta == 0:
            return self
        moved = {}
        for t, p in self.placements.items():
            end = p.end + delta
            if end == math.inf:
                raise overflow_error(t)
            moved[t] = Placement(
                p.task_id, p.resource_id, p.agent_id, p.start + delta, end
            )
        return PartialSchedule(self.cluster_id, moved)


def overflow_error(task_id: str) -> ValidationError:
    """The error for a task whose start or end would not be a finite time."""
    return ValidationError(
        f"task {task_id!r} would end past the largest finite time; "
        "its processing and communication times are too large"
    )


def schedule_cluster(
    cluster: Cluster,
    dag: TaskDag,
    timelines: Mapping[str, ResourceTimeline],
    agent_id: str,
) -> PartialSchedule:
    """Schedule a cluster's tasks on the given timelines, dependencies inside only.

    ``dag`` may be the whole job's DAG: only edges between the cluster's
    tasks count.

    Tasks are taken block by block (level decomposition over intra-cluster
    edges, read from the specs in one pass), ascending task id within a
    block; a cycle raises :class:`CycleError` before anything is reserved.
    Each task goes to the eligible resource offering the minimum earliest
    start; ties fall to the ascending resource id. A predecessor on the same
    resource is ready at its end time; on another resource the communication
    time is added. Each placed predecessor is priced once per task, not once
    per resource. Reservations may fill gaps and persist on the timelines. A
    task that would not end at a finite time raises :class:`ValidationError`.
    """
    specs = dag.tasks
    indegree = dict.fromkeys(cluster.tasks, 0)
    succs: dict[str, list[str]] = {}
    for task_id in indegree:
        for dep in specs[task_id].dependencies:
            if dep.task_id in indegree:
                indegree[task_id] += 1
                succs.setdefault(dep.task_id, []).append(task_id)
    blocks = level_sweep(
        indegree, succs, lambda t: [d.task_id for d in specs[t].dependencies]
    )
    # Sorted once per cluster, so each task filters them in resource-id order.
    hosts = [(rid, tl.resource, tl) for rid, tl in sorted(timelines.items())]
    placed: dict[str, Placement] = {}
    for block in blocks:
        for task_id in block:
            task = specs[task_id]
            options = [
                (rid, tl) for rid, r, tl in hosts
                if r.memory >= task.memory and r.cpu_power >= task.cpu_power
            ]
            if not options:
                raise InfeasibleTaskError(
                    task_id,
                    f"agent {agent_id} has no resource with memory >= "
                    f"{task.memory} and cpuPower >= {task.cpu_power}",
                )
            # In-cluster predecessors sit in earlier blocks, so they are
            # exactly the predecessors already placed: each is priced once,
            # as its resource, its end and its end plus commTime.
            priors = [
                (prior.resource_id, prior.end, prior.end + dep.comm_time)
                for dep in task.dependencies
                if (prior := placed.get(dep.task_id)) is not None
            ]
            duration = task.processing_time
            start, (rid, timeline) = math.inf, options[0]
            for candidate, tl in options:
                ready = 0.0
                for where, end, shipped in priors:
                    if where != candidate:
                        end = shipped
                    if end > ready:  # ``max`` without a call per edge
                        ready = end
                fit = tl.earliest_fit(ready, duration)
                if fit < start:
                    start, rid, timeline = fit, candidate, tl
            end = start + duration
            if not math.isfinite(end):
                raise overflow_error(task_id)
            timeline.reserve(task_id, start, duration)
            placed[task_id] = Placement(task_id, rid, agent_id, start, end)
    return PartialSchedule(cluster.cluster_id, placed)


def apply_dependency_delays(
    partial: PartialSchedule, readiness: Iterable[tuple[str, float]]
) -> PartialSchedule:
    """Rigidly shift the cluster so every reported readiness time is met.

    The shift is the largest shortfall over the report. A shortfall
    ``ready - start`` may round so that ``start + shortfall`` lands below
    ``ready``; one step up to the next float then always meets the entry.
    The computed shortfall is the float nearest the exact ``ready - start``,
    so when it falls short, the exact value lies below the next float, and
    rounding cannot take ``start`` plus that float below ``ready``. The whole
    schedule moves as one block, so every pairwise start/end difference and
    the local non-overlap are preserved exactly.
    """
    delta = 0.0
    for task_id, ready in readiness:
        placement = partial.placements.get(task_id)
        if placement is None:
            raise ProtocolError(
                f"readiness for {task_id!r} which is not in cluster "
                f"{partial.cluster_id!r}"
            )
        shortfall = ready - placement.start
        if placement.start + shortfall < ready:
            shortfall = math.nextafter(shortfall, math.inf)
        delta = max(delta, shortfall)
    return partial.shifted(delta)


class AgentActor:
    """One scheduling agent: owns resource timelines, reacts to broker messages.

    It is built with the job DAG, read-only, and picks its own resources out
    of ``resources``. An AssignCluster message carries the cluster to
    schedule; a DependencyInfo message carries the (taskId, readyTime) pairs
    for the cluster it names.
    """

    def __init__(
        self, spec: AgentSpec, resources: Sequence[ResourceSpec], dag: TaskDag
    ):
        by_id = {r.resource_id: r for r in resources}
        missing = sorted(set(spec.resources) - set(by_id))
        if missing:
            raise StructuralError(
                f"agent {spec.agent_id!r} given no spec for: " + ", ".join(missing)
            )
        self.spec = spec
        self.dag = dag
        self.timelines = {
            rid: ResourceTimeline(by_id[rid]) for rid in sorted(spec.resources)
        }
        self._partials: dict[str, PartialSchedule] = {}

    @property
    def agent_id(self) -> str:
        return self.spec.agent_id

    def handle(self, message: protocol.Message) -> protocol.Message:
        """Process a broker message and produce the protocol reply."""
        if message.kind is protocol.MessageKind.ASSIGN_CLUSTER:
            partial = schedule_cluster(
                message.payload, self.dag, self.timelines, self.agent_id
            )
            kind = protocol.MessageKind.CLUSTER_SCHEDULED
        elif message.kind is protocol.MessageKind.DEPENDENCY_INFO:
            stored = self._partials.get(message.cluster_id)
            if stored is None:
                raise ProtocolError(
                    f"agent {self.agent_id} got readiness for unassigned "
                    f"cluster {message.cluster_id!r}"
                )
            partial = apply_dependency_delays(stored, message.payload)
            kind = protocol.MessageKind.ADJUSTED_SCHEDULE
        else:
            raise ProtocolError(
                f"agent {self.agent_id} cannot handle {message.kind.value}"
            )
        self._partials[partial.cluster_id] = partial
        return protocol.Message(
            kind=kind,
            sender=self.agent_id,
            receiver=message.sender,
            payload=partial,
            cluster_id=partial.cluster_id,
        )
