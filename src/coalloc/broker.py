"""Protocol driver: distribute clusters, collect and adjust schedules, assemble.

The broker never tracks resource timelines; that state lives inside the
agents. It knows only the task DAG, the cluster DAG, the assignment, and the
placements reported back over the message channel.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .agent import AgentActor, PartialSchedule
from .clustering import Cluster, ClusterDag, cluster_tasks
from .errors import ProtocolError, StructuralError, ValidationError
from .graph import TaskDag, build_dag
from .model import (
    AgentSpec,
    FinalSchedule,
    Placement,
    ResourceSpec,
    TaskSpec,
    validate_agent_map,
)
from .protocol import (
    BROKER,
    USER,
    AssignClusterPayload,
    DependencyInfoPayload,
    Message,
    MessageKind,
    MessageLog,
    ScheduleResultPayload,
    SubmitTasksPayload,
)

__all__ = [
    "Assignment",
    "OrchestrationResult",
    "Broker",
    "distribute",
    "orchestrate",
    "assemble_and_repair",
]


@dataclass(frozen=True)
class Assignment:
    """Cluster-to-agent mapping plus the greedy per-agent task counts."""

    cluster_to_agent: dict[str, str]
    tasks_per_agent: dict[str, int]
    order: tuple[str, ...]  # dispatch order: quotient topological order


def distribute(cluster_dag: ClusterDag, agents: Sequence[AgentSpec]) -> Assignment:
    """Hand clusters out in topological order, always to the least-loaded agent.

    Load is the task count received so far; count ties fall to the ascending
    agent id, topological ties to the cluster with the least task id.
    """
    if not agents:
        raise ValidationError("at least one agent is required")
    counts = {a.agent_id: 0 for a in sorted(agents, key=lambda a: a.agent_id)}
    mapping: dict[str, str] = {}
    order: list[str] = []
    for cluster in cluster_dag.topological_order():
        agent_id = min(counts, key=lambda a: (counts[a], a))
        mapping[cluster.cluster_id] = agent_id
        counts[agent_id] += len(cluster.tasks)
        order.append(cluster.cluster_id)
    return Assignment(mapping, counts, tuple(order))


def assemble_and_repair(
    partials: Sequence[PartialSchedule],
    dag: TaskDag,
    assignment: Assignment,
) -> FinalSchedule:
    """Merge adjusted cluster schedules into one feasible final schedule.

    Rigid per-cluster delays can leave two clusters of the same agent
    overlapping on a resource. The repair keeps every task's resource and the
    per-resource order (by adjusted start, ties by task id) fixed and only
    pushes starts later, to the least times satisfying release by
    predecessors (communication time waived on the same resource) and
    one-at-a-time resource occupancy. Tasks finishing past their deadline are
    reported, not rejected.
    """
    merged: dict[str, Placement] = {}
    for partial in partials:
        agent_id = assignment.cluster_to_agent.get(partial.cluster_id)
        for task_id, placement in partial.placements.items():
            if task_id in merged:
                raise StructuralError(f"task {task_id!r} placed twice")
            if agent_id is not None and placement.agent_id != agent_id:
                raise StructuralError(
                    f"cluster {partial.cluster_id!r} scheduled by "
                    f"{placement.agent_id!r}, assigned to {agent_id!r}"
                )
            merged[task_id] = placement
    missing = sorted(set(dag.tasks) - set(merged))
    if missing:
        raise StructuralError("no placement for tasks: " + ", ".join(missing))
    extra = sorted(set(merged) - set(dag.tasks))
    if extra:
        raise StructuralError("placements for unknown tasks: " + ", ".join(extra))

    # Fixed per-resource succession over positive-duration placements only;
    # zero-length slots occupy nothing and constrain nobody.
    by_resource: dict[str, list[str]] = defaultdict(list)
    for task_id, placement in merged.items():
        if placement.duration > 0:
            by_resource[placement.resource_id].append(task_id)
    chain_pred: dict[str, str] = {}
    chain_succ: dict[str, str] = {}
    for resource_id in by_resource:
        chain = sorted(by_resource[resource_id], key=lambda t: (merged[t].start, t))
        for prev, nxt in zip(chain, chain[1:]):
            chain_pred[nxt] = prev
            chain_succ[prev] = nxt

    indegree = {t: len(dag.preds[t]) + (1 if t in chain_pred else 0) for t in merged}
    ready = [t for t, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    new: dict[str, Placement] = {}
    while ready:
        task_id = heapq.heappop(ready)
        placement = merged[task_id]
        start = placement.start
        for pred in dag.preds[task_id]:
            prior = new[pred]
            need = prior.end
            if prior.resource_id != placement.resource_id:
                need += dag.comm_time(pred, task_id)
            start = max(start, need)
        if task_id in chain_pred:
            start = max(start, new[chain_pred[task_id]].end)
        end = start + dag.tasks[task_id].processing_time
        new[task_id] = Placement(
            task_id, placement.resource_id, placement.agent_id, start, end
        )
        for succ in dag.succs[task_id]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
        nxt = chain_succ.get(task_id)
        if nxt is not None:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(new) != len(merged):
        raise StructuralError("repair pass found circular constraints")

    placements = tuple(sorted(new.values(), key=lambda p: (p.start, p.task_id)))
    makespan = max((p.end for p in placements), default=0.0)
    violations = tuple(
        sorted(
            t
            for t, p in new.items()
            if dag.tasks[t].deadline_time is not None
            and p.end > dag.tasks[t].deadline_time
        )
    )
    return FinalSchedule(placements, makespan, violations)


@dataclass
class OrchestrationResult:
    """Everything one run produces: schedule, assignment, graphs, message log."""

    schedule: FinalSchedule
    assignment: Assignment
    cluster_dag: ClusterDag
    dag: TaskDag
    log: MessageLog


class Broker:
    """Runs the full pipeline over the logged in-process message channel.

    With ``parallel=True`` the agents compute concurrently between level
    barriers; since agents share no state and the broker records messages at
    fixed points, the results and the log are identical either way.
    """

    def __init__(self, *, parallel: bool = False):
        self.parallel = parallel

    def orchestrate(
        self,
        tasks: Sequence[TaskSpec],
        resources: Sequence[ResourceSpec],
        agents: Sequence[AgentSpec],
        *,
        source: str = "",
    ) -> OrchestrationResult:
        """Cluster, distribute, schedule, delay, and assemble the task set."""
        validate_agent_map(list(agents), list(resources))
        log = MessageLog()  # one per run, so a reused broker starts clean
        log.record(
            Message(
                MessageKind.SUBMIT_TASKS,
                USER,
                BROKER,
                SubmitTasksPayload(len(tasks), source),
            )
        )
        dag = build_dag(tasks)
        cluster_dag = cluster_tasks(dag, len(agents))
        assignment = distribute(cluster_dag, agents)

        resource_by_id = {r.resource_id: r for r in resources}
        actors = {
            a.agent_id: AgentActor(a, [resource_by_id[rid] for rid in a.resources])
            for a in agents
        }

        # Phase 2: every cluster is scheduled locally, inter-cluster edges
        # ignored; agents start from time 0 on their own timelines.
        queues: dict[str, list[Message]] = defaultdict(list)
        for cluster_id in assignment.order:
            cluster = cluster_dag.by_id[cluster_id]
            agent_id = assignment.cluster_to_agent[cluster_id]
            message = Message(
                MessageKind.ASSIGN_CLUSTER,
                BROKER,
                agent_id,
                AssignClusterPayload(cluster, dag.restrict(cluster.tasks)),
                cluster_id=cluster_id,
            )
            log.record(message)
            queues[agent_id].append(message)
        replies = self._deliver(actors, queues)
        partials: dict[str, PartialSchedule] = {}
        for cluster_id in assignment.order:
            reply = self._expect(replies, cluster_id, MessageKind.CLUSTER_SCHEDULED)
            log.record(reply)
            partials[cluster_id] = reply.payload

        # Phase 3: sweep the cluster levels; the first level stands as-is,
        # deeper clusters get readiness reports and shift rigidly.
        final: dict[str, Placement] = {}
        for depth, level in enumerate(cluster_dag.levels(), start=1):
            if depth == 1:
                for cluster in level:
                    final.update(partials[cluster.cluster_id].placements)
                continue
            queues = defaultdict(list)
            pending: list[str] = []
            for cluster in level:
                entries = _readiness_entries(
                    cluster, dag, final, partials[cluster.cluster_id]
                )
                agent_id = assignment.cluster_to_agent[cluster.cluster_id]
                message = Message(
                    MessageKind.DEPENDENCY_INFO,
                    BROKER,
                    agent_id,
                    DependencyInfoPayload(cluster.cluster_id, tuple(entries)),
                    cluster_id=cluster.cluster_id,
                )
                log.record(message)
                queues[agent_id].append(message)
                pending.append(cluster.cluster_id)
            replies = self._deliver(actors, queues)
            for cluster_id in pending:
                reply = self._expect(
                    replies, cluster_id, MessageKind.ADJUSTED_SCHEDULE
                )
                log.record(reply)
                partials[cluster_id] = reply.payload
                final.update(reply.payload.placements)

        schedule = assemble_and_repair(
            [partials[cid] for cid in assignment.order], dag, assignment
        )
        mappings = tuple(
            (p.task_id, p.resource_id) for p in schedule.placements
        )
        log.record(
            Message(
                MessageKind.SCHEDULE_RESULT,
                BROKER,
                USER,
                ScheduleResultPayload(mappings, schedule.makespan),
            )
        )
        return OrchestrationResult(schedule, assignment, cluster_dag, dag, log)

    def _deliver(
        self,
        actors: dict[str, AgentActor],
        queues: dict[str, list[Message]],
    ) -> dict[str, Message]:
        """Let each agent process its queue in order; collect replies by cluster."""

        def run(agent_id: str) -> list[Message]:
            return [actors[agent_id].handle(m) for m in queues[agent_id]]

        agent_ids = sorted(queues)
        if self.parallel and len(agent_ids) > 1:
            with ThreadPoolExecutor(max_workers=len(agent_ids)) as pool:
                batches = list(pool.map(run, agent_ids))
        else:
            batches = [run(agent_id) for agent_id in agent_ids]
        replies: dict[str, Message] = {}
        for batch in batches:
            for message in batch:
                replies[message.cluster_id] = message
        return replies

    @staticmethod
    def _expect(
        replies: dict[str, Message], cluster_id: str, kind: MessageKind
    ) -> Message:
        reply = replies.get(cluster_id)
        if reply is None:
            raise ProtocolError(f"no reply for cluster {cluster_id!r}")
        if reply.kind is not kind:
            raise ProtocolError(
                f"expected {kind.value} for cluster {cluster_id!r}, "
                f"got {reply.kind.value}"
            )
        return reply


def _readiness_entries(
    cluster: Cluster,
    dag: TaskDag,
    final: dict[str, Placement],
    tentative: PartialSchedule,
) -> list[tuple[str, float]]:
    """One (taskId, readyTime) entry per incoming cross-cluster edge.

    readyTime is the finalized predecessor end plus the edge's communication
    time; the communication time is waived when producer and consumer sit on
    the same resource (possible when one agent holds both clusters).
    """
    inside = set(cluster.tasks)
    entries: list[tuple[str, float]] = []
    for task_id in cluster.tasks:
        target = tentative.placements[task_id]
        for pred in dag.preds[task_id]:
            if pred in inside:
                continue
            prior = final[pred]
            ready = prior.end
            if prior.resource_id != target.resource_id:
                ready += dag.comm_time(pred, task_id)
            entries.append((task_id, ready))
    return entries


def orchestrate(
    tasks: Sequence[TaskSpec],
    resources: Sequence[ResourceSpec],
    agents: Sequence[AgentSpec],
    *,
    parallel: bool = False,
    source: str = "",
) -> OrchestrationResult:
    """Convenience wrapper: run one broker over the given inputs."""
    return Broker(parallel=parallel).orchestrate(
        tasks, resources, agents, source=source
    )
