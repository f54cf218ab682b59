"""Protocol driver: distribute clusters, collect and adjust schedules, assemble.

The broker never tracks resource timelines; that state lives inside the
agents. It knows only the task DAG, the cluster DAG, the assignment, and the
placements reported back over the message channel.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from collections.abc import Sequence
from operator import attrgetter

from .agent import AgentActor, overflow_error
from .clustering import Cluster, ClusterDag, cluster_tasks
from .errors import InfeasibleTaskError, StructuralError, ValidationError
from .graph import TaskDag, build_dag, ready_order, release
from .model import (
    AgentSpec,
    FinalSchedule,
    Placement,
    Record,
    ResourceSpec,
    TaskSpec,
    _set,
    validate_agent_map,
)
from .protocol import BROKER, USER, Message, MessageKind, MessageLog, ReadinessReport

__all__ = [
    "Assignment",
    "OrchestrationResult",
    "Broker",
    "host_masks",
    "distribute",
    "orchestrate",
    "assemble_and_repair",
]


class Assignment(Record):
    """Cluster-to-agent mapping plus the greedy per-agent task counts."""

    __slots__ = ("cluster_to_agent", "tasks_per_agent")

    def __init__(
        self,
        # in dispatch order: the quotient's topological order
        cluster_to_agent: dict[str, str],
        tasks_per_agent: dict[str, int],
    ) -> None:
        _set(self, "cluster_to_agent", cluster_to_agent)
        _set(self, "tasks_per_agent", tasks_per_agent)


def host_masks(
    dag: TaskDag,
    resources: Sequence[ResourceSpec],
    agents: Sequence[AgentSpec],
) -> dict[str, int]:
    """Each task's hosts as an int bitmask, bit i set when the i-th agent by
    ascending id owns a resource with at least the task's memory and cpuPower.

    An agent with a resource meeting both the largest memory and the largest
    CPU requirement hosts every task, so when every agent does this costs one
    pass over the tasks. The least task id no agent hosts raises
    :class:`InfeasibleTaskError`.
    """
    memory = max((t.memory for t in dag.tasks.values()), default=0.0)
    cpu = max((t.cpu_power for t in dag.tasks.values()), default=0.0)
    by_id = {r.resource_id: r for r in resources}
    wide, narrow = 0, []
    for i, agent in enumerate(sorted(agents, key=attrgetter("agent_id"))):
        owned = [by_id[rid] for rid in agent.resources]
        if any(r.memory >= memory and r.cpu_power >= cpu for r in owned):
            wide |= 1 << i
        else:
            narrow.append((1 << i, owned))
    masks = dict.fromkeys(dag.tasks, wide)
    for bit, owned in narrow:
        for task_id, t in dag.tasks.items():
            if any(r.memory >= t.memory and r.cpu_power >= t.cpu_power for r in owned):
                masks[task_id] |= bit
    if not all(masks.values()):
        t = dag.tasks[min(task_id for task_id, mask in masks.items() if not mask)]
        raise InfeasibleTaskError(t.task_id, (
            f"no resource in the pool has memory >= {t.memory} "
            f"and cpuPower >= {t.cpu_power}"
        ))
    return masks


def distribute(
    cluster_dag: ClusterDag,
    agents: Sequence[AgentSpec],
    hosts: dict[str, int],
) -> Assignment:
    """Hand clusters out in topological order, each to the least-loaded of
    its hosts: the agents set in the AND of its tasks' ``hosts`` masks
    (:func:`host_masks`), never none after :func:`cluster_tasks`. Load is
    the task count received so far; count ties fall to the ascending agent
    id, topological ties to the cluster with the least task id.
    """
    if not agents:
        raise ValidationError("at least one agent is required")
    ids = sorted(a.agent_id for a in agents)
    counts = dict.fromkeys(ids, 0)
    mapping: dict[str, str] = {}
    for cluster in cluster_dag.topological_order():
        common = -1
        for task_id in cluster.tasks:
            common &= hosts[task_id]
        able = [a for i, a in enumerate(ids) if common >> i & 1]
        agent_id = min(able, key=lambda a: (counts[a], a))
        mapping[cluster.cluster_id] = agent_id
        counts[agent_id] += len(cluster.tasks)
    return Assignment(mapping, counts)


def assemble_and_repair(
    placements: dict[str, Placement], dag: TaskDag
) -> FinalSchedule:
    """Repair the adjusted placements, keyed by task id, into one feasible
    final schedule.

    ``placements`` is used up: the repair rewrites it in place and clears it
    before the final sort. A placement with an infinite end raises
    :class:`ValidationError` naming the first such task in map order; then
    a task of ``dag`` left unplaced, and after that a placement of a task
    not in ``dag``, raises :class:`StructuralError`.

    Rigid per-cluster delays can leave two clusters of the same agent
    overlapping on a resource. The repair keeps every task's resource and the
    per-resource order (by adjusted start, ties by task id) fixed and only
    pushes starts later, to the least times satisfying release by
    predecessors (communication time waived on the same resource) and
    one-at-a-time resource occupancy. Tasks finishing past their deadline are
    reported, not rejected. A push that carries a task's end to infinity
    raises :class:`ValidationError` naming that task, as phases 2 and 3 do.

    Only tasks downstream of a broken constraint are revisited. One check
    pass finds the tasks that the rule above would move. It reads each
    task's DAG edges from its spec and walks each resource chain, a list of
    placements sorted by ``_by_start``, so it builds no set or map keyed by
    every task; the map of chain predecessors is built only when some task
    moves. The repair then sweeps those tasks, in map order, and what they
    reach along DAG and resource-chain edges, predecessors first. The
    constraint graph is acyclic, so its least fixpoint is unique and any
    topological order reaches it. A task outside that region already meets
    its constraints and none of its predecessors moves, so it keeps its
    placement, as a sweep over the whole job would leave it. A cycle among
    the constraints must break one of them, since a chained task of
    positive length strictly raises the start of the next, so a cycle
    always lies inside the region and is reported there.
    """
    for task_id, placement in placements.items():
        if placement.end == math.inf:  # an infinite start's too: end >= start
            raise ValidationError(f"placement of {task_id!r}: end must be finite")
    specs = dag.tasks
    if placements.keys() != specs.keys():
        missing = sorted(t for t in specs if t not in placements)
        if missing:
            raise StructuralError("no placement for tasks: " + ", ".join(missing))
        extra = sorted(t for t in placements if t not in specs)
        raise StructuralError("placements for unknown tasks: " + ", ".join(extra))

    # Fixed per-resource succession over positive-duration placements only;
    # zero-length slots occupy nothing and constrain nobody. A task waits for
    # its DAG predecessors and for the task ``before`` it on its resource.
    by_resource: dict[str, list[Placement]] = defaultdict(list)
    for placement in placements.values():
        if placement.duration > 0:
            by_resource[placement.resource_id].append(placement)
    late: set[str] = set()  # tasks starting before their chain predecessor ends
    for chain in by_resource.values():
        _by_start(chain)
        late.update(b.task_id for a, b in zip(chain, chain[1:]) if a.end > b.start)
    before: dict[str, str] = {}

    def pushed(task_id: str) -> Placement | None:
        """``task_id`` at the least start its constraints allow against
        ``placements``, or None when that leaves its start and end as they
        are."""
        placement = placements[task_id]
        start, resource_id = placement.start, placement.resource_id
        for dep in specs[task_id].dependencies:
            prior = placements[dep.task_id]  # ``graph.release`` without the call
            ready = prior.end
            if prior.resource_id != resource_id:
                ready += dep.comm_time
            if ready > start:  # ``max`` without a call per edge
                start = ready
        if task_id in before:
            ready = placements[before[task_id]].end
            if ready > start:
                start = ready
        end = start + specs[task_id].processing_time
        if start == placement.start and end == placement.end:
            return None
        return Placement(task_id, resource_id, placement.agent_id, start, end)

    # With ``before`` still empty, ``pushed`` checks only the DAG edges and
    # the end; ``late`` holds the tasks a chain edge moves.
    seeds = [t for t in placements if t in late or pushed(t) is not None]
    del late
    if seeds:
        for chain in by_resource.values():
            before.update((b.task_id, a.task_id) for a, b in zip(chain, chain[1:]))
    del by_resource  # free the chains before the repair
    # Every predecessor is repaired before its successors, so ``placements``
    # is rewritten in place and each ``placements[pred]`` read is final.
    for task_id in _repair_order(seeds, specs, before):
        moved = pushed(task_id)
        if moved is not None:
            if moved.end == math.inf:
                raise overflow_error(task_id)
            placements[task_id] = moved

    ordered = list(placements.values())
    placements.clear()  # free the map before the sort's key list
    _by_start(ordered)
    makespan = max((p.end for p in ordered), default=0.0)
    violations = sorted(
        p.task_id
        for p in ordered
        if specs[p.task_id].deadline_time is not None
        and p.end > specs[p.task_id].deadline_time
    )
    return FinalSchedule(tuple(ordered), makespan, tuple(violations))


def _by_start(placements: list[Placement]) -> None:
    """Sort ``placements`` in place by start, ties by task id.

    Two stable sorts give that order without a key tuple per placement.
    Starts are never NaN, so they compare totally.
    """
    placements.sort(key=attrgetter("task_id"))
    placements.sort(key=attrgetter("start"))


def _repair_order(
    seeds: list[str], specs: dict[str, TaskSpec], before: dict[str, str]
) -> list[str]:
    """The tasks that ``seeds`` reach through DAG and resource-chain edges,
    seeds included, in an order that puts every predecessor first.

    Raises :class:`StructuralError` when they close a cycle. The maps built
    here die on return, before the repair builds any placement.
    """
    if not seeds:
        return []
    succs: dict[str, list[str]] = defaultdict(list)
    for task_id, spec in specs.items():
        for dep in spec.dependencies:
            succs[dep.task_id].append(task_id)
    for task_id, prior in before.items():
        succs[prior].append(task_id)
    indegree = dict.fromkeys(seeds, 0)  # the region, counting its own edges
    stack = list(seeds)
    while stack:
        for s in succs.get(stack.pop(), ()):
            if s not in indegree:
                indegree[s] = 0
                stack.append(s)
    for task_id in indegree:
        for s in succs.get(task_id, ()):
            indegree[s] += 1
    order = ready_order(indegree, succs)
    if len(order) != len(indegree):
        raise StructuralError("repair pass found circular constraints")
    return order


class OrchestrationResult:
    """Everything one run produces: schedule, assignment, graphs, message log."""

    def __init__(
        self,
        schedule: FinalSchedule,
        assignment: Assignment,
        cluster_dag: ClusterDag,
        dag: TaskDag,
        log: MessageLog,
    ) -> None:
        self.schedule = schedule
        self.assignment = assignment
        self.cluster_dag = cluster_dag
        self.dag = dag
        self.log = log


class Broker:
    """Runs the full pipeline over the logged in-process message channel."""

    def orchestrate(
        self,
        tasks: Sequence[TaskSpec],
        resources: Sequence[ResourceSpec],
        agents: Sequence[AgentSpec],
    ) -> OrchestrationResult:
        """Cluster, distribute, schedule, delay, and assemble the task set."""
        validate_agent_map(list(agents), list(resources))
        log = MessageLog()  # one per run, so a reused broker starts clean
        log.record(Message(MessageKind.SUBMIT_TASKS, USER, BROKER, len(tasks)))
        dag = build_dag(tasks)
        hosts = host_masks(dag, resources, agents)
        cluster_dag = cluster_tasks(dag, len(agents), hosts)
        assignment = distribute(cluster_dag, agents, hosts)
        del hosts  # an entry per task, freed before the repair pass's peak

        actors = {a.agent_id: AgentActor(a, resources, dag) for a in agents}

        # Phase 2: every cluster is scheduled locally, inter-cluster edges
        # ignored; agents start from time 0 on their own timelines.
        placed: dict[str, Placement] = {}  # the one placement store
        _exchange(log, actors, assignment, MessageKind.ASSIGN_CLUSTER, {
            cid: cluster_dag.by_id[cid] for cid in assignment.cluster_to_agent
        }, placed)

        # Phase 3: sweep the cluster levels; the first level stands as-is,
        # deeper clusters get readiness reports and shift rigidly.
        for level in cluster_dag.levels()[1:]:
            reports = {
                c.cluster_id: _readiness_entries(c, dag, cluster_dag, placed)
                for c in level
            }
            _exchange(
                log, actors, assignment, MessageKind.DEPENDENCY_INFO, reports, placed
            )

        del actors  # free the agents' timelines before the repair pass's peak
        schedule = assemble_and_repair(placed, dag)
        log.record(Message(MessageKind.SCHEDULE_RESULT, BROKER, USER, schedule))
        return OrchestrationResult(schedule, assignment, cluster_dag, dag, log)


def _exchange(
    log: MessageLog,
    actors: dict[str, AgentActor],
    assignment: Assignment,
    kind: MessageKind,
    payloads: dict[str, object],
    placed: dict[str, Placement],
) -> None:
    """Send one ``kind`` request per cluster to the cluster's agent in
    ``assignment`` and put the replies' placements into ``placed``.

    ``payloads`` maps cluster ids to request payloads, in request order. The
    log records the requests, then the replies in request order, and
    ``placed`` takes each reply's placements in that order: a new task goes
    to the end of the map, a placed one keeps its position. Agents answer
    in ascending agent-id order, each taking its requests in the order
    given.
    """
    requests = [
        Message(kind, BROKER, assignment.cluster_to_agent[cid], payload, cluster_id=cid)
        for cid, payload in payloads.items()
    ]
    for request in requests:
        log.record(request)
    replies = {
        r.cluster_id: actors[r.receiver].handle(r)
        for r in sorted(requests, key=lambda r: r.receiver)
    }
    for request in requests:
        reply = replies[request.cluster_id]
        log.record(reply)
        placed.update(reply.payload.placements)


def _readiness_entries(
    cluster: Cluster,
    dag: TaskDag,
    cluster_dag: ClusterDag,
    placed: dict[str, Placement],
) -> ReadinessReport:
    """One (taskId, readyTime) entry per incoming cross-cluster edge.

    Entries follow the cluster's tasks in ascending id, and each task's
    edges in declaration order. readyTime is the predecessor's release time
    (``graph.release``) against the resource ``placed``, the broker's
    placement store, gives the task; predecessors sit in earlier levels, so
    their placements there are final.
    """
    task_ids: list[str] = []
    ready_times = array("d")
    for task_id in cluster.tasks:
        resource_id = placed[task_id].resource_id
        for dep in dag.tasks[task_id].dependencies:
            if cluster_dag.cluster_of[dep.task_id] != cluster.cluster_id:
                task_ids.append(task_id)
                ready_times.append(
                    release(placed[dep.task_id], dep.comm_time, resource_id)
                )
    return ReadinessReport(tuple(task_ids), ready_times)


def orchestrate(
    tasks: Sequence[TaskSpec],
    resources: Sequence[ResourceSpec],
    agents: Sequence[AgentSpec],
) -> OrchestrationResult:
    """Convenience wrapper: run one broker over the given inputs."""
    return Broker().orchestrate(tasks, resources, agents)
