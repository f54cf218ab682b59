"""Phase 1: partition the task DAG into size-bounded clusters.

Clusters start out as singletons and grow by absorbing clusters that depend
on them, as long as the merged size stays within the per-agent quota and the
quotient graph stays acyclic. Crossing communication costs are summed on the
quotient edges.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from .errors import StructuralError, ValidationError
from .graph import TaskDag, level_sweep, topological_sweep
from .model import Record, _set

# A part's neighbour slots: the list it was built with (the shared empty
# tuple when it has none) until its first merge, a set from then on.
Adjacency = list[int] | tuple[()] | set[int]

__all__ = [
    "Cluster",
    "ClusterDag",
    "max_cluster_size",
    "cluster_tasks",
    "assignment_dump",
]


class Cluster(Record):
    """A named, nonempty set of tasks, stored in ascending task-id order."""

    __slots__ = ("cluster_id", "tasks")

    def __init__(self, cluster_id: str, tasks: tuple[str, ...]) -> None:
        if not tasks:
            raise StructuralError(f"cluster {cluster_id!r} is empty")
        _set(self, "cluster_id", cluster_id)
        _set(self, "tasks", tasks)

    @property
    def min_task(self) -> str:
        return self.tasks[0]


class ClusterDag:
    """Quotient DAG: clusters as nodes, summed crossing costs as edge weights."""

    def __init__(
        self, clusters: list[Cluster], edges: dict[tuple[str, str], float]
    ) -> None:
        self.clusters = clusters
        self.edges = edges
        self.by_id: dict[str, Cluster] = {c.cluster_id: c for c in self.clusters}
        self.cluster_of: dict[str, str] = {
            t: c.cluster_id for c in self.clusters for t in c.tasks
        }
        # In edge order, which neither ``levels`` nor ``topological_order`` observes.
        self.preds: dict[str, list[str]] = {c.cluster_id: [] for c in self.clusters}
        for a, b in self.edges:
            self.preds[b].append(a)

    def levels(self) -> list[list[Cluster]]:
        """Dependency levels of the quotient graph, each sorted by min task id."""
        indegree = {cid: len(ps) for cid, ps in self.preds.items()}
        succs: dict[str, list[str]] = {}
        for a, b in self.edges:
            succs.setdefault(a, []).append(b)
        blocks = level_sweep(
            indegree, succs, self.preds.__getitem__,
            key=lambda cid: self.by_id[cid].min_task,
        )
        return [[self.by_id[cid] for cid in block] for block in blocks]

    def topological_order(self) -> list[Cluster]:
        """Topological order; among ready clusters the least min task id goes first."""
        # Swept by min task id, which names each cluster uniquely.
        by_min = {c.min_task: c for c in self.clusters}
        order = topological_sweep({
            c.min_task: [self.by_id[p].min_task for p in self.preds[c.cluster_id]]
            for c in self.clusters
        })
        if len(order) != len(self.clusters):
            raise StructuralError("cluster graph is not acyclic")
        return [by_min[t] for t in order]


def max_cluster_size(num_tasks: int, num_agents: int) -> int:
    """Per-cluster task quota: number_of_tasks // number_of_agents + 1."""
    return num_tasks // num_agents + 1


def assignment_dump(cluster_dag: ClusterDag) -> str:
    """Debug listing: one ``taskId -> clusterId`` line per task, ascending."""
    lines = [
        f"{task_id} -> {cluster_dag.cluster_of[task_id]}"
        for task_id in sorted(cluster_dag.cluster_of)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _collapse(dag: TaskDag, parts: Iterable[Iterable[str]]) -> ClusterDag:
    """Collapse parts that partition the tasks into a cluster DAG.

    Crossing edge costs are summed per ordered cluster pair; self-edges are
    never emitted. Clusters are named C1, C2, ... in ascending order of their
    smallest task id. The parts are not checked.
    """
    clusters = [
        Cluster(f"C{i}", tasks)
        for i, tasks in enumerate(sorted(tuple(sorted(p)) for p in parts), start=1)
    ]
    owner = {t: c.cluster_id for c in clusters for t in c.tasks}
    edges: dict[tuple[str, str], float] = {}
    for succ, spec in dag.tasks.items():
        b = owner[succ]
        for dep in spec.dependencies:
            a = owner[dep.task_id]
            if a != b:
                edges[(a, b)] = edges.get((a, b), 0.0) + dep.comm_time
    return ClusterDag(clusters, edges)


def cluster_tasks(dag: TaskDag, num_agents: int, hosts: dict[str, int]) -> ClusterDag:
    """Greedily merge dependent tasks into clusters bounded by the quota.

    ``hosts`` maps each task to the int bitmask of the agents that can host
    it (``broker.host_masks``); a part's mask is the AND of its tasks'. The
    current cluster is always the unfinished one holding the smallest task
    id. It repeatedly absorbs a cluster that depends on it — preferring the
    candidate with the least contained task id — whenever the merged size
    fits the quota, the two masks meet and the quotient graph stays acyclic;
    when no candidate qualifies the cluster is final. So every cluster has a
    host. Absorbing a dependent ``D`` of the current cluster ``C`` closes a
    cycle exactly when another path ``C ~> D`` exists, that is when a
    predecessor of ``D`` descends from ``C``. So each cluster makes one
    reachability search, level by level, for the strict descendants of
    ``C`` when it becomes current; a merge only removes ``D`` from that set,
    since ``D``'s own descendants are already in it and no path can lead
    back into ``C ∪ D``. The children of ``C`` whose predecessors miss that
    set are ready and wait in a queue keyed by least task id; the others are
    blocked. Only a merge of ``D`` can unblock a child, and only one of
    ``D``'s successors, so after each merge only those are tested, again or
    for the first time. A ready child too large for the room left, or whose
    mask misses the current part's, is dropped for good, since the room and
    the mask only shrink. Merges are union by size: only the neighbours of
    the part with fewer adjacency entries are relinked, and the smaller
    member list is appended to the larger, so a merge costs what the smaller
    side holds. The procedure is fully deterministic.

    Parts are int slots, one per task to begin with. A part keeps the lists
    of predecessor and successor slots it is built with until it first
    merges; only a merged part holds them as sets, and a part merged away
    holds neither. So at most one slot per cluster holds sets, and every
    other slot a list, which costs a fraction of a set; a task with no
    predecessors or no successors shares the empty tuple instead. Each slot
    keeps its size, its least task id and its mask, and only a merged part
    keeps a member list: an unmerged slot holds just its own task, its least id.
    The slot numbers are the int objects of the task-to-slot map, shared by
    every list that names a slot; the map itself is dropped once the lists
    are built, and the lists before the cluster DAG is built.
    """
    if num_agents < 1:
        raise ValidationError(f"num_agents must be >= 1, got {num_agents}")
    low: list[str] = list(dag.tasks)  # least task id per part
    if not low:
        return ClusterDag([], {})
    limit = max_cluster_size(len(low), num_agents)
    mask = [hosts[t] for t in low]

    index_of = {t: i for i, t in enumerate(low)}
    preds: list[Adjacency] = [
        [index_of[d.task_id] for d in spec.dependencies] or ()
        for spec in dag.tasks.values()
    ]
    slots = list(index_of.values())
    del index_of
    succs: list[Adjacency] = [()] * len(slots)
    for i, ps in zip(slots, preds):
        for p in ps:
            if succs[p]:
                succs[p].append(i)
            else:
                succs[p] = [i]
    # By task id, before any merge changes ``low``.
    slots.sort(key=low.__getitem__)
    size = [1] * len(slots)
    members: dict[int, list[str]] = {}  # of the parts that have merged

    # Only the current part merges, so an unfinished part has never merged:
    # it is still the singleton {task i} in slot i, and every task before i
    # in sorted order sits in a finished part, so it is the unfinished part
    # with the least ``low``. A finished part in a slot the pass has yet to
    # reach absorbed at least one other part, so it holds two or more tasks.
    for first in slots:
        if size[first] != 1:
            continue
        current = first
        below = _descendants(current, succs)
        # A child is ready while its preds miss ``below``: contracting C -> D
        # closes a cycle iff a predecessor of D lies in ``below``, the strict
        # descendants of C (C itself never does). Merges only shrink
        # ``below`` and relink preds to the merged part, never in ``below``,
        # so a ready child stays ready and only a successor of the absorbed
        # part can turn ready: those not yet queued are tested, again if
        # blocked before and for the first time if new. They are tested
        # before the merge: ``chosen`` has left ``below`` by then, and the
        # merge only relinks it to the merged part, which is not in it either.
        ready: list[tuple[str, int]] = []
        queued: set[int] = set()
        chosen = current  # the first pass tests the children of ``current``
        while True:
            for d in succs[chosen]:
                if d not in queued and below.isdisjoint(preds[d]):
                    heapq.heappush(ready, (low[d], d))
                    queued.add(d)
            if chosen != current:
                common = mask[current] & mask[chosen]
                current = _merge_parts(
                    current, chosen, members, size, low, succs, preds
                )
                mask[current] = common
            chosen = _next_candidate(current, size, mask, ready, limit)
            if chosen is None:
                break
            # The merged part may keep ``chosen``'s slot; either way that
            # slot is no longer a strict descendant of the current part.
            below.discard(chosen)

    del preds, succs
    return _collapse(dag, (
        members.get(i) or (low[i],) for i, n in enumerate(size) if n
    ))


def _descendants(source: int, succs: list[Adjacency]) -> set[int]:
    """Every part reachable from ``source`` by a path of one or more edges."""
    below = set(succs[source])
    frontier = below
    while frontier:
        frontier = set().union(*[succs[x] for x in frontier]) - below
        below |= frontier
    return below


def _next_candidate(
    current: int,
    size: list[int],
    mask: list[int],
    ready: list[tuple[str, int]],
    limit: int,
) -> int | None:
    """Pop the ready child with the least ``low`` that fits the quota and
    shares a host with the current part, if any.

    A popped child that does not is dropped: the room left and the current
    part's mask only shrink.
    """
    room, common = limit - size[current], mask[current]
    while ready:
        d = heapq.heappop(ready)[1]
        if size[d] <= room and mask[d] & common:
            return d
    return None


def _merge_parts(
    current: int,
    other: int,
    members: dict[int, list[str]],
    size: list[int],
    low: list[str],
    succs: list[Adjacency],
    preds: list[Adjacency],
) -> int:
    """Merge two adjacent parts and return the index of the merged part.

    The part with more adjacency entries keeps its index, so only the other
    part's neighbours are relinked, and the smaller member list is appended
    to the larger one; a part that never merged lists just its least id.
    The merged part holds sets from then on; a neighbour that never merged
    keeps its list, where ``keep`` takes ``gone``'s place or, if already
    listed, ``gone`` is dropped.
    """
    keep, gone = current, other
    if len(succs[gone]) + len(preds[gone]) > len(succs[keep]) + len(preds[keep]):
        keep, gone = gone, keep
    big = members.pop(keep, None) or [low[keep]]
    small = members.pop(gone, None) or [low[gone]]
    if len(big) < len(small):
        big, small = small, big
    big += small
    members[keep] = big
    size[keep] = len(big)
    size[gone] = 0
    if low[gone] < low[keep]:
        low[keep] = low[gone]
    if type(succs[keep]) is not set:
        succs[keep] = set(succs[keep])
        preds[keep] = set(preds[keep])
    out, into = succs[keep], preds[keep]
    out.discard(gone)
    into.discard(gone)
    for s in succs[gone]:
        if s != keep:
            out.add(s)
            ps = preds[s]
            if type(ps) is set:
                ps.discard(gone)
                ps.add(keep)
            elif keep in ps:
                ps.remove(gone)
            else:
                ps[ps.index(gone)] = keep
    for p in preds[gone]:
        if p != keep:
            into.add(p)
            ss = succs[p]
            if type(ss) is set:
                ss.discard(gone)
                ss.add(keep)
            elif keep in ss:
                ss.remove(gone)
            else:
                ss[ss.index(gone)] = keep
    succs[gone] = preds[gone] = ()
    return keep
