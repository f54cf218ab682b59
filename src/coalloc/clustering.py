"""Phase 1: partition the task DAG into size-bounded clusters.

Clusters start out as singletons and grow by absorbing clusters that depend
on them, as long as the merged size stays within the per-agent quota and the
quotient graph stays acyclic. Crossing communication costs are summed on the
quotient edges.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Iterable
from .errors import StructuralError, ValidationError
from .graph import TaskDag, level_sweep
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
    """Quotient DAG: clusters as nodes, summed crossing costs as edge weights,
    and in ``hosts`` each cluster's host mask, the AND of its tasks' masks."""

    def __init__(
        self,
        clusters: list[Cluster],
        edges: dict[tuple[str, str], float],
        hosts: dict[str, int],
    ) -> None:
        self.clusters = clusters
        self.edges = edges
        self.hosts = hosts
        self.by_id: dict[str, Cluster] = {c.cluster_id: c for c in self.clusters}
        self.cluster_of: dict[str, str] = {
            t: c.cluster_id for c in self.clusters for t in c.tasks
        }

    def _adjacency(self) -> tuple[dict[str, int], dict[str, list[str]]]:
        """In-degrees and successor lists, read from ``edges`` in its order."""
        indegree = dict.fromkeys(self.by_id, 0)
        succs: dict[str, list[str]] = {}
        for a, b in self.edges:
            indegree[b] += 1
            succs.setdefault(a, []).append(b)
        return indegree, succs

    def levels(self) -> list[list[Cluster]]:
        """Dependency levels of the quotient graph, each sorted by min task id."""
        blocks = level_sweep(
            *self._adjacency(),
            lambda cid: [a for a, b in self.edges if b == cid],  # on a cycle only
            key=lambda cid: self.by_id[cid].min_task,
        )
        return [[self.by_id[cid] for cid in block] for block in blocks]

    def topological_order(self) -> list[Cluster]:
        """Topological order; among ready clusters the least min task id goes first."""
        indegree, succs = self._adjacency()
        ready = [(self.by_id[cid].min_task, cid) for cid, n in indegree.items() if not n]
        heapq.heapify(ready)
        order: list[Cluster] = []
        while ready:
            cid = heapq.heappop(ready)[1]
            order.append(self.by_id[cid])
            for s in succs.get(cid, ()):
                indegree[s] -= 1
                if not indegree[s]:
                    heapq.heappush(ready, (self.by_id[s].min_task, s))
        if len(order) != len(self.clusters):
            raise StructuralError("cluster graph is not acyclic")
        return order


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


def _collapse(dag: TaskDag, parts: Iterable[tuple[Iterable[str], int]]) -> ClusterDag:
    """Collapse ``(tasks, mask)`` parts that partition the tasks into a
    cluster DAG, each mask becoming its cluster's host mask.

    Crossing edge costs are summed per ordered cluster pair, through the
    DAG's ``cluster_of``; self-edges are never emitted. Clusters are named
    C1, C2, ... in ascending order of their smallest task id. The parts are
    not checked.
    """
    ranked = sorted((tuple(sorted(tasks)), mask) for tasks, mask in parts)
    cdag = ClusterDag(
        [Cluster(f"C{i}", tasks) for i, (tasks, _) in enumerate(ranked, start=1)],
        {}, {f"C{i}": mask for i, (_, mask) in enumerate(ranked, start=1)},
    )
    owner, edges = cdag.cluster_of, cdag.edges
    for succ, spec in dag.tasks.items():
        b = owner[succ]
        for dep in spec.dependencies:
            a = owner[dep.task_id]
            if a != b:
                edges[(a, b)] = edges.get((a, b), 0.0) + dep.comm_time
    return cdag


def cluster_tasks(dag: TaskDag, num_agents: int, hosts: dict[str, int]) -> ClusterDag:
    """Greedily merge dependent tasks into clusters bounded by the quota.

    ``hosts`` maps each task to the int bitmask of the agents that can host
    it (``broker.host_masks``); a part's mask is the AND of its tasks', and
    each cluster keeps its mask in the cluster DAG's ``hosts``. The
    current cluster is always the unfinished one holding the smallest task
    id. It repeatedly absorbs a cluster that depends on it — preferring the
    candidate with the least contained task id — whenever the merged size
    fits the quota, the two masks meet and the quotient graph stays acyclic;
    when no candidate qualifies the cluster is final. So every cluster has a
    host. Absorbing a dependent ``D`` of the current cluster ``C`` closes a
    cycle exactly when another path ``C ~> D`` exists, that is when a
    predecessor of ``D`` descends from ``C``. So each part keeps a support
    count: the number of its predecessor parts that are ``C`` or descend
    from ``C``, which is positive exactly while the part descends from
    ``C``. A child of ``C`` counts ``C`` once, so it is ready exactly when
    its count is 1. When a new part becomes current, its support is added
    and then the last current part's withdrawn, each cascading only through
    the parts whose count crosses between 0 and 1; consecutive current parts
    share most of their descendants, which stay positive throughout, where
    withdrawing first would flip them all out and back in. Merging ``D``
    into ``C`` only removes ``D`` from the descendants, since ``D``'s own
    descendants stay below ``C`` and no path can lead back into ``C ∪ D``;
    a successor of both ``C`` and ``D`` loses one count, as the two become
    one predecessor, and the merged part's count is 0. The ready children
    wait in a queue keyed by least task id; the others are blocked. Only a
    merge of ``D`` can unblock a child, and only one of ``D``'s successors,
    so after each merge only those are tested; a ready child is never among
    them, as it has no predecessor below ``C``. A ready child too large for
    the room left, or whose mask misses the current part's, is dropped for
    good, since the room and the mask only shrink. Merges are union by size:
    only the neighbours of the part with fewer adjacency entries are
    relinked, and the smaller member list is appended to the larger, so a
    merge costs what the smaller side holds. The procedure is fully
    deterministic.

    Parts are int slots, one per task to begin with. A part keeps the lists
    of predecessor and successor slots it is built with until it first
    merges; only a merged part holds them as sets, and a part merged away
    holds neither. So at most one slot per cluster holds sets, and every
    other slot a list, which costs a fraction of a set; a task with no
    predecessors or no successors shares the empty tuple instead. Each slot
    keeps its size, its support count, its least task id and its mask, and
    only a merged part keeps a member list: an unmerged slot holds just its
    own task, its least id. The sizes and the slots in task-id order are
    int arrays; the counts, updated far more often, are a list, which reads
    and writes faster. The slot numbers in the lists are the int objects of
    the task-to-slot map, shared by every list that names a slot; the map
    itself is dropped once the lists are built, and the lists before the
    cluster DAG is built.
    """
    if num_agents < 1:
        raise ValidationError(f"num_agents must be >= 1, got {num_agents}")
    low: list[str] = list(dag.tasks)  # least task id per part
    if not low:
        return ClusterDag([], {}, {})
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
    slots = array("i", slots)
    size = array("i", [1]) * len(slots)
    members: dict[int, list[str]] = {}  # of the parts that have merged
    count = [0] * len(slots)  # support counts, see above
    current = None

    # Only the current part merges, so an unfinished part has never merged:
    # it is still the singleton {task i} in slot i, and every task before i
    # in sorted order sits in a finished part, so it is the unfinished part
    # with the least ``low``. A finished part in a slot the pass has yet to
    # reach absorbed at least one other part, so it holds two or more tasks.
    for first in slots:
        if size[first] != 1:
            continue
        _support(first, succs, count, 1)
        if current is not None:
            _support(current, succs, count, -1)
        current = first
        # A child is ready while its count is 1, ``current`` alone: another
        # predecessor that descends from ``current`` closes a cycle. Merges
        # only remove ``chosen`` from the descendants and relink preds to the
        # merged part, so a ready child stays ready and only a successor of
        # ``chosen`` can turn ready. Those are tested once their counts are
        # the merged part's: again if blocked before, for the first time if
        # new, and never if ready, as ``chosen`` descends from ``current``.
        ready: list[tuple[str, int]] = []
        chosen = current  # the first pass tests the children of ``current``
        while True:
            merging = chosen != current
            for d in succs[chosen]:
                if merging and current in preds[d]:
                    count[d] -= 1  # ``current`` and ``chosen`` become one pred
                if count[d] == 1:
                    heapq.heappush(ready, (low[d], d))
            if merging:
                common = mask[current] & mask[chosen]
                count[chosen] = 0
                current = _merge_parts(
                    current, chosen, members, size, low, succs, preds
                )
                mask[current] = common
            chosen = _next_candidate(current, size, mask, ready, limit)
            if chosen is None:
                break

    del preds, succs, count
    return _collapse(dag, (
        (members.get(i) or (low[i],), mask[i]) for i, n in enumerate(size) if n
    ))


def _support(source: int, succs: list[Adjacency], count: list[int], step: int) -> None:
    """Add (``step`` 1) or withdraw (-1) ``source``'s support of its
    successors, cascading through every part whose count crosses between 0
    and 1, so that a part is supported while its count is positive."""
    crossed = 1 if step > 0 else 0
    stack = [source]
    while stack:
        for s in succs[stack.pop()]:
            count[s] += step
            if count[s] == crossed:
                stack.append(s)


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
