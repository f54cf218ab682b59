"""Task DAG construction, cycle detection, and level decomposition."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import NoReturn, TypeVar

from .errors import CycleError, StructuralError, UnknownReferenceError, ValidationError
from .model import Placement, TaskSpec

T = TypeVar("T")


class TaskDag:
    """Directed acyclic graph over tasks.

    Node cost is the task's processing time. Edges live only in the specs:
    each spec's ``dependencies`` names the task's predecessors with their
    communication times, the one copy of every edge, and every phase visits
    them in declaration order.
    """

    def __init__(self, tasks: dict[str, TaskSpec]) -> None:
        self.tasks = tasks

    def restrict(self, subset: Iterable[str]) -> "TaskDag":
        """Sub-DAG over ``subset``: only tasks and edges inside the subset.

        Task specs are rewritten so their dependency lists mention only
        in-subset predecessors, keeping the fragment self-consistent.
        """
        keep = set(subset)
        unknown = sorted(t for t in keep if t not in self.tasks)
        if unknown:
            raise ValidationError("subset contains unknown tasks: " + ", ".join(unknown))
        # Specs are frozen, so one that keeps all its dependencies is shared.
        tasks: dict[str, TaskSpec] = {}
        for t, spec in self.tasks.items():
            if t not in keep:
                continue
            deps = tuple(d for d in spec.dependencies if d.task_id in keep)
            if len(deps) != len(spec.dependencies):
                spec = spec._replace(dependencies=deps)
            tasks[t] = spec
        return TaskDag(tasks)


def release(prior: Placement, comm_time: float, resource_id: str) -> float:
    """Earliest start on ``resource_id`` after ``prior`` along an edge.

    That is ``prior``'s end, plus the edge's ``comm_time`` unless both run
    on the same resource.
    """
    if prior.resource_id == resource_id:
        return prior.end
    return prior.end + comm_time


def build_dag(tasks: Sequence[TaskSpec]) -> TaskDag:
    """Build the task DAG from a task set, resolving declared dependencies.

    Raises :class:`UnknownReferenceError` for a dependency on an id absent
    from the set, :class:`StructuralError` for duplicate ids or a duplicated
    edge, and :class:`CycleError` (with a witness) when the result would not
    be acyclic.
    """
    by_id: dict[str, TaskSpec] = {}
    for task in tasks:
        if task.task_id in by_id:
            raise StructuralError(f"duplicate taskId {task.task_id!r}")
        by_id[task.task_id] = task
    succs: dict[str, list[str]] = defaultdict(list)
    for task in tasks:
        seen: set[str] = set()
        for dep in task.dependencies:
            if dep.task_id not in by_id:
                raise UnknownReferenceError(task.task_id, dep.task_id)
            if dep.task_id in seen:
                raise StructuralError(
                    f"task {task.task_id!r} depends on {dep.task_id!r} twice"
                )
            seen.add(dep.task_id)
            succs[dep.task_id].append(task.task_id)
    indegree = {t: len(spec.dependencies) for t, spec in by_id.items()}
    if len(ready_order(indegree, succs)) != len(by_id):
        leftover = {
            t: [d.task_id for d in by_id[t].dependencies]
            for t, deg in indegree.items() if deg
        }
        _raise_cycle(set(leftover), leftover.__getitem__)
    return TaskDag(by_id)


def ready_order(indegree: dict[T, int], succs: Mapping[T, Sequence[T]]) -> list[T]:
    """Kahn's algorithm without a heap: nodes in the order they become ready.

    ``indegree`` counts each node's predecessors and is used up: a node left
    with a nonzero count never became ready. ``succs`` lists a node's
    successors once per edge, so a predecessor listed twice is released
    twice; a node without successors may be missing. Nodes on or behind a
    cycle never become ready, so on a cyclic graph the result is shorter
    than ``indegree``.
    """
    order = [node for node, deg in indegree.items() if not deg]
    for node in order:  # the list grows as nodes become ready
        for s in succs.get(node, ()):
            indegree[s] -= 1
            if not indegree[s]:
                order.append(s)
    return order


def _raise_cycle(
    leftover: set[T], preds_of: Callable[[T], Iterable[T]]
) -> NoReturn:
    """Raise :class:`CycleError` with a cycle among the ``leftover`` nodes.

    ``leftover`` is what a Kahn sweep leaves over: the nodes on or behind a
    cycle, the same whatever order the sweep takes. Each has a leftover
    predecessor, so stepping from the least leftover node to its least
    leftover predecessor must revisit a node. The witness starts there and
    walks the steps back, which is the cycle in edge direction. A self-loop
    yields a length-1 cycle.
    """
    path: list[T] = []
    position: dict[T, int] = {}
    node = min(leftover)
    while node not in position:
        position[node] = len(path)
        path.append(node)
        node = min(p for p in preds_of(node) if p in leftover)
    raise CycleError([node, *reversed(path[position[node] + 1:])])


def level_sweep(
    indegree: dict[T, int],
    succs: Mapping[T, Sequence[T]],
    preds_of: Callable[[T], Iterable[T]],
    key=None,
) -> list[list[T]]:
    """Dependency levels by a level-synchronous Kahn sweep.

    ``indegree`` counts each node's predecessors among its keys and is used
    up; ``succs`` lists successors once per edge. Each ready frontier is one
    level, sorted by ``key``; the first follows the order of ``indegree``. A
    cycle raises :class:`CycleError` with a witness read from ``preds_of``,
    which is called only then.
    """
    blocks: list[list[T]] = []
    frontier = [n for n, deg in indegree.items() if deg == 0]
    while frontier:
        frontier.sort(key=key)
        blocks.append(frontier)
        released: list[T] = []
        for node in frontier:
            for s in succs.get(node, ()):
                indegree[s] -= 1
                if indegree[s] == 0:
                    released.append(s)
        frontier = released
    if sum(map(len, blocks)) != len(indegree):
        _raise_cycle({n for n, deg in indegree.items() if deg}, preds_of)
    return blocks

