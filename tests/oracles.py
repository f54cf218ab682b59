"""Independent reference implementations used as test oracles.

Nothing here calls into the scheduler's own algorithms: acyclicity is
re-decided by recursive DFS coloring, reachability by boolean matrix
squaring, earliest fits by brute-force candidate enumeration, the
selection rule by replaying every decision against a rebuilt timeline model,
phase 2 itself by that rule with brute-force fits and peeled blocks,
phase-1 clustering by a greedy that runs one DFS per merge candidate, the
descendants of a part by a DFS over a quotient rebuilt from the task edges,
topological order by rescanning for the least ready node, dependency
levels by relaxing along that order, resource overlaps by a full
pairwise scan, the XML readers by building the whole element tree with
ElementTree and walking it with the package's former walkers, phase 3 by
shifting clusters from the logged phase-2 placements, the repair pass by
iterating the release rule to a fixpoint, the float contract by
exact rational arithmetic, and the validator by its former implementation,
which sorted every task id and every row.
Only ``quotient``, which checks a hand-written partition before the
engine collapses it, imports ``coalloc.clustering``; the clusters it
makes have host mask -1, every agent.
"""

from __future__ import annotations

import math
from fractions import Fraction


def coloring_is_acyclic(adjacency: dict) -> bool:
    """Three-color recursive DFS cycle check."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in adjacency}

    def visit(node) -> bool:  # True when a cycle is reachable
        color[node] = GRAY
        for nxt in adjacency.get(node, ()):
            state = color.get(nxt, WHITE)
            if state == GRAY:
                return True
            if state == WHITE and visit(nxt):
                return True
        color[node] = BLACK
        return False

    return not any(visit(n) for n in adjacency if color[n] == WHITE)


def successor_lists(edges) -> dict:
    """Adjacency of ``(source, target)`` pairs: source -> list of targets."""
    adjacency: dict = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    return adjacency


def edge_costs(dag) -> dict:
    """``(pred, succ) -> commTime`` for every dependency the task specs declare,
    in task order and then declaration order."""
    return {
        (dep.task_id, succ): dep.comm_time
        for succ, spec in dag.tasks.items()
        for dep in spec.dependencies
    }


def pred_ids(dag) -> dict:
    """Each task's predecessor ids, in declaration order, read from the task
    specs: ``task_id -> [pred, ...]`` for every task."""
    return {
        t: [dep.task_id for dep in spec.dependencies]
        for t, spec in dag.tasks.items()
    }


def quotient(dag, partition: list[set[str]]):
    """The engine's cluster DAG over ``partition``, once it is checked to
    partition the tasks of ``dag``: no empty, overlapping or unknown part,
    and no task left out, each raising ``StructuralError``. Every cluster
    gets host mask -1, meaning every agent hosts it."""
    from coalloc import StructuralError
    from coalloc.clustering import _collapse

    known = set(dag.tasks)
    seen: set[str] = set()
    for group in partition:
        if not group:
            raise StructuralError("partition contains an empty cluster")
        overlap = group & seen
        if overlap:
            raise StructuralError(
                "partition overlaps on tasks: " + ", ".join(sorted(overlap))
            )
        unknown = group - known
        if unknown:
            raise StructuralError(
                "partition names unknown tasks: " + ", ".join(sorted(unknown))
            )
        seen |= group
    uncovered = known - seen
    if uncovered:
        raise StructuralError(
            "partition misses tasks: " + ", ".join(sorted(uncovered))
        )
    return _collapse(dag, [(group, -1) for group in partition])


def closure_by_squaring(nodes: list, pairs: set) -> dict:
    """Transitive closure (paths of length >= 1) via repeated squaring."""
    index = {n: i for i, n in enumerate(nodes)}
    size = len(nodes)
    reach = [[False] * size for _ in range(size)]
    for a, b in pairs:
        reach[index[a]][index[b]] = True
    while True:
        squared = [row[:] for row in reach]  # R | R.R, from a frozen snapshot
        changed = False
        for i in range(size):
            for k in range(size):
                if reach[i][k]:
                    for j in range(size):
                        if reach[k][j] and not squared[i][j]:
                            squared[i][j] = True
                            changed = True
        reach = squared
        if not changed:
            break
    return {
        a: {b for b in nodes if reach[index[a]][index[b]]} for a in nodes
    }


def greedy_clustering(
    dag, num_agents: int, hosts: dict, finished: list | None = None
):
    """Phase-1 clustering with one DFS cycle test per merge candidate.

    A part is keyed by its least task id, and its host mask is the AND of
    its tasks' ``hosts``. The unfinished part with the least key absorbs,
    while the quota allows, the successor part with the least key whose host
    mask meets its own and whose merge keeps the quotient acyclic. Returns
    the clusters as ascending task tuples ordered by least task id, and the
    quotient edges with summed crossing costs, named C1, C2, ... in that
    order. A given
    ``finished`` list receives the ascending task tuple of each part as it
    finishes, in order.
    """
    quota = len(dag.tasks) // num_agents + 1
    owner = {t: t for t in dag.tasks}

    def quotient_succs() -> dict:
        out = {part: set() for part in owner.values()}
        for a, b in edge_costs(dag):
            if owner[a] != owner[b]:
                out[owner[a]].add(owner[b])
        return out

    def size(part) -> int:
        return sum(1 for p in owner.values() if p == part)

    def mask(part) -> int:
        common = -1
        for t, p in owner.items():
            if p == part:
                common &= hosts[t]
        return common

    def reaches(succs: dict, sources: set, target) -> bool:
        stack, seen = list(sources), set(sources)
        while stack:
            node = stack.pop()
            if node == target:
                return True
            for nxt in succs[node] - seen:
                seen.add(nxt)
                stack.append(nxt)
        return False

    done: set = set()
    while set(owner.values()) - done:
        current = min(set(owner.values()) - done)
        while True:
            succs = quotient_succs()
            for cand in sorted(succs[current]):
                if (
                    size(current) + size(cand) <= quota
                    and mask(current) & mask(cand)
                    and not reaches(succs, succs[current] - {cand}, cand)
                ):
                    break
            else:
                break
            merged = min(current, cand)
            for t, p in owner.items():
                if p in (current, cand):
                    owner[t] = merged
            done.discard(merged)
            current = merged
        done.add(current)
        if finished is not None:
            finished.append(tuple(sorted(t for t in owner if owner[t] == current)))

    keys = sorted(set(owner.values()))
    clusters = [tuple(sorted(t for t in owner if owner[t] == k)) for k in keys]
    name = {k: f"C{i}" for i, k in enumerate(keys, start=1)}
    edges: dict = {}
    for (a, b), cost in edge_costs(dag).items():
        pair = (name[owner[a]], name[owner[b]])
        if pair[0] != pair[1]:
            edges[pair] = edges.get(pair, 0.0) + cost
    return clusters, edges


def part_descendants(edges, parts: list, source: int) -> set:
    """Indices of the parts reachable from ``parts[source]`` by one or more
    quotient edges, the quotient rebuilt from the task ``edges`` and the
    member sets in ``parts`` (empty sets are no part)."""
    owner = {t: i for i, part in enumerate(parts) for t in part}
    succs: dict = {i: set() for i in owner.values()}
    for a, b in edges:
        if owner[a] != owner[b]:
            succs[owner[a]].add(owner[b])
    seen: set = set()

    def visit(node) -> None:
        for nxt in succs[node]:
            if nxt not in seen:
                seen.add(nxt)
                visit(nxt)

    visit(source)
    return seen


def brute_force_earliest(
    busy: list[tuple[float, float]], ready: float, duration: float
) -> float:
    """Earliest feasible start by trying ready and every reservation end."""
    if duration == 0:
        return ready
    candidates = sorted({ready, *(e for _, e in busy if e > ready)})
    for start in candidates:
        end = start + duration
        if all(not (start < e and s < end) for s, e in busy if e > s):
            return start
    raise AssertionError("unreachable: the last candidate always fits")


def peel_blocks(task_ids: set[str], preds: dict[str, list[str]]) -> list[list[str]]:
    """Level decomposition by repeatedly peeling dependency-free tasks."""
    remaining = set(task_ids)
    blocks: list[list[str]] = []
    while remaining:
        block = sorted(
            t
            for t in remaining
            if not any(p in remaining for p in preds.get(t, ()))
        )
        assert block, "cyclic input"
        blocks.append(block)
        remaining -= set(block)
    return blocks


def least_ready_order(nodes: list, edges: set, key) -> list:
    """Topological order that rescans for the least-``key`` node whose
    predecessors are all placed; stops short of any cycle."""
    remaining = set(nodes)
    order = []
    while remaining:
        ready = [
            n for n in remaining
            if not any(a in remaining for a, b in edges if b == n)
        ]
        if not ready:
            break
        node = min(ready, key=key)
        order.append(node)
        remaining.remove(node)
    return order


def relaxed_levels(nodes, preds: dict, key=None) -> list[list]:
    """Level decomposition by a topological sweep, then relaxing each node
    to 1 + the greatest level of its predecessors among ``nodes``.

    The sweep is ``least_ready_order``. On a cycle it raises ``CycleError``
    with the witness walk: from the least node the sweep leaves over, step
    to its least leftover predecessor until a node repeats; the loop, in
    edge direction, starts at the repeated node.
    """
    from coalloc import CycleError

    inside = set(nodes)
    preds_in = {n: [p for p in preds.get(n, ()) if p in inside] for n in inside}
    edges = {(p, n) for n in inside for p in preds_in[n]}
    order = least_ready_order(sorted(inside), edges, key=lambda n: n)
    if len(order) < len(inside):
        leftover = inside.difference(order)
        path = [min(leftover)]
        while path.count(path[-1]) == 1:
            path.append(min(p for p in preds_in[path[-1]] if p in leftover))
        start = path.index(path[-1])
        raise CycleError([path[-1], *reversed(path[start + 1:-1])])
    level: dict = {}
    for node in order:
        level[node] = 1 + max((level[p] for p in preds_in[node]), default=0)
    blocks: list[list] = [[] for _ in range(max(level.values(), default=0))]
    for node in order:
        blocks[level[node] - 1].append(node)
    return [sorted(block, key=key) for block in blocks]


def all_pairs_overlaps(placements) -> list[tuple[str, str, str]]:
    """Every overlapping pair of positive-length rows on one resource, by a
    full pairwise scan of closed-open intervals. Listed by resource, then by
    (start, taskId) of the earlier row, then of the later one."""
    rows = sorted(placements, key=lambda p: (p.resource_id, p.start, p.task_id))
    out = []
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            if (
                a.resource_id == b.resource_id
                and a.end > a.start
                and b.end > b.start
                and a.start < b.end
                and b.start < a.end
            ):
                out.append((a.resource_id, a.task_id, b.task_id))
    return out


def check_selection_rule(
    cluster_task_ids: tuple[str, ...],
    dag,
    resource_specs: list,
    initial_busy: dict[str, list[tuple[float, float]]],
    placements: dict,
) -> list[str]:
    """Replay every scheduling decision; report tasks whose placement is beatable.

    Rebuilds the timeline state the scheduler saw at each decision point from
    the placements of previously decided tasks, evaluates every eligible
    resource by brute force, and flags any task that did not get the global
    minimum earliest start.
    """
    inside = set(cluster_task_ids)
    costs = edge_costs(dag)
    preds = pred_ids(dag)
    busy = {r.resource_id: list(initial_busy.get(r.resource_id, []))
            for r in resource_specs}
    violations: list[str] = []
    for block in peel_blocks(inside, {t: preds[t] for t in inside}):
        for task_id in block:
            spec = dag.tasks[task_id]
            chosen = placements[task_id]
            starts: dict[str, float] = {}
            for resource in resource_specs:
                if resource.memory < spec.memory or resource.cpu_power < spec.cpu_power:
                    continue
                rid = resource.resource_id
                ready = 0.0
                for pred in preds[task_id]:
                    if pred not in inside:
                        continue
                    prior = placements[pred]
                    need = prior.end
                    if prior.resource_id != rid:
                        need += costs[(pred, task_id)]
                    ready = max(ready, need)
                starts[rid] = brute_force_earliest(
                    busy[rid], ready, spec.processing_time
                )
            if not starts:
                violations.append(f"{task_id}: no eligible resource")
                continue
            best = min(starts.values())
            if chosen.resource_id not in starts:
                violations.append(f"{task_id}: placed on ineligible resource")
            elif chosen.start != starts[chosen.resource_id]:
                violations.append(
                    f"{task_id}: start {chosen.start} != earliest fit "
                    f"{starts[chosen.resource_id]} on {chosen.resource_id}"
                )
            elif chosen.start != best:
                violations.append(
                    f"{task_id}: start {chosen.start} beatable at {best}"
                )
            if spec.processing_time > 0:
                busy[chosen.resource_id].append((chosen.start, chosen.end))
    return violations


def reference_schedule_cluster(
    task_ids, dag, resource_specs: list, busy: dict, agent_id: str
) -> dict:
    """Phase 2 of one cluster, by its rule written plainly.

    Blocks come from ``peel_blocks`` over the edges inside ``task_ids``,
    ascending id within a block. Each task may go to a resource whose memory
    and cpuPower are at least its own; its ready time there is the latest
    end of its placed in-cluster predecessors, plus the edge's commTime when
    the predecessor ran elsewhere, and its start is ``brute_force_earliest``
    over that resource's ``busy`` intervals. The least start wins, ties to
    the least resource id. ``busy`` maps every resource id to its booked
    intervals and gains each positive-length placement. Returns the
    placements in decision order; a task that no resource hosts raises
    ``InfeasibleTaskError`` naming it, after the tasks before it are booked.
    """
    from coalloc import InfeasibleTaskError, Placement

    inside = set(task_ids)
    preds = pred_ids(dag)
    placed: dict = {}
    for block in peel_blocks(inside, {t: preds[t] for t in inside}):
        for task_id in block:
            spec = dag.tasks[task_id]
            starts: dict = {}
            for resource in resource_specs:
                if resource.memory < spec.memory or resource.cpu_power < spec.cpu_power:
                    continue
                rid = resource.resource_id
                ready = 0.0
                for dep in spec.dependencies:
                    if dep.task_id in inside:
                        prior = placed[dep.task_id]
                        need = prior.end
                        if prior.resource_id != rid:
                            need += dep.comm_time
                        ready = max(ready, need)
                starts[rid] = brute_force_earliest(
                    busy[rid], ready, spec.processing_time
                )
            if not starts:
                raise InfeasibleTaskError(task_id, f"agent {agent_id} hosts it nowhere")
            rid = min(starts, key=lambda r: (starts[r], r))
            start, end = starts[rid], starts[rid] + spec.processing_time
            placed[task_id] = Placement(task_id, rid, agent_id, start, end)
            if end > start:
                busy[rid].append((start, end))
    return placed


def free_gaps(busy: list[tuple[float, float]]) -> tuple[list, list]:
    """The free stretches around the positive-length ``busy`` intervals, as
    parallel lists of starts and ends from ``-inf`` to ``inf``; touching
    intervals book one stretch, so no two stretches touch."""
    starts, ends = [-math.inf], []
    for s, e in sorted((s, e) for s, e in busy if e > s):
        if s > starts[-1]:
            ends.append(s)
            starts.append(e)
        else:  # touches the stretch booked so far
            starts[-1] = max(starts[-1], e)
    ends.append(math.inf)
    return starts, ends


def whole_tree_items(xml_text: str, kind: str) -> list:
    """``parse_task_file`` (kind ``"task"``) or ``parse_resource_file``
    (kind ``"Node"``) as one ``ET.fromstring`` followed by a walk over the
    root's children, raising the same errors and logging the same warnings.
    The walkers below share no code with the package's streaming reader.
    """
    import xml.etree.ElementTree as ET
    from xml.parsers.expat import ErrorString

    from coalloc import StructuralError, XmlFormatError

    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line, col = exc.position
        raise XmlFormatError(
            f"malformed XML at line {line}, column {col}: {ErrorString(exc.code)}"
        ) from None
    parse = _parse_task if kind == "task" else _parse_node
    items: list = []
    for child in root:
        if child.tag != kind:
            _warn_unknown(child.tag, f"<{root.tag}>")
            continue
        items.append(parse(child, len(items)))
    ids = [item.task_id if kind == "task" else item.resource_id for item in items]
    for i, item_id in enumerate(ids):
        if item_id in ids[:i]:
            what = "taskId" if kind == "task" else "resource Id"
            raise StructuralError(f"duplicate {what} {item_id!r}")
    return items


def _warn_unknown(tag: str, where: str) -> None:
    import logging

    logging.getLogger("coalloc.model").warning(
        "ignoring unknown element <%s> in %s", tag, where
    )


def _require_number(text, what: str) -> float:
    from coalloc import ValidationError

    if text is None or not text.strip():
        raise ValidationError(f"{what}: missing numeric value")
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValidationError(f"{what}: not a number: {text!r}")
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{what}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{what}: must be finite, got {text!r}")
    if value < 0:
        raise ValidationError(f"{what}: must be nonnegative, got {value}")
    return value


def _read_numbers(block, tags: tuple, where: str) -> dict:
    values: dict = {}
    for child in block:
        if child.tag in tags:
            values[child.tag] = _require_number(child.text, f"{where}: {child.tag}")
        else:
            _warn_unknown(child.tag, f"{where}/{block.tag}")
    return values


def _parse_dependency(elem, where: str):
    from coalloc import Dependency, ValidationError

    dep_id = None
    comm = None
    for child in elem:
        if child.tag == "taskId":
            dep_id = (child.text or "").strip()
        elif child.tag == "commTime":
            comm = _require_number(child.text, f"{where}: depends/commTime")
        else:
            _warn_unknown(child.tag, f"{where}/depends")
    if not dep_id:
        raise ValidationError(f"{where}: depends element lacks a taskId")
    if comm is None:
        raise ValidationError(f"{where}: depends element lacks a commTime")
    return Dependency(dep_id, comm)


def _parse_task(elem, index: int):
    from coalloc import TaskSpec, ValidationError

    where = f"task #{index + 1}"
    task_id = None
    processing = None
    requirements = None
    deps: list = []
    for child in elem:
        if child.tag == "taskId":
            task_id = (child.text or "").strip()
            where = f"task {task_id!r}" if task_id else where
        elif child.tag == "requirements":
            requirements = (requirements or {}) | _read_numbers(
                child, ("memory", "cpuPower", "deadlineTime"), where
            )
        elif child.tag == "processingTime":
            processing = _require_number(child.text, f"{where}: processingTime")
        elif child.tag == "depends":
            deps.append(_parse_dependency(child, where))
        else:
            _warn_unknown(child.tag, where)
    if not task_id:
        raise ValidationError(f"{where}: missing taskId")
    if processing is None:
        raise ValidationError(f"{where}: missing processingTime")
    if requirements is None:
        raise ValidationError(f"{where}: missing requirements")
    if "memory" not in requirements:
        raise ValidationError(f"{where}: requirements lack memory")
    if "cpuPower" not in requirements:
        raise ValidationError(f"{where}: requirements lack cpuPower")
    return TaskSpec(
        task_id=task_id,
        processing_time=processing,
        memory=requirements["memory"],
        cpu_power=requirements["cpuPower"],
        deadline_time=requirements.get("deadlineTime"),
        dependencies=tuple(deps),
    )


_NODE_PARAMETERS = ("CPUPower", "Memory", "CPU_idle")


def _parse_node(elem, index: int):
    from coalloc import ResourceSpec, ValidationError

    where = f"Node #{index + 1}"
    resource_id = None
    names = {"nodeName": "", "ClusterName": "", "FarmName": ""}
    params: dict = {}
    for child in elem:
        if child.tag == "Id":
            resource_id = (child.text or "").strip()
            where = f"Node {resource_id!r}" if resource_id else where
        elif child.tag in names:
            names[child.tag] = (child.text or "").strip()
        elif child.tag == "Parameters":
            params |= _read_numbers(child, _NODE_PARAMETERS, where)
        else:
            _warn_unknown(child.tag, where)
    if not resource_id:
        raise ValidationError(f"{where}: missing Id")
    if len(params) < len(_NODE_PARAMETERS):
        raise ValidationError(
            f"{where}: Parameters must contain CPUPower, Memory and CPU_idle"
        )
    return ResourceSpec(
        resource_id=resource_id,
        node_name=names["nodeName"],
        cluster_name=names["ClusterName"],
        farm_name=names["FarmName"],
        cpu_power=params["CPUPower"],
        memory=params["Memory"],
        cpu_idle=params["CPU_idle"],
    )


def reference_phase3_and_repair(result):
    """The final schedule of ``result``, rebuilt from its logged phase-2
    placements by rigid cluster shifts and ``reference_repair``.

    Each ``ClusterScheduled`` message gives one cluster's placements. In
    cluster topological order, a cluster shifts by the largest
    ``ready - start`` over its tasks' predecessors in other clusters, where
    ``ready`` is the predecessor's shifted end plus the commTime unless both
    run on one resource; a shift that leaves ``start + shift < ready`` is
    stepped up one float until it does not, and a cluster with no such
    predecessor stays put.
    """
    from coalloc import MessageKind, Placement

    specs = result.dag.tasks
    scheduled = {
        m.cluster_id: m.payload.placements
        for m in result.log
        if m.kind is MessageKind.CLUSTER_SCHEDULED
    }
    owner = {t: cid for cid, placements in scheduled.items() for t in placements}
    outside = {
        cid: [
            (t, dep)
            for t in placements
            for dep in specs[t].dependencies
            if owner[dep.task_id] != cid
        ]
        for cid, placements in scheduled.items()
    }
    shifted: dict = {}  # task id -> phase-3 placement
    left = set(scheduled)
    while left:
        batch = [
            cid for cid in sorted(left)
            if not any(owner[dep.task_id] in left for _, dep in outside[cid])
        ]
        assert batch, "the cluster quotient has a cycle"
        for cid in batch:
            placements = scheduled[cid]
            delta = 0.0
            for t, dep in outside[cid]:
                prior, start = shifted[dep.task_id], placements[t].start
                ready = prior.end
                if prior.resource_id != placements[t].resource_id:
                    ready += dep.comm_time
                step = ready - start
                while start + step < ready:
                    step = math.nextafter(step, math.inf)
                delta = max(delta, step)
            for t, p in placements.items():
                shifted[t] = Placement(
                    t, p.resource_id, p.agent_id, p.start + delta, p.end + delta
                )
        left.difference_update(batch)
    return reference_repair(shifted, result.dag)


def reference_repair(merged, dag):
    """The repair pass as a fixpoint iteration over ``merged``, the
    placements of every task keyed by task id.

    Each positive-length task stays behind the one before it on its
    resource (by merged start, then task id) and behind its DAG
    predecessors; every pass recomputes each start from its merged start
    and each end as ``start + processingTime``, until a pass changes
    nothing. After pass k every task that ends a constraint path of fewer
    than k edges is final, so an acyclic job settles within one pass per
    task; a pass beyond that which still changes something means a cycle,
    reported as ``StructuralError("repair pass found circular
    constraints")``. Deadline violations are the tasks ending past their
    deadline, by id.
    """
    from coalloc import FinalSchedule, Placement, StructuralError

    specs = dag.tasks
    before: dict = {}
    chains: dict = {}
    for p in merged.values():
        if p.end > p.start:
            chains.setdefault(p.resource_id, []).append(p)
    for chain in chains.values():
        chain.sort(key=lambda p: (p.start, p.task_id))
        before.update((b.task_id, a.task_id) for a, b in zip(chain, chain[1:]))
    start = {t: p.start for t, p in merged.items()}
    end = {t: p.start + specs[t].processing_time for t, p in merged.items()}
    for _ in range(len(merged) + 1):
        changed = False
        for t, p in merged.items():
            s = p.start
            for dep in specs[t].dependencies:
                need = end[dep.task_id]
                if merged[dep.task_id].resource_id != p.resource_id:
                    need += dep.comm_time
                s = max(s, need)
            if t in before:
                s = max(s, end[before[t]])
            if (s, s + specs[t].processing_time) != (start[t], end[t]):
                start[t], end[t] = s, s + specs[t].processing_time
                changed = True
        if not changed:
            break
    else:
        raise StructuralError("repair pass found circular constraints")

    placements = tuple(sorted(
        (Placement(t, p.resource_id, p.agent_id, start[t], end[t])
         for t, p in merged.items()),
        key=lambda p: (p.start, p.task_id),
    ))
    late = tuple(sorted(
        t for t, spec in specs.items()
        if spec.deadline_time is not None and end[t] > spec.deadline_time
    ))
    return FinalSchedule(placements, max(end.values(), default=0.0), late)


def exact_shortfalls(schedule, dag) -> list:
    """Every dependency and row of a finite schedule that misses the float
    contract by more than one ulp, in exact rational arithmetic.

    An edge falls short by ``end + commTime - start`` (no commTime on one
    resource) and a row by ``|start + processingTime - end|``. The allowance
    is one ulp of the float sum the engine computes, ``fl(end + commTime)``
    or ``fl(start + processingTime)``; an edge on one resource sums nothing
    and is allowed nothing. Returns ``(predId, succId, shortfall)`` for
    edges and ``(taskId, taskId, shortfall)`` for rows, shortfalls as
    ``Fraction``s.
    """
    by_task = {p.task_id: p for p in schedule.placements}
    out = []
    for succ, spec in dag.tasks.items():
        s = by_task[succ]
        for dep in spec.dependencies:
            p = by_task[dep.task_id]
            need, allowed = Fraction(p.end), 0.0
            if p.resource_id != s.resource_id:
                need += Fraction(dep.comm_time)
                allowed = math.ulp(p.end + dep.comm_time)
            if need - Fraction(s.start) > Fraction(allowed):
                out.append((dep.task_id, succ, need - Fraction(s.start)))
        miss = abs(
            Fraction(s.start) + Fraction(spec.processing_time) - Fraction(s.end)
        )
        if miss > Fraction(math.ulp(s.start + spec.processing_time)):
            out.append((succ, succ, miss))
    return out


def reference_validate(schedule, dag, resources, agents):
    """The validator as it stood before its checks made one pass each:
    whole-job sets for coverage, every task id sorted for the per-task
    checks, and a ``(start, taskId)`` key tuple per row for the overlap
    scan, and the refusal of infinite ends added since. It must report
    exactly what ``validate_schedule`` reports and raise the same errors. It
    imports only the error and the report record.
    """
    from coalloc import ValidationError, ViolationReport

    by_task = {p.task_id: p for p in schedule.placements}
    if len(by_task) != len(schedule.placements):
        raise ValidationError("schedule places some task twice")
    missing = sorted(set(dag.tasks) - set(by_task))
    if missing:
        raise ValidationError("schedule misses tasks: " + ", ".join(missing))
    extra = sorted(set(by_task) - set(dag.tasks))
    if extra:
        raise ValidationError("schedule has unknown tasks: " + ", ".join(extra))

    report = ViolationReport()
    resource_by_id = {r.resource_id: r for r in resources}
    owner: dict[str, str] = {}
    for agent in agents:
        for rid in agent.resources:
            owner[rid] = agent.agent_id

    rows: dict[str, list] = {}
    for p in schedule.placements:
        rows.setdefault(p.resource_id, []).append(p)
    for rid in sorted(rows):
        # zero-length rows are empty closed-open intervals: they never overlap;
        # task ids are unique and no start is NaN, so the key orders the
        # group totally, whatever the order of the placements
        group = sorted(
            (p for p in rows[rid] if p.end > p.start),
            key=lambda p: (p.start, p.task_id),
        )
        for i, a in enumerate(group):
            for j in range(i + 1, len(group)):
                b = group[j]
                if b.start >= a.end:  # so does every later b: starts ascend
                    break
                report.overlaps.append((rid, a.task_id, b.task_id))

    for succ, spec in dag.tasks.items():
        s = by_task[succ]
        for dep in spec.dependencies:
            p = by_task[dep.task_id]
            required = p.end if p.resource_id == s.resource_id else p.end + dep.comm_time
            if s.start < required:
                report.precedence_violations.append((p.task_id, succ, required, s.start))

    for task_id in sorted(by_task):
        placement = by_task[task_id]
        if placement.end == math.inf:
            raise ValidationError(f"placement of {task_id!r}: end must be finite")
        spec = dag.tasks[task_id]
        resource = resource_by_id.get(placement.resource_id)
        if (
            resource is None
            or resource.memory < spec.memory
            or resource.cpu_power < spec.cpu_power
            or owner.get(placement.resource_id) != placement.agent_id
        ):
            report.eligibility_violations.append((task_id, placement.resource_id))
        if spec.deadline_time is not None and placement.end > spec.deadline_time:
            report.deadline_misses.append(
                (task_id, placement.end, spec.deadline_time)
            )
        expected_end = placement.start + spec.processing_time
        if placement.end != expected_end:
            report.duration_mismatches.append((task_id, expected_end, placement.end))
    return report
