"""DAG construction, cycle detection, and level decomposition."""

import gc
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coalloc import (
    Cluster,
    ClusterDag,
    CycleError,
    Dependency,
    Placement,
    TaskSpec,
    UnknownReferenceError,
    ValidationError,
    build_dag,
    generate_workload,
)
from coalloc.graph import release
from conftest import make_engineered
from oracles import (
    closure_by_squaring,
    coloring_is_acyclic,
    edge_costs,
    pred_ids,
    relaxed_levels,
)


def task(task_id, processing=1.0, deps=()):
    return TaskSpec(
        task_id, processing, 0.0, 0.0, None,
        tuple(Dependency(p, c) for p, c in deps),
    )


def clusters_over(preds, min_task=None):
    """A cluster DAG with one cluster per key of ``preds``, named by it and
    holding the one task ``min_task[node]`` (the node itself by default),
    and an edge from each of its predecessors, in the order given."""
    min_task = min_task or {n: n for n in preds}
    return ClusterDag(
        [Cluster(n, (min_task[n],)) for n in preds],
        {(p, n): 1.0 for n, ps in preds.items() for p in ps},
    )


def level_ids(cdag):
    return [[c.cluster_id for c in level] for level in cdag.levels()]


def test_build_two_task_dag():
    dag = build_dag([task("1", 4.0), task("2", 6.0, [("1", 3.0)])])
    assert edge_costs(dag) == {("1", "2"): 3.0}
    assert dag.tasks["1"].processing_time == 4.0
    assert dag.tasks["2"].processing_time == 6.0
    assert dag.tasks["2"].dependencies == (Dependency("1", 3.0),)


def test_two_task_cycle_witness():
    with pytest.raises(CycleError) as err:
        build_dag([task("1", deps=[("2", 1.0)]), task("2", deps=[("1", 1.0)])])
    assert err.value.cycle == ["1", "2"]
    assert str(err.value) == "dependency cycle: 1 -> 2 -> 1"


def test_dangling_dependency_names_both_ids():
    with pytest.raises(UnknownReferenceError) as err:
        build_dag([task("1", deps=[("ghost", 1.0)])])
    assert err.value.task_id == "1"
    assert err.value.ref_id == "ghost"


def test_duplicate_edge_rejected():
    from coalloc import StructuralError

    with pytest.raises(StructuralError, match="twice"):
        build_dag([task("1"), task("2", deps=[("1", 1.0), ("1", 2.0)])])
    with pytest.raises(StructuralError, match="^duplicate taskId '1'$"):
        build_dag([task("1"), task("1", 2.0)])


def test_build_errors_come_at_the_first_bad_dependency():
    # Tasks in file order, each one's dependencies as declared: the first
    # dependency that repeats or names an unknown id raises.
    from coalloc import StructuralError

    with pytest.raises(StructuralError, match="^task 't' depends on 'a' twice$"):
        build_dag([task("a"), task("t", deps=[("a", 1.0), ("a", 1.0), ("ghost", 1.0)])])
    with pytest.raises(UnknownReferenceError) as err:
        build_dag([task("a"), task("t", deps=[("ghost", 1.0), ("a", 1.0), ("a", 1.0)])])
    assert (err.value.task_id, err.value.ref_id) == ("t", "ghost")
    with pytest.raises(UnknownReferenceError) as err:
        build_dag([task("a"), task("u", deps=[("ghost", 1.0)]),
                   task("t", deps=[("a", 1.0), ("a", 1.0)])])
    assert err.value.task_id == "u"


def test_eight_task_dag_against_closure_oracle():
    scenario = make_engineered()
    dag = build_dag(scenario.tasks)
    assert len(dag.tasks) == 8

    # ancestors by DFS on the built predecessor lists
    preds = pred_ids(dag)

    def ancestors(start):
        seen, stack = set(), [start]
        while stack:
            for nxt in preds[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    closure = closure_by_squaring(sorted(dag.tasks), set(edge_costs(dag)))
    for t in dag.tasks:
        assert ancestors(t) == {u for u in dag.tasks if t in closure[u]}
        assert t not in closure[t]  # acyclic: nothing reaches itself


def assert_is_cycle(witness, adjacency):
    """``witness`` names distinct nodes, each with an edge to the next."""
    assert witness and len(set(witness)) == len(witness)
    for x, y in zip(witness, witness[1:] + witness[:1]):
        assert y in adjacency[x]


def test_is_acyclic_trivial_cases():
    assert level_ids(clusters_over({})) == []
    with pytest.raises(CycleError) as err:
        level_ids(clusters_over({"x": ["x"]}))
    assert err.value.cycle == ["x"]


def test_is_acyclic_against_coloring_oracle():
    rng = random.Random(1234)
    nodes = [f"n{i:02d}" for i in range(50)]
    for _ in range(1000):
        adjacency = {n: [] for n in nodes}
        for a in nodes:
            for b in nodes:
                if rng.random() < 0.03 and a != b:  # a task cannot name itself
                    adjacency[a].append(b)
        preds = {n: [a for a in nodes if n in adjacency[a]] for n in nodes}
        tasks = [task(n, deps=[(p, 1.0) for p in preds[n]]) for n in nodes]
        acyclic = coloring_is_acyclic(adjacency)
        witnesses = []
        for check in (lambda: build_dag(tasks), lambda: level_ids(clusters_over(preds))):
            try:
                check()
            except CycleError as err:
                witnesses.append(err.cycle)
        assert (not witnesses) == acyclic
        for witness in witnesses:
            assert_is_cycle(witness, adjacency)
        if witnesses:  # both checks name the same, reproducible cycle
            assert witnesses[0] == witnesses[1]


def test_long_ring_cycle_is_found_in_linear_time():
    n = 20_000
    tasks = [task(str(i), deps=[(str((i - 1) % n), 1.0)]) for i in range(n)]
    started = time.perf_counter()
    with pytest.raises(CycleError) as err:
        build_dag(tasks)
    elapsed = time.perf_counter() - started
    assert len(err.value.cycle) == n
    assert_is_cycle(err.value.cycle, {str(i): [str((i + 1) % n)] for i in range(n)})
    assert elapsed < 1.0  # a walk that rescans its path takes far longer


def test_level_decompose_chain():
    dag = build_dag(
        [task("a"), task("b", deps=[("a", 1.0)]), task("c", deps=[("b", 1.0)])]
    )
    assert level_ids(clusters_over(pred_ids(dag))) == [["a"], ["b"], ["c"]]


def test_level_decompose_diamond():
    dag = build_dag(
        [
            task("1"),
            task("2", deps=[("1", 1.0)]),
            task("3", deps=[("1", 1.0)]),
            task("4", deps=[("2", 1.0), ("3", 1.0)]),
        ]
    )
    assert level_ids(clusters_over(pred_ids(dag))) == [["1"], ["2", "3"], ["4"]]


@pytest.mark.parametrize("seed", range(20))
def test_level_decompose_properties(seed):
    rng = random.Random(seed)
    tasks = generate_workload(seed, 30, rng.randint(2, 6), 0.25)
    dag = build_dag(tasks)
    preds = pred_ids(dag)
    blocks = level_ids(clusters_over(preds))

    flat = [t for block in blocks for t in block]
    assert sorted(flat) == sorted(dag.tasks)  # partition
    position = {t: i for i, t in enumerate(flat)}
    block_of = {t: k for k, block in enumerate(blocks, start=1) for t in block}
    for (p, s) in edge_costs(dag):
        assert position[p] < position[s]  # concatenation is a topo order
    for t in dag.tasks:
        assert block_of[t] == 1 + max((block_of[p] for p in preds[t]), default=0)
    for block in blocks:
        members = set(block)
        for (p, s) in edge_costs(dag):
            assert not (p in members and s in members)  # no edge inside a block
        assert block == sorted(block)


@st.composite
def cluster_graphs(draw):
    """Predecessor lists over up to 12 clusters, acyclic or free to close a
    cycle, the same lists with clusters and predecessors in another order,
    and a least task per cluster that orders the clusters otherwise than
    their ids do."""
    n = draw(st.integers(0, 12))
    nodes = [f"C{i:02d}" for i in range(n)]
    acyclic = draw(st.booleans())
    preds = {}
    for i, node in enumerate(nodes):
        pool = nodes[:i] if acyclic else nodes
        drawn = draw(st.sets(st.sampled_from(pool), max_size=4)) if pool else ()
        preds[node] = sorted(drawn)
    reordered = {
        node: draw(st.permutations(preds[node]))
        for node in draw(st.permutations(nodes))
    }
    tasks = draw(st.permutations([f"t{i:02d}" for i in range(n)]))
    return preds, reordered, dict(zip(nodes, tasks))


def levels_or_cycle(levels):
    try:
        return levels()
    except CycleError as err:
        return ("cycle", err.cycle)


@settings(deadline=None, max_examples=120)
@given(cluster_graphs())
@example(({"x": ["x"]}, {"x": ["x"]}, {"x": "t"}))  # self-loop
@example((
    {"a": ["c"], "b": ["a"], "c": ["b"]},
    {"b": ["a"], "c": ["b"], "a": ["c"]},
    {"a": "t3", "b": "t2", "c": "t1"},
))
def test_cluster_levels_match_sweep_then_relax_reference(case):
    preds, reordered, min_task = case
    expected = levels_or_cycle(lambda: relaxed_levels(preds, preds, min_task.get))
    # the same blocks, or the same witness, whatever order clusters and edges are in
    for graph in (preds, reordered):
        cdag = clusters_over(graph, min_task)
        assert levels_or_cycle(lambda: level_ids(cdag)) == expected


@pytest.mark.parametrize("seed", range(10))
def test_restrict_matches_filtering_in_order(seed):
    rng = random.Random(seed)
    tasks = generate_workload(seed, 40, rng.randint(2, 6), 0.2)
    rng.shuffle(tasks)  # input order differs from task-id order
    dag = build_dag(tasks)
    subset = [t for t in sorted(dag.tasks) if rng.random() < 0.5]
    fragment = dag.restrict(subset)

    costs = edge_costs(dag)
    expected_edges = [(p, s) for (p, s) in costs if p in subset and s in subset]
    assert list(fragment.tasks) == [t for t in dag.tasks if t in subset]
    assert list(edge_costs(fragment)) == expected_edges
    assert edge_costs(fragment) == {e: costs[e] for e in expected_edges}
    for t, spec in fragment.tasks.items():
        kept = [d for d in dag.tasks[t].dependencies if d.task_id in subset]
        assert spec == dag.tasks[t]._replace(dependencies=tuple(kept))


def test_restrict_rejects_unknown_tasks():
    with pytest.raises(ValidationError, match="unknown tasks: zz"):
        build_dag([task("a")]).restrict(["a", "zz"])


def test_release_adds_comm_time_only_across_resources():
    prior = Placement("p", "r1", "a1", 1.0, 3.0)
    assert release(prior, 5.0, "r1") == 3.0
    assert release(prior, 5.0, "r2") == 8.0


def test_dag_holds_nothing_per_task():
    # Edges live only in the specs, so the DAG adds only its id-to-spec
    # dict, about 0.06 MB here; a dict per task would add over 0.7 MB.
    tasks = generate_workload(99, 2000, 25, 0.01)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dag = build_dag(tasks)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(dag.tasks) == 2000
    assert held <= 0.15e6
