"""Cluster formation: the size quota, merge procedure, and quotient graph."""

import functools
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coalloc import (
    Dependency,
    StructuralError,
    TaskSpec,
    ValidationError,
    build_dag,
    cluster_tasks,
    clustering,
    generate_workload,
    host_masks,
    max_cluster_size,
)
from conftest import corpus_instance, peak_above_live
from oracles import (
    coloring_is_acyclic,
    edge_costs,
    greedy_clustering,
    part_descendants,
    quotient,
    successor_lists,
)


def one_host(dag):
    """Host masks under which every task runs on the same single agent."""
    return dict.fromkeys(dag.tasks, 1)


def clustered(tasks, num_agents):
    dag = build_dag(tasks)
    return cluster_tasks(dag, num_agents, one_host(dag))


def chain(n, comm=1.0, processing=1.0):
    tasks = [TaskSpec("1", processing, 0.0, 0.0)]
    for i in range(2, n + 1):
        tasks.append(
            TaskSpec(
                str(i), processing, 0.0, 0.0, None,
                (Dependency(str(i - 1), comm),),
            )
        )
    return tasks


def test_quota_uses_integer_division():
    assert max_cluster_size(8, 3) == 3
    assert max_cluster_size(9, 3) == 4
    assert max_cluster_size(1, 4) == 1
    assert max_cluster_size(0, 2) == 1


def test_independent_tasks_stay_singletons():
    tasks = [TaskSpec(str(i), 1.0, 0.0, 0.0) for i in range(1, 8)]
    cdag = clustered(tasks, 3)
    assert [c.tasks for c in cdag.clusters] == [(str(i),) for i in range(1, 8)]
    assert cdag.edges == {}


def test_chain_fills_clusters_in_order():
    cdag = clustered(chain(8), 3)
    assert [c.tasks for c in cdag.clusters] == [
        ("1", "2", "3"),
        ("4", "5", "6"),
        ("7", "8"),
    ]
    # independent re-derivation: a chain is consumed greedily, quota at a time
    quota = max_cluster_size(8, 3)
    expected, rest = [], [str(i) for i in range(1, 9)]
    while rest:
        expected.append(tuple(rest[:quota]))
        rest = rest[quota:]
    assert [c.tasks for c in cdag.clusters] == expected
    # chain order survives in the quotient
    assert set(cdag.edges) == {("C1", "C2"), ("C2", "C3")}


def test_more_agents_than_tasks_gives_singletons():
    cdag = clustered(chain(3), 10)
    assert all(len(c.tasks) == 1 for c in cdag.clusters)


def test_clustering_needs_an_agent():
    with pytest.raises(ValidationError, match="^num_agents must be >= 1, got 0$"):
        clustered(chain(3), 0)


def test_cycle_closing_merge_is_skipped():
    # a -> b, a -> c, c -> b and quota 2: absorbing {b} first would close a
    # cycle between {a,b} and {c}, so {c} is taken instead and {b} stays out.
    tasks = [
        TaskSpec("a", 1.0, 0.0, 0.0),
        TaskSpec("b", 1.0, 0.0, 0.0, None,
                 (Dependency("a", 1.0), Dependency("c", 1.0))),
        TaskSpec("c", 1.0, 0.0, 0.0, None, (Dependency("a", 1.0),)),
        TaskSpec("d", 1.0, 0.0, 0.0),
    ]
    cdag = clustered(tasks, 3)  # quota = 4 // 3 + 1 = 2
    assert [c.tasks for c in cdag.clusters] == [("a", "c"), ("b",), ("d",)]
    assert coloring_is_acyclic(successor_lists(cdag.edges))


def track_parts(mp, dag):
    """Spy on the merges of ``cluster_tasks(dag, ...)``.

    Returns the ``(current, other, kept)`` slot triple of every merge and
    the member list of every slot, kept up to date from those triples: slot
    ``i`` starts as the ``i``-th task of ``dag.tasks``, and a part merged
    away is empty.
    """
    merge = clustering._merge_parts
    members = [[t] for t in dag.tasks]
    merges = []

    def merge_spy(current, other, *rest):
        kept = merge(current, other, *rest)
        merges.append((current, other, kept))
        members[kept] = members[current] + members[other]
        members[other if kept == current else current] = []
        return kept

    mp.setattr(clustering, "_merge_parts", merge_spy)
    return merges, members


def traced_clustering(monkeypatch, tasks, num_agents):
    """Cluster ``tasks``, recording each merge and each finished search.

    Returns the cluster DAG, the ``(current, other, kept)`` slot triple of
    every merge, and the member tuples of every search that found nothing.
    """
    dag = build_dag(tasks)
    pick = clustering._next_candidate
    merges, members = track_parts(monkeypatch, dag)
    finished = []

    def pick_spy(current, *rest):
        chosen = pick(current, *rest)
        if chosen is None:
            finished.append(tuple(sorted(members[current])))
        return chosen

    monkeypatch.setattr(clustering, "_next_candidate", pick_spy)
    cdag = cluster_tasks(dag, num_agents, one_host(dag))
    assert ([c.tasks for c in cdag.clusters], cdag.edges) == greedy_clustering(
        dag, num_agents, one_host(dag)
    )
    return cdag, merges, finished


def dependent(task_id, *preds):
    deps = tuple(Dependency(p, 1.0) for p in preds)
    return TaskSpec(task_id, 1.0, 0.0, 0.0, None, deps)


def test_current_absorbs_a_larger_finished_part(monkeypatch):
    # a finishes as a sink. b's first pick is a, whose part has more
    # adjacency entries (b, c, e), so the merge keeps a's slot and the loop
    # must go on from there to take d. Quota 5 // 2 + 1 = 3.
    tasks = [dependent("a", "b", "c", "e"), dependent("b"), dependent("c"),
             dependent("d", "b"), dependent("e")]
    cdag, merges, finished = traced_clustering(monkeypatch, tasks, 2)
    assert [c.tasks for c in cdag.clusters] == [("a", "b", "d"), ("c",), ("e",)]
    assert merges[0] == (1, 0, 0)  # b absorbed a; a's slot survives
    assert len(finished) == len(set(finished))


def test_single_successor_is_taken_and_its_slot_followed(monkeypatch):
    # a -> d -> c <- b with quota 4 // 2 + 1 = 3. Each of a's picks sees one
    # successor, and each merge keeps the successor's slot (d, then c),
    # slots the sorted pass reaches later and must skip as finished.
    tasks = [dependent("a"), dependent("b"), dependent("c", "d", "b"),
             dependent("d", "a")]
    cdag, merges, finished = traced_clustering(monkeypatch, tasks, 2)
    assert [c.tasks for c in cdag.clusters] == [("a", "c", "d"), ("b",)]
    assert merges == [(0, 3, 3), (3, 2, 2)]
    # no finished cluster is searched again
    assert finished == [("a", "c", "d"), ("b",)]


def test_cluster_tasks_peak_memory_stays_small():
    # A part holds int lists of its neighbours until it first merges, and
    # the lists are released before the quotient is built. With a set per
    # task for each direction this job peaked at 3.65 MB above the live set.
    dag = build_dag(generate_workload(99, 2000, 25, 0.01))
    assert peak_above_live(cluster_tasks, dag, 10, one_host(dag)) <= 2.0e6


def test_quotient_of_singletons_is_isomorphic():
    tasks = [
        TaskSpec("x", 1.0, 0.0, 0.0),
        TaskSpec("y", 2.0, 0.0, 0.0, None, (Dependency("x", 2.5),)),
    ]
    dag = build_dag(tasks)
    cdag = quotient(dag, [{"x"}, {"y"}])
    assert [c.tasks for c in cdag.clusters] == [("x",), ("y",)]
    assert cdag.edges == {("C1", "C2"): 2.5}


def test_quotient_sums_crossing_costs():
    tasks = [
        TaskSpec("1", 1.0, 0.0, 0.0),
        TaskSpec("2", 1.0, 0.0, 0.0),
        TaskSpec("3", 1.0, 0.0, 0.0, None, (Dependency("1", 1.0),)),
        TaskSpec("4", 1.0, 0.0, 0.0, None, (Dependency("2", 2.0),)),
    ]
    dag = build_dag(tasks)
    cdag = quotient(dag, [{"1", "2"}, {"3", "4"}])
    crossing = [
        cost
        for (p, s), cost in edge_costs(dag).items()
        if p in {"1", "2"} and s in {"3", "4"}
    ]
    assert cdag.edges == {("C1", "C2"): sum(crossing)}
    assert cdag.edges[("C1", "C2")] == 3.0


def test_quotient_sums_in_declaration_order():
    # Tasks in input order (y before x), then each task's dependencies as
    # declared (c, a, b): 0.1 + 0.1 + 0.4 + 0.3. Summed by task id, by
    # predecessor id within a task or by (pred, succ) pair, the same terms
    # give 0.9 or 0.8999999999999999.
    tasks = [
        TaskSpec("a", 1.0),
        TaskSpec("b", 1.0),
        TaskSpec("c", 1.0),
        TaskSpec("y", 1.0, dependencies=(
            Dependency("c", 0.1), Dependency("a", 0.1), Dependency("b", 0.4),
        )),
        TaskSpec("x", 1.0, dependencies=(Dependency("a", 0.3),)),
    ]
    cdag = quotient(build_dag(tasks), [{"a", "b", "c"}, {"x", "y"}])
    assert cdag.edges == {("C1", "C2"): 0.9000000000000001}


def test_quotient_total_merge_has_no_edges():
    dag = build_dag(chain(4))
    cdag = quotient(dag, [{"1", "2", "3", "4"}])
    assert len(cdag.clusters) == 1
    assert cdag.edges == {}


def test_quotient_rejects_bad_partitions():
    dag = build_dag(chain(3))
    with pytest.raises(StructuralError, match="misses"):
        quotient(dag, [{"1", "2"}])
    with pytest.raises(StructuralError, match="overlaps"):
        quotient(dag, [{"1", "2"}, {"2", "3"}])
    with pytest.raises(StructuralError, match="unknown"):
        quotient(dag, [{"1", "2", "3", "9"}])
    with pytest.raises(StructuralError, match="empty"):
        quotient(dag, [{"1", "2", "3"}, set()])


@pytest.mark.parametrize("seed", range(40))
def test_clustering_invariants_on_seeded_instances(seed):
    scenario = corpus_instance(seed)
    dag = build_dag(scenario.tasks)
    num_agents = len(scenario.agents)
    hosts = host_masks(dag, scenario.resources, scenario.agents)
    cdag = cluster_tasks(dag, num_agents, hosts)

    quota = max_cluster_size(len(dag.tasks), num_agents)
    all_tasks = sorted(dag.tasks)
    covered = sorted(t for c in cdag.clusters for t in c.tasks)
    assert covered == all_tasks  # partition
    assert all(len(c.tasks) <= quota for c in cdag.clusters)
    assert coloring_is_acyclic(successor_lists(cdag.edges))

    # every task edge is intra-cluster or mirrored by a quotient edge,
    # and every quotient cost is the brute-force sum of crossing costs
    owner = cdag.cluster_of
    sums = {}
    for (p, s), cost in edge_costs(dag).items():
        a, b = owner[p], owner[s]
        if a == b:
            continue
        assert (a, b) in cdag.edges
        sums[(a, b)] = sums.get((a, b), 0.0) + cost
    assert sums == cdag.edges
    assert ([c.tasks for c in cdag.clusters], cdag.edges) == greedy_clustering(
        dag, num_agents, hosts
    )


def test_assignment_dump_lists_every_task():
    from coalloc import assignment_dump

    cdag = clustered(chain(4), 2)
    dump = assignment_dump(cdag)
    assert dump == "1 -> C1\n2 -> C1\n3 -> C1\n4 -> C2\n"


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_clustering_is_deterministic(seed):
    tasks = generate_workload(seed, 40, 5, 0.2)
    first = clustered(tasks, 4)
    second = clustered(tasks, 4)
    assert [c.tasks for c in first.clusters] == [c.tasks for c in second.clusters]
    assert first.edges == second.edges


@st.composite
def shuffled_dags(draw):
    """Random DAGs whose ids and input order are both shuffled against the
    topological order, paired with an agent count from 1 to beyond n and
    host masks over three agents, a third of them all hosting every task."""
    n = draw(st.integers(0, 24))
    ids = draw(st.permutations([str(i) for i in range(n)]))  # by topo position
    position = st.integers(0, max(n - 1, 0))
    pairs = draw(st.sets(st.tuples(position, position), max_size=3 * n))
    deps = {i: [] for i in range(n)}
    for a, b in sorted(pairs):
        if a < b:
            deps[b].append(Dependency(ids[a], draw(st.sampled_from([0.0, 0.5, 1.25]))))
    order = draw(st.permutations(range(n)))
    tasks = [TaskSpec(ids[i], 1.0, 0.0, 0.0, None, tuple(deps[i])) for i in order]
    masks = st.just(7) if draw(st.integers(0, 2)) == 0 else st.integers(1, 7)
    hosts = {t: draw(masks) for t in ids}
    return tasks, draw(st.integers(1, n + 2)), hosts


def on_one_agent(tasks, num_agents):
    return tasks, num_agents, {t.task_id: 1 for t in tasks}


def check_clustering_against_reference(rng, num_tasks):
    """``cluster_tasks`` on a generated job of ``num_tasks`` tasks, its ids
    and input order shuffled, on 1-6 agents gives the clusters and edges of
    ``greedy_clustering`` and each cluster its tasks' common host mask. A
    third of the jobs have every agent host every task; the others draw
    each task's mask at random."""
    tasks = generate_workload(
        rng.randrange(2**31), num_tasks, rng.randint(1, min(num_tasks, 25)),
        min(rng.uniform(1.0, 10.0) / num_tasks, 1.0),
    )
    ids = [t.task_id for t in tasks]
    rename = dict(zip(ids, rng.sample(ids, len(ids))))
    tasks = [
        TaskSpec(rename[t.task_id], t.processing_time, t.memory, t.cpu_power,
                 t.deadline_time,
                 tuple(Dependency(rename[d.task_id], d.comm_time) for d in t.dependencies))
        for t in tasks
    ]
    rng.shuffle(tasks)
    num_agents = rng.randint(1, 6)
    every = (1 << num_agents) - 1
    if rng.randrange(3) == 0:
        hosts = {t.task_id: every for t in tasks}
    else:
        hosts = {t.task_id: rng.randint(1, every) for t in tasks}
    dag = build_dag(tasks)
    cdag = cluster_tasks(dag, num_agents, hosts)
    clusters, edges = greedy_clustering(dag, num_agents, hosts)
    assert [c.tasks for c in cdag.clusters] == clusters
    assert cdag.edges == edges
    assert cdag.hosts == {
        c.cluster_id: functools.reduce(operator.and_, (hosts[t] for t in c.tasks))
        for c in cdag.clusters
    }


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False), st.integers(1, 60))
def test_cluster_tasks_matches_the_reference_on_generated_jobs(rng, num_tasks):
    check_clustering_against_reference(rng, num_tasks)


@settings(deadline=None, max_examples=300)
@given(shuffled_dags())
@example(on_one_agent([TaskSpec(str(i), 1.0) for i in (3, 1, 2)], 2))  # no edges
@example(on_one_agent(chain(6), 1))  # one agent: quota n + 1
@example(on_one_agent(chain(4), 9))  # more agents than tasks: quota 1
# b shares no host with a, so a takes c; quota 3 // 1 + 1 = 4
@example((
    [dependent("a"), dependent("b", "a"), dependent("c", "a")], 1,
    {"a": 3, "b": 4, "c": 1},
))
# a and b share agent 2, which c lacks: the merged mask shrinks; quota 4
@example((
    [dependent("a"), dependent("b", "a"), dependent("c", "b")], 1,
    {"a": 3, "b": 6, "c": 5},
))
# a absorbs b, whose slot is kept (4 adjacency entries against a's 2), so
# a's neighbour x, which never merged, has its pred list [a] relinked to
# [b]; quota 7
@example(on_one_agent(
    [dependent("a"), dependent("b", "a"), dependent("x", "a"),
     dependent("c", "b"), dependent("d", "b"), dependent("e", "b")],
    1,
))
# the same merge, but x's pred list [a, b] already holds the kept b, so a
# is dropped from it; quota 6
@example(on_one_agent(
    [dependent("a"), dependent("b", "a"), dependent("x", "a", "b"),
     dependent("c", "b"), dependent("d", "b")],
    1,
))
def test_cluster_tasks_matches_per_candidate_reference(case):
    tasks, num_agents, hosts = case
    dag = build_dag(tasks)
    cdag = cluster_tasks(dag, num_agents, hosts)
    clusters, edges = greedy_clustering(dag, num_agents, hosts)
    assert [c.tasks for c in cdag.clusters] == clusters
    assert cdag.edges == edges
    assert cdag.hosts.keys() == cdag.by_id.keys()
    for c in cdag.clusters:  # each keeps its tasks' common hosts, never none
        common = functools.reduce(operator.and_, (hosts[t] for t in c.tasks))
        assert common and cdag.hosts[c.cluster_id] == common


def fresh_candidate(dag, hosts, members, current, below, limit):
    """The least-``low`` child part of ``members[current]`` that fits the
    quota, shares a host with it and whose predecessor parts miss ``below``,
    from the task edges."""
    owner = {t: i for i, part in enumerate(members) for t in part}
    children, pred_parts = set(), {}
    for a, b in edge_costs(dag):
        pa, pb = owner[a], owner[b]
        if pa != pb:
            pred_parts.setdefault(pb, set()).add(pa)
            if pa == current:
                children.add(pb)
    room = limit - len(members[current])

    def mask(part):
        return functools.reduce(operator.and_, (hosts[t] for t in part))

    safe = [
        d for d in children
        if len(members[d]) <= room
        and mask(members[d]) & mask(members[current])
        and pred_parts[d].isdisjoint(below)
    ]
    return min(safe, key=lambda d: min(members[d]), default=None)


# 0 -> 1 -> 3 -> 4, 0 -> 2 -> 3, 5 -> 3 and 5 -> 4, as successor lists
SUPPORT_SUCCS = [[1, 2], [3], [3], [4], [], [3, 4]]


def fresh_counts(source):
    """Per part, its predecessors that are ``source`` or descend from it."""
    below, stack = set(), [source]
    while stack:
        for s in SUPPORT_SUCCS[stack.pop()]:
            if s not in below:
                below.add(s)
                stack.append(s)
    return [
        sum(x in SUPPORT_SUCCS[p] for p in below | {source})
        for x in range(len(SUPPORT_SUCCS))
    ]


@pytest.mark.parametrize("previous, new", [
    (0, 3),  # the new source descends from the previous one
    (3, 0),  # the previous source descends from the new one
    (1, 2),  # siblings with a common descendant
    (5, 0),  # unrelated sources whose descendants overlap
    (4, 5),  # a sink, then a source that reaches it
])
def test_support_moves_to_a_new_source_as_a_fresh_count(previous, new):
    count = [0] * len(SUPPORT_SUCCS)
    clustering._support(previous, SUPPORT_SUCCS, count, 1)
    assert count == fresh_counts(previous)
    clustering._support(new, SUPPORT_SUCCS, count, 1)
    clustering._support(previous, SUPPORT_SUCCS, count, -1)
    assert count == fresh_counts(new)
    clustering._support(new, SUPPORT_SUCCS, count, -1)
    assert not any(count)


@settings(deadline=None, max_examples=300)
@given(shuffled_dags())
@example(on_one_agent(chain(6), 1))
# c is blocked behind b until the merge with b absorbs it; quota 4
@example(on_one_agent(
    [dependent("a"), dependent("b", "a"), dependent("c", "a", "b")], 1
))
# {a, b, c} finishes first and is a ready child of d, too large for d's
# room of 2: it is dropped and e is taken; quota 5 // 2 + 1 = 3
@example(on_one_agent(
    [dependent("a", "d"), dependent("b", "a"), dependent("c", "b"),
     dependent("d"), dependent("e", "d")],
    2,
))
# b shares no host with a and is dropped, though it fits the room
@example((
    [dependent("a"), dependent("b", "a"), dependent("c", "a")], 1,
    {"a": 3, "b": 4, "c": 1},
))
def test_every_pick_sees_the_live_descendants_of_the_current_part(case):
    # The support counts are updated, never recomputed, so at every pick the
    # parts with a positive count must be a fresh search's descendants of the
    # current part over the quotient of the parts as they stand, and each
    # count the number of that part's predecessor parts among them, plus one
    # if the current part is also a predecessor. The ready queue must yield
    # what a fresh scan of every child would choose, and the parts must
    # finish in the order the per-candidate reference finishes them.
    tasks, num_agents, hosts = case
    dag = build_dag(tasks)
    limit = max_cluster_size(len(dag.tasks), num_agents)
    support, pick = clustering._support, clustering._next_candidate
    counts, picks, finished = [], [], []

    def support_spy(source, succs, count, step):
        counts[:] = [count]  # the list the loop goes on to update
        support(source, succs, count, step)

    def pick_spy(current, size, mask, ready, limit_):
        assert limit_ == limit
        assert list(size) == [len(part) for part in members]
        # a child is queued once: none turns ready twice
        assert len({d for _, d in ready}) == len(ready)
        assert [m for m, part in zip(mask, members) if part] == [
            functools.reduce(operator.and_, (hosts[t] for t in part))
            for part in members if part
        ]
        edges = edge_costs(dag)
        below = part_descendants(edges, members, current)
        live = [i for i, part in enumerate(members) if part]
        assert {i for i in live if counts[0][i] > 0} == below
        owner = {t: i for i, part in enumerate(members) for t in part}
        pred_parts = {i: set() for i in live}
        for a, b in edges:
            if owner[a] != owner[b]:
                pred_parts[owner[b]].add(owner[a])
        assert [counts[0][i] for i in live] == [
            len(pred_parts[i] & (below | {current})) for i in live
        ]
        expected = fresh_candidate(dag, hosts, members, current, below, limit)
        chosen = pick(current, size, mask, ready, limit_)
        assert chosen == expected
        picks.append(current)
        if chosen is None:
            finished.append(tuple(sorted(members[current])))
        return chosen

    with pytest.MonkeyPatch.context() as mp:
        _, members = track_parts(mp, dag)
        mp.setattr(clustering, "_support", support_spy)
        mp.setattr(clustering, "_next_candidate", pick_spy)
        cluster_tasks(dag, num_agents, hosts)
    reference = []
    greedy_clustering(dag, num_agents, hosts, finished=reference)
    assert finished == reference
    # a pick per merge, and one more each time a part finishes
    assert len(picks) >= len(dag.tasks)
