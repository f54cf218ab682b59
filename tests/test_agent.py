"""Local scheduling: eligibility, earliest-start selection, rigid delays."""

import math
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coalloc import (
    AgentActor,
    AgentSpec,
    Cluster,
    CycleError,
    Dependency,
    InfeasibleTaskError,
    PartialSchedule,
    Placement,
    ProtocolError,
    ResourceSpec,
    ResourceTimeline,
    StructuralError,
    TaskDag,
    TaskSpec,
    ValidationError,
    apply_dependency_delays,
    build_dag,
    generate_workload,
    schedule_cluster,
)
from coalloc.protocol import BROKER, Message, MessageKind
from conftest import make_pool, phase2_instance
from oracles import (
    brute_force_earliest,
    check_selection_rule,
    edge_costs,
    free_gaps,
    reference_schedule_cluster,
)


def resource(rid, memory=8.0, cpu=8.0):
    return ResourceSpec(rid, rid, "c", "f", cpu, memory, 90.0)


def timelines(*specs):
    return {r.resource_id: ResourceTimeline(r) for r in specs}


def task(task_id, processing=1.0, memory=0.0, cpu=0.0, deps=()):
    return TaskSpec(
        task_id, processing, memory, cpu, None,
        tuple(Dependency(p, c) for p, c in deps),
    )


def assert_disjoint(intervals):
    """No two positive-length closed-open intervals overlap."""
    busy = [(s, e) for s, e in intervals if e > s]
    for i, (s1, e1) in enumerate(busy):
        for s2, e2 in busy[i + 1:]:
            assert not (s1 < e2 and s2 < e1)


def test_same_resource_beats_cross_resource_comm():
    dag = build_dag([task("t1", 2.0), task("t2", 3.0, deps=[("t1", 1.0)])])
    tls = timelines(resource("r1"), resource("r2"))
    partial = schedule_cluster(Cluster("C1", ("t1", "t2")), dag, tls, "a1")
    assert partial.placements["t1"] == Placement("t1", "r1", "a1", 0.0, 2.0)
    # staying on r1 (ready at 2) beats moving to r2 (ready at 2 + 1)
    assert partial.placements["t2"] == Placement("t2", "r1", "a1", 2.0, 5.0)


def test_single_task_starts_at_origin():
    dag = build_dag([task("only", 4.0)])
    tls = timelines(resource("r1"))
    partial = schedule_cluster(Cluster("C1", ("only",)), dag, tls, "a1")
    assert partial.placements["only"] == Placement("only", "r1", "a1", 0.0, 4.0)


def test_independent_tasks_spread_over_resources():
    dag = build_dag([task("a", 2.0), task("b", 3.0)])
    tls = timelines(resource("r1"), resource("r2"))
    partial = schedule_cluster(Cluster("C1", ("a", "b")), dag, tls, "a1")
    assert partial.placements["a"].start == 0.0
    assert partial.placements["b"].start == 0.0
    assert {partial.placements["a"].resource_id,
            partial.placements["b"].resource_id} == {"r1", "r2"}
    # a (decided first) takes the lowest resource id
    assert partial.placements["a"].resource_id == "r1"


def test_gap_filling_between_reservations():
    r1 = resource("r1")
    tls = timelines(r1)
    tls["r1"].reserve("warm", 0.0, 2.0)
    tls["r1"].reserve("late", 5.0, 4.0)
    dag = build_dag([task("t", 3.0)])
    partial = schedule_cluster(Cluster("C1", ("t",)), dag, tls, "a1")
    assert partial.placements["t"].start == 2.0  # the [2, 5) hole fits exactly


def test_zero_duration_task_placed_at_ready_time():
    tls = timelines(resource("r1"))
    tls["r1"].reserve("busy", 0.0, 10.0)
    dag = build_dag([task("z", 0.0)])
    partial = schedule_cluster(Cluster("C1", ("z",)), dag, tls, "a1")
    assert partial.placements["z"].start == 0.0
    assert partial.placements["z"].end == 0.0


def test_infeasible_task_is_named():
    dag = build_dag([task("heavy", 1.0, memory=8.0)])
    tls = timelines(resource("r1", memory=4.0))
    with pytest.raises(InfeasibleTaskError) as err:
        schedule_cluster(Cluster("C1", ("heavy",)), dag, tls, "a1")
    assert err.value.task_id == "heavy"


def test_infeasible_task_late_in_decision_order_is_named_with_its_needs():
    # blocks [a, c] then [b]: b is decided third, after a and c are placed
    dag = build_dag([
        task("a"), task("b", memory=8.0, cpu=2.0, deps=[("a", 0.5)]), task("c"),
    ])
    tls = timelines(resource("r1", memory=4.0))
    with pytest.raises(InfeasibleTaskError) as err:
        schedule_cluster(Cluster("C1", ("a", "b", "c")), dag, tls, "a1")
    assert str(err.value) == (
        "task 'b' has no eligible resource: agent a1 has no resource with "
        "memory >= 8.0 and cpuPower >= 2.0"
    )


def test_cycle_in_a_cluster_raises_its_witness_before_any_reservation():
    # a TaskDag built by hand, since build_dag refuses the cycle
    dag = TaskDag({
        "a": task("a", deps=[("b", 1.0)]),
        "b": task("b", deps=[("a", 1.0)]),
        "c": task("c"),
    })
    tls = timelines(resource("r1"), resource("r2"))
    with pytest.raises(CycleError) as err:
        schedule_cluster(Cluster("C1", ("a", "b", "c")), dag, tls, "a1")
    assert str(err.value) == "dependency cycle: a -> b -> a"
    for tl in tls.values():
        assert (tl._gap_starts, tl._gap_ends) == ([-math.inf], [math.inf])


def test_timelines_persist_across_clusters():
    dag = build_dag([task("a", 3.0), task("b", 3.0)])
    tls = timelines(resource("r1"))
    first = schedule_cluster(Cluster("C1", ("a",)), dag, tls, "a1")
    second = schedule_cluster(Cluster("C2", ("b",)), dag, tls, "a1")
    assert first.placements["a"].start == 0.0
    assert second.placements["b"].start == 3.0  # r1 already booked by C1
    assert tls["r1"].earliest_fit(0.0, 1.0) == 6.0  # [0, 6) stays booked


def test_reserve_rejects_overlap():
    tl = ResourceTimeline(resource("r1"))
    for task_id, slot_start in (("c", 4.0), ("a", 0.0), ("b", 2.0)):
        tl.reserve(task_id, slot_start, 1.0)
    for start, duration in [
        (0.5, 1.0),  # starts inside a, runs past it
        (1.5, 3.0),  # starts in the gap before b, runs over b and c
        (0.5, 3.0),  # starts inside a, runs over a and b
    ]:
        with pytest.raises(StructuralError, match="fits no free gap on r1"):
            tl.reserve("x", start, duration)
    assert tl.earliest_fit(0.0, 1.0) == 1.0  # the refusals changed nothing


@pytest.mark.parametrize(
    "start, duration, named",
    [
        (1.5, 3.0, "b"),  # starts in the gap before b, runs over b and c
        (0.5, 3.0, "a"),  # starts inside a, runs over a and b
    ],
)
def test_reserve_names_the_earliest_overlapped_slot(start, duration, named):
    slots = {"a": (0.0, 1.0), "b": (2.0, 3.0), "c": (4.0, 5.0)}
    tl = ResourceTimeline(resource("r1"))
    for task_id in ("c", "a", "b"):
        lo, hi = slots[task_id]
        tl.reserve(task_id, lo, hi - lo)
    lo, hi = slots[named]
    overlap = re.escape(f"on r1: it overlaps booked [{lo}, {hi})")
    with pytest.raises(StructuralError, match=overlap):
        tl.reserve("x", start, duration)


@pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
def test_reserve_names_adjacent_reservations_as_one_stretch(order):
    slots = {"a": (0.0, 1.0), "b": (1.0, 1.0)}  # b starts where a ends
    tl = ResourceTimeline(resource("r1"))
    for task_id in order:
        tl.reserve(task_id, *slots[task_id])
    with pytest.raises(StructuralError, match=re.escape("overlaps booked [0.0, 2.0)")):
        tl.reserve("x", 1.0, 0.5)


def test_reserve_rejects_a_start_in_no_gap():
    tl = ResourceTimeline(resource("r1"))
    with pytest.raises(StructuralError, match="fits no free gap on r1"):
        tl.reserve("x", float("nan"), 1.0)
    assert tl.earliest_fit(0.0, 1.0) == 0.0  # the timeline is unchanged


def test_fitted_start_is_one_reserve_accepts_off_grid():
    tl = ResourceTimeline(resource("r1"))
    tl.reserve("a", 0.0, 2.166)
    tl.reserve("b", 6.444999999999999, 1.0)
    # 6.444999999999999 - 2.166 == 4.279, but 2.166 + 4.279 runs past b's start
    start = tl.earliest_fit(0.0, 4.279)
    assert start == 7.444999999999999
    tl.reserve("c", start, 4.279)


thousandths = st.integers(0, 12_000).map(lambda k: k / 1000)
durations = st.one_of(st.just(0.0), st.integers(1, 4000).map(lambda k: k / 1000))


@settings(deadline=None, max_examples=300)
@given(
    st.lists(
        # an int ready stands for the end of an earlier reservation, so that
        # requests also start exactly on off-grid slot boundaries
        st.tuples(st.one_of(thousandths, st.integers(0, 40)), durations),
        max_size=30,
    )
)
@example([(0.0, 1.0), (0.0, 1.0), (0.5, 0.5)])  # touching slots, ready inside one
@example([(0.0, 1.0), (5.0, 1.0), (2.0, 3.0), (9.0, 2.0)])  # fills a gap; past the tail
@example([(0.0, 2.0), (1.0, 0.0), (1.0, 0.0), (0, 1.5)])  # zero durations inside a slot
@example([(0.0, 2.166), (6.169, 1.0), (0.0, 4.003)])  # 6.169 - 2.166 >= 4.003 > gap
@example([(0.0, 1.0), (3.0, 1.0), (2.0, 1.0), (0.0, 1.5)])  # a slot ending a gap
def test_fits_match_brute_force_and_reserve_accepts_them(steps):
    tl = ResourceTimeline(resource("r1"))
    reserved = []
    for i, (ready, duration) in enumerate(steps):
        if isinstance(ready, int):
            ready = reserved[ready % len(reserved)][1] if reserved else 0.0
        start = tl.earliest_fit(ready, duration)
        assert start == brute_force_earliest(reserved, ready, duration)
        tl.reserve(f"t{i:02d}", start, duration)
        reserved.append((start, start + duration))
    assert_disjoint(reserved)


def test_intra_cluster_constraints_hold_and_selection_is_optimal():
    rng = random.Random(5)
    for seed in range(30):
        n = rng.randint(1, 10)
        tasks = generate_workload(seed, n, rng.randint(1, min(n, 3)), 0.4)
        resources, _ = make_pool(rng, 1, rng.randint(1, 4))
        tls = timelines(*resources)
        dag = build_dag(tasks)
        cluster = Cluster("C1", tuple(sorted(dag.tasks)))
        partial = schedule_cluster(cluster, dag, tls, "a1")

        # every edge constraint holds, with comm owed only across resources
        for (p, s), comm in edge_costs(dag).items():
            pp, ss = partial.placements[p], partial.placements[s]
            required = pp.end if pp.resource_id == ss.resource_id else pp.end + comm
            assert ss.start >= required
        # no overlapping placements on any resource
        for rid in tls:
            assert_disjoint([
                (p.start, p.end)
                for p in partial.placements.values()
                if p.resource_id == rid
            ])
        # exchange property: no eligible resource offered a strictly earlier start
        assert check_selection_rule(
            cluster.tasks, dag, resources, {}, partial.placements
        ) == []


@st.composite
def clustered_dags(draw):
    """A random DAG with ids shuffled against topological order, split into
    1-4 clusters taken in a random order, and a pool of 1-3 resources of
    which the first hosts every task."""
    n = draw(st.integers(1, 16))
    ids = draw(st.permutations([f"t{i:02d}" for i in range(n)]))  # by topo position
    quarters = st.integers(0, 12).map(lambda q: q * 0.25)
    tasks = []
    for i in range(n):
        preds = draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else ()
        deps = tuple(Dependency(ids[j], draw(quarters)) for j in sorted(preds))
        tasks.append(TaskSpec(
            ids[i], draw(quarters), draw(quarters), draw(quarters), None, deps
        ))
    owner = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    clusters = [
        Cluster(f"C{c}", tuple(sorted(ids[i] for i in range(n) if owner[i] == c)))
        for c in draw(st.permutations(sorted(set(owner))))
    ]
    pool = [resource("r0", memory=3.0, cpu=3.0)] + [
        resource(f"r{k}", memory=draw(quarters), cpu=draw(quarters))
        for k in range(1, draw(st.integers(1, 3)))
    ]
    return tasks, clusters, pool


@settings(deadline=None, max_examples=200)
@given(clustered_dags())
def test_job_dag_and_restricted_fragments_schedule_alike(case):
    # Phase 2 reads the one job DAG; a fragment restricted to the cluster
    # must give the same placements and leave the same free gaps.
    tasks, clusters, pool = case
    dag = build_dag(tasks)
    whole, fragments = timelines(*pool), timelines(*pool)
    for cluster in clusters:
        got = schedule_cluster(cluster, dag, whole, "a1")
        expected = schedule_cluster(
            cluster, dag.restrict(cluster.tasks), fragments, "a1"
        )
        assert got == expected
        assert list(got.placements) == list(expected.placements)
    for rid, tl in whole.items():
        assert tl._gap_starts == fragments[rid]._gap_starts
        assert tl._gap_ends == fragments[rid]._gap_ends


def check_phase2_against_reference(rng):
    """``schedule_cluster`` on ``phase2_instance(rng)`` gives the placements
    of ``reference_schedule_cluster`` in the same decision order, cluster by
    cluster on one set of timelines, and leaves the same free gaps; where
    the reference finds a task no resource hosts, it names the same task."""
    tasks, clusters, pool, bookings = phase2_instance(rng)
    dag = build_dag(tasks)
    tls = {r.resource_id: ResourceTimeline(r) for r in pool}  # not in id order
    busy = {r.resource_id: [] for r in pool}
    for rid, start, duration in bookings:
        tls[rid].reserve("booked", start, duration)
        busy[rid].append((start, start + duration))
    for cluster_id, members in clusters:
        cluster = Cluster(cluster_id, members)
        try:
            expected = reference_schedule_cluster(members, dag, pool, busy, "A1")
        except InfeasibleTaskError as exc:
            with pytest.raises(InfeasibleTaskError) as err:
                schedule_cluster(cluster, dag, tls, "A1")
            assert err.value.task_id == exc.task_id
            break
        got = schedule_cluster(cluster, dag, tls, "A1")
        assert list(got.placements.items()) == list(expected.items())
    for rid, tl in tls.items():
        assert (tl._gap_starts, tl._gap_ends) == free_gaps(busy[rid])


@settings(deadline=None, max_examples=150)
@given(st.randoms(use_true_random=False))
def test_phase2_matches_the_reference(rng):
    check_phase2_against_reference(rng)


def shifted_gaps(partial):
    items = sorted(partial.placements.items())
    return [
        (a, b, pb.start - pa.start, pb.end - pa.end, pb.end - pa.start)
        for a, pa in items
        for b, pb in items
    ]


def test_delay_with_empty_report_is_identity():
    partial = PartialSchedule(
        "C1", {"t": Placement("t", "r1", "a1", 3.0, 5.0)}
    )
    assert apply_dependency_delays(partial, []) == partial


def test_delay_shifts_whole_cluster():
    partial = PartialSchedule(
        "C1",
        {
            "t": Placement("t", "r1", "a1", 3.0, 5.0),
            "u": Placement("u", "r2", "a1", 4.0, 6.0),
        },
    )
    moved = apply_dependency_delays(partial, [("t", 7.0)])
    assert moved.placements["t"].start == 7.0
    assert moved.placements["u"].start == 8.0
    assert shifted_gaps(moved) == shifted_gaps(partial)


def test_delay_already_satisfied_is_noop():
    partial = PartialSchedule(
        "C1", {"t": Placement("t", "r1", "a1", 5.0, 6.0)}
    )
    assert apply_dependency_delays(partial, [("t", 2.0)]) == partial


def test_delay_takes_worst_shortfall():
    partial = PartialSchedule(
        "C1",
        {
            "t": Placement("t", "r1", "a1", 0.0, 1.0),
            "u": Placement("u", "r1", "a1", 2.0, 3.0),
        },
    )
    moved = apply_dependency_delays(partial, [("t", 1.0), ("u", 6.0)])
    assert moved.placements["t"].start == 4.0  # shift by 6 - 2 = 4
    assert moved.placements["u"].start == 6.0


def test_delay_rejects_unknown_task():
    partial = PartialSchedule(
        "C1", {"t": Placement("t", "r1", "a1", 0.0, 1.0)}
    )
    with pytest.raises(ProtocolError, match="ghost"):
        apply_dependency_delays(partial, [("ghost", 1.0)])


def test_delay_steps_past_a_one_ulp_shortfall():
    # 47.76 - 13.3 rounds down, and 13.3 plus it lands one ulp short of 47.76
    partial = PartialSchedule(
        "C1",
        {
            "t": Placement("t", "r1", "a1", 13.3, 15.3),
            "u": Placement("u", "r2", "a1", 20.0, 21.0),
        },
    )
    shortfall = 47.76 - 13.3
    assert 13.3 + shortfall < 47.76
    moved = apply_dependency_delays(partial, [("t", 47.76)])
    delta = math.nextafter(shortfall, math.inf)
    assert moved == partial.shifted(delta)
    assert moved.placements["t"].start >= 47.76


def test_rigid_shift_past_the_largest_float_names_the_first_task_in_decision_order():
    # the shortfall falls one float short of the entry, and the step up
    # makes start + shortfall overflow; so does a's, but t comes first
    start = 1.1096546374014922e306
    partial = PartialSchedule(
        "C1",
        {
            "b": Placement("b", "r1", "a1", 0.0, 1.0),
            "t": Placement("t", "r1", "a1", start, start + 1.0),
            "a": Placement("a", "r2", "a1", start, start + 1.0),
        },
    )
    shortfall = sys.float_info.max - start
    assert start + shortfall < sys.float_info.max
    assert start + math.nextafter(shortfall, math.inf) == math.inf
    with pytest.raises(ValidationError) as err:
        apply_dependency_delays(partial, [("t", sys.float_info.max)])
    assert str(err.value) == (
        "task 't' would end past the largest finite time; "
        "its processing and communication times are too large"
    )
    # a shifted start can stay finite while the end overflows
    long = PartialSchedule("C2", {"u": Placement("u", "r1", "a1", 0.0, 1.5e308)})
    with pytest.raises(ValidationError, match="^task 'u' would end past"):
        apply_dependency_delays(long, [("u", 1e308)])


def shift_of(partial, moved, readiness):
    """The one float ``d`` with ``moved == partial.shifted(d)``, searched
    upwards from the largest raw shortfall."""
    delta = max([0.0] + [ready - partial.placements[t].start for t, ready in readiness])
    for _ in range(8):
        if moved == partial.shifted(delta):
            return delta
        delta = math.nextafter(delta, math.inf)
    raise AssertionError("placements did not move by one common shift")


millis = st.integers(0, 10**6).map(lambda k: k / 1000)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(millis, st.none() | millis), min_size=1, max_size=6))
@example([(13.3, 47.76), (20.0, None)])
def test_rigid_shift_meets_every_entry_with_one_least_delta(pairs):
    # one task per (start, ready) pair; a ready of None reports nothing
    partial = PartialSchedule(
        "C1",
        {
            f"t{i}": Placement(f"t{i}", "r1", "a1", start, start + 1.5)
            for i, (start, _) in enumerate(pairs)
        },
    )
    readiness = [
        (f"t{i}", ready) for i, (_, ready) in enumerate(pairs) if ready is not None
    ]
    moved = apply_dependency_delays(partial, readiness)
    for task_id, ready in readiness:
        assert moved.placements[task_id].start >= ready
    delta = shift_of(partial, moved, readiness)
    # one step less would leave an entry unmet, unless no step was taken
    raw = max([0.0] + [r - partial.placements[t].start for t, r in readiness])
    if delta > raw:
        less = math.nextafter(delta, -math.inf)
        assert any(
            partial.placements[t].start + less < r for t, r in readiness
        )


any_time = st.floats(min_value=0.0, max_value=sys.float_info.max)


@st.composite
def start_and_ready(draw):
    # magnitudes drawn apart, or a ready time within a factor of four of start
    start = draw(any_time)
    near = st.floats(0.25, 4.0).map(lambda k: min(start * k, sys.float_info.max))
    return start, draw(any_time | near)


@settings(deadline=None, max_examples=500)
@given(start_and_ready())
@example((13.3, 47.76))
@example((7.52189568548071e-309, 1.2937221538430822e-307))
@example((1.1096546374014922e306, sys.float_info.max))
def test_one_float_step_up_always_meets_a_readiness_entry(pair):
    start, ready = pair
    shortfall, steps = ready - start, 0
    while start + shortfall < ready:
        shortfall = math.nextafter(shortfall, math.inf)
        steps += 1
    assert steps <= 1
    partial = PartialSchedule("C1", {"t": Placement("t", "r1", "a1", start, start)})
    if start + shortfall == math.inf:  # the step up overflows, as in the last example
        with pytest.raises(ValidationError, match="^task 't' would end past"):
            apply_dependency_delays(partial, [("t", ready)])
        return
    moved = apply_dependency_delays(partial, [("t", ready)])
    assert moved == partial.shifted(max(0.0, shortfall))


def test_actor_needs_a_spec_for_every_resource_it_lists():
    with pytest.raises(
        StructuralError, match="^agent 'a1' given no spec for: r2, r3$"
    ):
        AgentActor(
            AgentSpec("a1", ("r3", "r1", "r2")), [resource("r1")], build_dag([])
        )


def test_actor_rejects_readiness_for_an_unassigned_cluster():
    actor = AgentActor(AgentSpec("a1", ("r1",)), [resource("r1")], build_dag([]))
    message = Message(
        MessageKind.DEPENDENCY_INFO, BROKER, "a1",
        (("t", 1.0),), "C9",
    )
    with pytest.raises(ProtocolError, match="unassigned cluster 'C9'"):
        actor.handle(message)


def test_actor_rejects_a_kind_it_cannot_handle():
    actor = AgentActor(AgentSpec("a1", ("r1",)), [resource("r1")], build_dag([]))
    partial = PartialSchedule("C1", {"t": Placement("t", "r1", "a1", 0.0, 1.0)})
    message = Message(MessageKind.CLUSTER_SCHEDULED, BROKER, "a1", partial, "C1")
    with pytest.raises(ProtocolError, match="cannot handle ClusterScheduled"):
        actor.handle(message)
