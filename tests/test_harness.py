"""Validator oracle behavior, generator determinism, and metrics."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coalloc import (
    AgentSpec,
    Dependency,
    FinalSchedule,
    Placement,
    ResourceSpec,
    TaskSpec,
    ValidationError,
    ViolationReport,
    build_dag,
    compute_metrics,
    generate_workload,
    orchestrate,
    serialize_task_set,
    validate_schedule,
)
from coalloc.harness import TIME_GRID
from conftest import corpus_instance, off_grid_instance
from oracles import all_pairs_overlaps, exact_shortfalls, reference_validate


def simple_world(tasks):
    dag = build_dag(tasks)
    resources = [
        ResourceSpec("r1", "r1", "c", "f", 4.0, 4.0, 90.0),
        ResourceSpec("r2", "r2", "c", "f", 4.0, 4.0, 90.0),
    ]
    agents = [AgentSpec("a1", ("r1", "r2"))]
    return dag, resources, agents


def place(task_id, rid, start, end, agent="a1"):
    return Placement(task_id, rid, agent, start, end)


def test_engine_output_passes_validation(engineered):
    result = orchestrate(engineered.tasks, engineered.resources, engineered.agents)
    report = validate_schedule(
        result.schedule, result.dag, engineered.resources, engineered.agents
    )
    assert report.is_empty()
    assert report.lines() == []


def test_overlap_detected():
    tasks = [TaskSpec("a", 2.0, 0.0, 0.0), TaskSpec("b", 2.0, 0.0, 0.0)]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule(
        (place("a", "r1", 0.0, 2.0), place("b", "r1", 1.0, 3.0)), 3.0
    )
    report = validate_schedule(schedule, dag, resources, agents)
    assert report.overlaps == [("r1", "a", "b")]
    assert not report.precedence_violations
    assert not report.is_empty()


def test_zero_duration_rows_never_overlap():
    tasks = [TaskSpec("a", 2.0, 0.0, 0.0), TaskSpec("z", 0.0, 0.0, 0.0)]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule(
        (place("a", "r1", 0.0, 2.0), place("z", "r1", 1.0, 1.0)), 2.0
    )
    assert validate_schedule(schedule, dag, resources, agents).is_empty()


@st.composite
def crowded_rows(draw):
    """Rows on two resources with grid starts, zero-length rows included."""
    n = draw(st.integers(0, 30))
    rows = []
    for i in range(n):
        start = draw(st.integers(0, 40)) * 0.5
        length = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5, 12.0]))
        rid = draw(st.sampled_from(["r1", "r2"]))
        rows.append(place(f"t{i:02d}", rid, start, start + length))
    return rows


@settings(deadline=None, max_examples=300)
@given(crowded_rows())
@example(
    [
        place("long", "r1", 0.0, 10.0),  # overlaps the four rows that follow
        place("b", "r1", 1.0, 2.0),
        place("c", "r1", 3.0, 4.0),
        place("d", "r1", 5.0, 9.5),
        place("e", "r1", 9.0, 11.0),
        place("f", "r1", 10.0, 12.0),  # touches long's end: no overlap
        place("z0", "r1", 0.0, 0.0),
        place("z5", "r1", 5.0, 5.0),
        place("z10", "r1", 10.0, 10.0),
    ]
)
def test_overlaps_match_all_pairs_scan(rows):
    tasks = [TaskSpec(p.task_id, p.end - p.start, 0.0, 0.0) for p in rows]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule(tuple(rows), max((p.end for p in rows), default=0.0))
    report = validate_schedule(schedule, dag, resources, agents)
    assert report.overlaps == all_pairs_overlaps(rows)


def test_cross_resource_precedence_violation():
    tasks = [
        TaskSpec("p", 2.0, 0.0, 0.0),
        TaskSpec("s", 1.0, 0.0, 0.0, None, (Dependency("p", 1.0),)),
    ]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule(
        (place("p", "r1", 0.0, 2.0), place("s", "r2", 1.0, 2.0)), 2.0
    )
    report = validate_schedule(schedule, dag, resources, agents)
    assert report.precedence_violations == [("p", "s", 3.0, 1.0)]


def test_exact_shortfalls_flag_a_dropped_comm_time_and_a_short_row():
    # s starts when p ends on another resource, so it is short by the whole
    # commTime, and its row runs a quarter past its processing time
    tasks = [
        TaskSpec("p", 1.5),
        TaskSpec("s", 1.0, dependencies=(Dependency("p", 0.375),)),
    ]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule(
        (place("p", "r1", 0.0, 1.5), place("s", "r2", 1.5, 2.75)), 2.75
    )
    assert exact_shortfalls(schedule, dag) == [
        ("p", "s", Fraction(3, 8)),
        ("s", "s", Fraction(1, 4)),
    ]
    report = validate_schedule(schedule, dag, resources, agents)
    assert report.precedence_violations == [("p", "s", 1.875, 1.5)]
    assert report.duration_mismatches == [("s", 2.5, 2.75)]


@settings(deadline=None, max_examples=30)
@given(st.randoms(use_true_random=False))
def test_engine_meets_the_float_contract_within_one_ulp(rng):
    instance = off_grid_instance(rng)
    result = orchestrate(instance.tasks, instance.resources, instance.agents)
    assert exact_shortfalls(result.schedule, result.dag) == []


def test_precedence_violations_by_task_then_declared_dependency():
    # Tasks in input order (d before c), each task's dependencies as
    # declared (b before a), not in id order.
    deps = (Dependency("b", 1.0), Dependency("a", 3.0))
    tasks = [
        TaskSpec("a", 1.0),
        TaskSpec("b", 1.0),
        TaskSpec("d", 1.0, dependencies=deps),
        TaskSpec("c", 1.0, dependencies=deps),
    ]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule(
        (
            place("a", "r1", 0.0, 1.0),
            place("b", "r1", 1.0, 2.0),
            place("c", "r2", 0.0, 1.0),
            place("d", "r2", 1.0, 2.0),
        ),
        2.0,
    )
    report = validate_schedule(schedule, dag, resources, agents)
    assert report.precedence_violations == [
        ("b", "d", 3.0, 1.0),
        ("a", "d", 4.0, 1.0),
        ("b", "c", 3.0, 0.0),
        ("a", "c", 4.0, 0.0),
    ]


def test_same_resource_needs_no_comm_time():
    tasks = [
        TaskSpec("p", 2.0, 0.0, 0.0),
        TaskSpec("s", 1.0, 0.0, 0.0, None, (Dependency("p", 9.0),)),
    ]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule(
        (place("p", "r1", 0.0, 2.0), place("s", "r1", 2.0, 3.0)), 3.0
    )
    assert validate_schedule(schedule, dag, resources, agents).is_empty()


def test_eligibility_violation_detected():
    tasks = [TaskSpec("needy", 1.0, 9.0, 0.0)]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule((place("needy", "r1", 0.0, 1.0),), 1.0)
    report = validate_schedule(schedule, dag, resources, agents)
    assert report.eligibility_violations == [("needy", "r1")]
    assert report.lines() == ["eligibility: needy cannot run on r1"]


def test_wrong_agent_counts_as_eligibility_violation():
    tasks = [TaskSpec("t", 1.0, 0.0, 0.0)]
    dag, resources, _ = simple_world(tasks)
    agents = [AgentSpec("a1", ("r1",)), AgentSpec("a2", ("r2",))]
    schedule = FinalSchedule(
        (Placement("t", "r2", "a1", 0.0, 1.0),), 1.0
    )
    report = validate_schedule(schedule, dag, resources, agents)
    assert report.eligibility_violations == [("t", "r2")]


@pytest.mark.parametrize("need", ["memory", "cpu_power"])
def test_task_fits_a_resource_of_exactly_its_need(need):
    dag, resources, agents = simple_world([TaskSpec("t", 1.0, **{need: 4.0})])
    schedule = FinalSchedule((place("t", "r1", 0.0, 1.0),), 1.0)
    assert validate_schedule(schedule, dag, resources, agents).is_empty()
    more = {need: math.nextafter(4.0, math.inf)}
    dag = build_dag([TaskSpec("t", 1.0, **more)])
    report = validate_schedule(schedule, dag, resources, agents)
    assert report.eligibility_violations == [("t", "r1")]


def test_deadline_miss_detected():
    tasks = [TaskSpec("late", 5.0, 0.0, 0.0, deadline_time=4.0)]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule((place("late", "r1", 0.0, 5.0),), 5.0)
    report = validate_schedule(schedule, dag, resources, agents)
    assert report.deadline_misses == [("late", 5.0, 4.0)]


def test_duration_mismatch_detected():
    tasks = [TaskSpec("t", 2.0, 0.0, 0.0)]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule((place("t", "r1", 0.0, 5.0),), 5.0)
    report = validate_schedule(schedule, dag, resources, agents)
    assert report.duration_mismatches == [("t", 2.0, 5.0)]


def test_each_violation_report_gets_its_own_lists():
    first, second = ViolationReport(), ViolationReport()
    lists = [getattr(r, name) for r in (first, second) for name in r.__slots__]
    assert len(lists) == 2 * len(ViolationReport.__slots__)
    assert len({id(v) for v in lists}) == len(lists)
    first.overlaps.append(("r1", "a", "b"))
    assert second.is_empty()


@pytest.mark.parametrize("u_start", [0.0, math.inf])
def test_validator_refuses_an_infinite_end(u_start):
    # u comes first in the DAG's task order; the least id t is named
    tasks = [TaskSpec("u", 2.0, 0.0, 0.0), TaskSpec("t", 2.0, 0.0, 0.0)]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule(
        (place("u", "r1", u_start, math.inf), place("t", "r1", 3.0, math.inf)),
        math.inf,
    )
    with pytest.raises(ValidationError, match="^placement of 't': end must be finite$"):
        validate_schedule(schedule, dag, resources, agents)


def test_deadline_is_met_at_equality_and_missed_one_float_later():
    tasks = [TaskSpec("t", 4.0, 0.0, 0.0, deadline_time=4.0)]
    dag, resources, agents = simple_world(tasks)
    on_time = FinalSchedule((place("t", "r1", 0.0, 4.0),), 4.0)
    assert validate_schedule(on_time, dag, resources, agents).is_empty()
    late_end = math.nextafter(4.0, math.inf)
    late = FinalSchedule((place("t", "r1", 0.0, late_end),), late_end)
    report = validate_schedule(late, dag, resources, agents)
    assert report.deadline_misses == [("t", late_end, 4.0)]


@pytest.mark.parametrize("direction", [math.inf, -math.inf])
def test_row_one_ulp_off_its_processing_time_is_a_mismatch(direction):
    tasks = [TaskSpec("t", 0.1, 0.0, 0.0)]
    dag, resources, agents = simple_world(tasks)
    exact = 0.3 + 0.1
    end = math.nextafter(exact, direction)
    schedule = FinalSchedule((place("t", "r1", 0.3, end),), end)
    report = validate_schedule(schedule, dag, resources, agents)
    assert report.duration_mismatches == [("t", exact, end)]


def test_overlaps_with_equal_starts_do_not_depend_on_row_order():
    rows = [
        place("a", "r1", 1.0, 4.0),
        place("b", "r1", 1.0, 2.0),
        place("c", "r1", 1.0, 3.0),
        place("d", "r1", 2.5, 5.0),
    ]
    tasks = [TaskSpec(p.task_id, p.end - p.start, 0.0, 0.0) for p in rows]
    dag, resources, agents = simple_world(tasks)
    expected = [
        ("r1", "a", "b"), ("r1", "a", "c"), ("r1", "a", "d"),
        ("r1", "b", "c"), ("r1", "c", "d"),
    ]
    for order in itertools.permutations(rows):
        schedule = FinalSchedule(order, 5.0)
        report = validate_schedule(schedule, dag, resources, agents)
        assert report.overlaps == expected, [p.task_id for p in order]


def test_validator_requires_full_coverage():
    tasks = [TaskSpec("a", 1.0, 0.0, 0.0), TaskSpec("b", 1.0, 0.0, 0.0)]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule((place("a", "r1", 0.0, 1.0),), 1.0)
    with pytest.raises(ValidationError, match="misses"):
        validate_schedule(schedule, dag, resources, agents)


def test_validator_rejects_a_task_placed_twice():
    tasks = [TaskSpec("a", 1.0, 0.0, 0.0)]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule(
        (place("a", "r1", 0.0, 1.0), place("a", "r1", 1.0, 2.0)), 2.0
    )
    with pytest.raises(ValidationError, match="places some task twice"):
        validate_schedule(schedule, dag, resources, agents)


def test_validator_rejects_unknown_tasks():
    tasks = [TaskSpec("a", 1.0, 0.0, 0.0)]
    dag, resources, agents = simple_world(tasks)
    schedule = FinalSchedule(
        (place("a", "r1", 0.0, 1.0), place("ghost", "r1", 1.0, 2.0)), 2.0
    )
    with pytest.raises(ValidationError, match="unknown tasks: ghost"):
        validate_schedule(schedule, dag, resources, agents)


def corrupted_schedule(rng: random.Random, scenario):
    """The engine's schedule of ``scenario``, corrupted at random:
    ``(schedule, dag, resources, agents)`` for the validator.

    Each corruption applies with probability 0.3: starts shifted (rows kept
    whole or cut at their end), tasks moved to another resource or agent
    (unknown ones too), ends moved one ulp, deadlines that some tasks meet
    exactly and others miss, memory and cpuPower needs raised to their
    resource's capacity or one float past it, zero-length rows, rows made
    to share a start on one resource, and the DAG's task order shuffled.
    The placements tuple is shuffled half of the time. One case in eight
    gives some tasks an infinite end, and one in eight drops, adds or
    duplicates a placement. The validator must refuse those cases, so most
    cases are left to compare list for list.
    """
    result = orchestrate(scenario.tasks, scenario.resources, scenario.agents)
    rows = {p.task_id: p for p in result.schedule.placements}
    specs = dict(result.dag.tasks)
    ids = list(rows)
    rids = [r.resource_id for r in scenario.resources] + ["R?"]
    agent_ids = [a.agent_id for a in scenario.agents] + ["A?"]

    def some() -> list[str]:
        return rng.sample(ids, min(len(ids), rng.randint(1, 4)))

    def put(task_id: str, **changes) -> None:
        p = rows[task_id]
        fields = dict(
            resource_id=p.resource_id, agent_id=p.agent_id, start=p.start, end=p.end
        )
        fields.update(changes)
        rows[task_id] = Placement(task_id, **fields)

    if rng.random() < 0.3:
        for t in some():
            p = rows[t]
            start = max(0.0, p.start + rng.randint(-4000, 4000) / 1000)
            end = start + p.duration if rng.random() < 0.5 else max(p.end, start)
            put(t, start=start, end=end)
    if rng.random() < 0.3:
        for t in some():
            if rng.random() < 0.5:
                put(t, resource_id=rng.choice(rids))
            else:
                put(t, agent_id=rng.choice(agent_ids))
    if rng.random() < 0.3:
        for t in some():
            p = rows[t]
            down = math.nextafter(p.end, -math.inf)
            up = math.nextafter(p.end, math.inf)
            put(t, end=down if down >= p.start and rng.random() < 0.5 else up)
    if rng.random() < 0.3:
        for t in some():
            end = rows[t].end
            deadline = rng.choice(
                [end, math.nextafter(end, -math.inf), end - 1.0, end + 1.0]
            )
            specs[t] = specs[t]._replace(deadline_time=max(0.0, deadline))
    if rng.random() < 0.3:
        capacity = {r.resource_id: r for r in scenario.resources}
        for t in some():
            host = capacity.get(rows[t].resource_id)
            if host is not None:
                specs[t] = specs[t]._replace(**{
                    need: rng.choice([have, math.nextafter(have, math.inf)])
                    for need, have in (
                        ("memory", host.memory), ("cpu_power", host.cpu_power)
                    )
                })
    if rng.random() < 0.3:
        for t in some():
            put(t, end=rows[t].start)
    if rng.random() < 0.3:
        rid = rng.choice(rids)
        at = rows[rng.choice(ids)].start
        for t in some():
            put(t, resource_id=rid, start=at, end=at + rng.choice([0.0, 0.5, 1.0, 2.5]))
    if rng.random() < 1 / 8:
        for t in some():
            put(t, end=math.inf)
    order = list(specs.values())
    if rng.random() < 0.3:
        rng.shuffle(order)
    placements = list(rows.values())
    if rng.random() < 0.5:
        rng.shuffle(placements)
    if rng.random() < 1 / 8:
        fault = rng.choice(["missing", "extra", "twice"])
        if fault == "missing":
            placements.remove(rng.choice(placements))
        elif fault == "extra":
            placements.append(Placement("ghost", rids[0], agent_ids[0], 0.0, 1.0))
        else:
            placements.insert(rng.randrange(len(placements) + 1), rng.choice(placements))
    makespan = max((p.end for p in placements), default=0.0)
    schedule = FinalSchedule(tuple(placements), makespan)
    return schedule, build_dag(order), scenario.resources, scenario.agents


def validator_outcome(validate, args):
    """What ``validate(*args)`` reports: its lists and ``lines()``, or the
    message of the ``ValidationError`` it raises."""
    try:
        report = validate(*args)
    except ValidationError as error:
        return f"ValidationError: {error}"
    return [getattr(report, name) for name in report.__slots__], report.lines()


def check_validator_against_reference(rng: random.Random, scenario) -> bool:
    """``validate_schedule`` reports exactly what ``reference_validate``
    reports on a corrupted engine schedule of ``scenario``, or raises the
    same error; returns whether they raised."""
    args = corrupted_schedule(rng, scenario)
    outcome = validator_outcome(validate_schedule, args)
    assert outcome == validator_outcome(reference_validate, args)
    return isinstance(outcome, str)


@settings(deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False), st.booleans())
def test_validator_matches_its_reference_on_corrupted_schedules(rng, off_grid):
    if off_grid:
        scenario = off_grid_instance(rng)
    else:
        scenario = corpus_instance(rng.randrange(10_000))
    check_validator_against_reference(rng, scenario)


def test_generate_empty_and_edgeless():
    assert generate_workload(1, 0, 1, 0.5) == []
    tasks = generate_workload(2, 12, 3, 0.0)
    assert all(not t.dependencies for t in tasks)


def test_generate_is_deterministic():
    a = generate_workload(42, 20, 4, 0.3)
    b = generate_workload(42, 20, 4, 0.3)
    assert a == b
    assert serialize_task_set(a) == serialize_task_set(b)


def test_generate_values_on_grid_and_acyclic():
    for seed in range(25):
        tasks = generate_workload(seed, 30, 5, 0.3, deadline_probability=0.3)
        dag = build_dag(tasks)  # raises on any cycle
        for t in tasks:
            assert (t.processing_time / TIME_GRID).is_integer()
            for d in t.dependencies:
                assert (d.comm_time / TIME_GRID).is_integer()
            if t.deadline_time is not None:
                assert t.deadline_time >= t.processing_time
        assert len(dag.tasks) == 30


def test_generate_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        generate_workload(1, 10, 0, 0.5)
    with pytest.raises(ValidationError):
        generate_workload(1, 10, 11, 0.5)
    with pytest.raises(ValidationError):
        generate_workload(1, 10, 2, 1.5)
    with pytest.raises(ValidationError, match="deadline_probability"):
        generate_workload(1, 10, 2, 0.5, deadline_probability=1.5)
    with pytest.raises(ValidationError, match="deadline_probability"):
        generate_workload(1, 0, 1, 0.5, deadline_probability=-0.1)
    with pytest.raises(ValidationError, match="^num_tasks must be nonnegative$"):
        generate_workload(1, -1, 1, 0.5)
    # with no tasks to place, the layer count and the density are still checked
    with pytest.raises(ValidationError, match="^num_layers must be >= 1, got 0$"):
        generate_workload(1, 0, 0, 0.5)
    with pytest.raises(ValidationError, match="edge_density"):
        generate_workload(0, 0, 5, math.nan)
    with pytest.raises(ValidationError, match="edge_density"):
        generate_workload(1, 0, 1, 7.0)
    assert generate_workload(1, 0, 1, 0.5) == []


def test_metrics_balance_scenario():
    placements = []
    groups = {
        "agent1": ["1", "3", "4"],
        "agent2": ["2", "6", "7"],
        "agent3": ["5", "8"],
    }
    t = 0.0
    for agent_id, ids in groups.items():
        for task_id in ids:
            placements.append(
                Placement(task_id, f"r-{agent_id}", agent_id, t, t + 1.0)
            )
            t += 1.0
    schedule = FinalSchedule(tuple(placements), t)
    metrics = compute_metrics(schedule)
    assert metrics.tasks_per_agent == {"agent1": 3, "agent2": 3, "agent3": 2}
    assert metrics.balance_spread == 1
    assert sum(metrics.tasks_per_agent.values()) == 8


def test_metrics_single_task():
    schedule = FinalSchedule((place("t", "r1", 0.0, 5.0),), 5.0)
    metrics = compute_metrics(schedule)
    assert metrics.makespan == 5.0
    assert metrics.per_resource_busy == {"r1": 5.0}


def test_metrics_busy_sums_durations():
    schedule = FinalSchedule(
        (place("a", "r1", 0.0, 2.0), place("b", "r1", 2.0, 5.0)), 5.0
    )
    metrics = compute_metrics(schedule)
    assert metrics.per_resource_busy == {"r1": 5.0}
    assert metrics.makespan == 5.0


def test_metrics_includes_idle_agents():
    schedule = FinalSchedule((place("t", "r1", 0.0, 1.0),), 1.0)
    metrics = compute_metrics(schedule, ["a1", "idle"])
    assert metrics.tasks_per_agent == {"a1": 1, "idle": 0}
    assert metrics.balance_spread == 1
    assert metrics.series() == [("a1", 1), ("idle", 0)]
