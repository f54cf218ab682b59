"""Distribution, the three protocols, delay propagation, and the repair pass."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coalloc import (
    AgentActor,
    AgentSpec,
    Broker,
    Cluster,
    ClusterDag,
    Dependency,
    InfeasibleTaskError,
    MessageKind,
    PartialSchedule,
    Placement,
    ResourceSpec,
    ResourceTimeline,
    StructuralError,
    TaskSpec,
    ValidationError,
    assemble_and_repair,
    assignment_dump,
    build_dag,
    cluster_tasks,
    compute_metrics,
    distribute,
    generate_workload,
    host_masks,
    orchestrate,
    validate_schedule,
)
from coalloc import broker as broker_module
from coalloc.broker import _readiness_entries
from coalloc.model import schedule_to_csv
from conftest import (
    REPAIR_KINDS,
    corpus_instance,
    fits_nowhere,
    make_pool,
    mixed_pool_instance,
    off_grid_instance,
    peak_above_live,
    repair_instance,
)
from oracles import (
    edge_costs,
    least_ready_order,
    reference_phase3_and_repair,
    reference_repair,
)


def by_task(schedule):
    return {p.task_id: p for p in schedule.placements}


def task(task_id, processing=1.0, deps=()):
    return TaskSpec(
        task_id, processing, 1.0, 1.0, None,
        tuple(Dependency(p, c) for p, c in deps),
    )


def chain_tasks(n, comm=1.0, processing=2.0):
    tasks = [task("t1", processing)]
    for i in range(2, n + 1):
        tasks.append(task(f"t{i}", processing, [(f"t{i - 1}", comm)]))
    return tasks


def pool(num_agents, resources_per_agent=1):
    resources, agents = [], []
    for a in range(1, num_agents + 1):
        owned = []
        for r in range(resources_per_agent):
            rid = f"P{a}{r}"
            resources.append(ResourceSpec(rid, rid, "c", "f", 8.0, 8.0, 90.0))
            owned.append(rid)
        agents.append(AgentSpec(f"agent{a}", tuple(owned)))
    return resources, agents


def cluster_dag(sizes, edges=(), hosts=None):
    """Helper: clusters sized as given, tasks named to keep min-id order,
    with the host masks ``hosts`` (by default -1: every agent hosts all)."""
    clusters, start = [], 1
    for i, size in enumerate(sizes, start=1):
        ids = tuple(f"x{j:02d}" for j in range(start, start + size))
        clusters.append(Cluster(f"C{i}", ids))
        start += size
    hosts = hosts or {c.cluster_id: -1 for c in clusters}
    return ClusterDag(clusters, {e: 1.0 for e in edges}, hosts)


def loads(cdag, assignment, agents):
    """Tasks per agent id that ``assignment`` gives each of ``agents``."""
    counts = {a.agent_id: 0 for a in agents}
    for cluster_id, agent_id in assignment.items():
        counts[agent_id] += len(cdag.by_id[cluster_id].tasks)
    return counts


def test_distribute_balanced_three_clusters():
    cdag = cluster_dag([3, 3, 2])
    _, agents = pool(3)
    assignment = distribute(cdag, agents)
    assert loads(cdag, assignment, agents) == {"agent1": 3, "agent2": 3, "agent3": 2}
    assert assignment == {
        "C1": "agent1",
        "C2": "agent2",
        "C3": "agent3",
    }


def test_distribute_needs_an_agent():
    cdag = cluster_dag([2])
    with pytest.raises(ValidationError, match="at least one agent"):
        distribute(cdag, [])


def test_distribute_single_cluster_prefers_lowest_agent():
    cdag = cluster_dag([4])
    _, agents = pool(5)
    assignment = distribute(cdag, agents)
    assert assignment == {"C1": "agent1"}


def test_distribute_sends_a_cluster_only_to_its_hosts():
    # by load C2 would go to agent2, but only agent1 (bit 0) hosts it
    cdag = cluster_dag([2, 2], hosts={"C1": 0b11, "C2": 0b01})
    _, agents = pool(2)
    assert distribute(cdag, agents) == {"C1": "agent1", "C2": "agent1"}


def test_distribute_greedy_matches_step_simulation():
    cdag = cluster_dag([2, 2, 1, 1], edges=[("C1", "C2"), ("C2", "C3"), ("C3", "C4")])
    _, agents = pool(2)
    assignment = distribute(cdag, agents)
    assert list(assignment) == ["C1", "C2", "C3", "C4"]  # dispatch order
    assert assignment == {
        "C1": "agent1",
        "C2": "agent2",
        "C3": "agent1",
        "C4": "agent2",
    }
    assert loads(cdag, assignment, agents) == {"agent1": 3, "agent2": 3}
    # replay the rule by hand
    counts = {"agent1": 0, "agent2": 0}
    for cluster in cdag.topological_order():
        chosen = min(counts, key=lambda a: (counts[a], a))
        assert assignment[cluster.cluster_id] == chosen
        counts[chosen] += len(cluster.tasks)


def test_host_masks_filter_on_both_requirements():
    # bit 0 is a1, bit 1 is a2, whatever order the agents come in
    resources = [ResourceSpec("P01", cpu_power=2.0, memory=4.0),
                 ResourceSpec("P02", cpu_power=2.0, memory=1.0)]
    agents = [AgentSpec("a2", ("P02",)), AgentSpec("a1", ("P01",))]
    dag = build_dag([TaskSpec("t", 1.0, 2.0, 1.0), TaskSpec("u", 1.0, 1.0, 2.0)])
    assert host_masks(dag, resources, agents) == {"t": 0b01, "u": 0b11}


def test_zero_requirements_are_hosted_everywhere():
    resources = [ResourceSpec(r, cpu_power=0.0, memory=0.0) for r in ("P1", "P2")]
    agents = [AgentSpec("a1", ("P1",)), AgentSpec("a2", ("P2",))]
    dag = build_dag([TaskSpec("t", 1.0, 0.0, 0.0)])
    assert host_masks(dag, resources, agents) == {"t": 0b11}


def test_an_impossible_requirement_is_refused_by_name():
    resources, agents = pool(2)
    dag = build_dag([TaskSpec("z", 1.0, 9.0, 1.0), TaskSpec("y", 1.0, 8.0, 9.0)])
    with pytest.raises(InfeasibleTaskError) as err:
        host_masks(dag, resources, agents)
    assert err.value.task_id == "y"


capacities = st.sampled_from([2.0, 4.0, 8.0])
requirements = st.sampled_from([1.0, 3.0, 6.0])


@st.composite
def mixed_pools(draw):
    """Tasks with mixed requirements on agents with mixed capacities, so
    some clusters fit only some agents and some fit none."""
    resources, agents = [], []
    for a in range(1, draw(st.integers(1, 4)) + 1):
        owned = tuple(f"P{a}{r}" for r in range(draw(st.integers(1, 2))))
        resources += [
            ResourceSpec(rid, cpu_power=draw(capacities), memory=draw(capacities))
            for rid in owned
        ]
        agents.append(AgentSpec(f"agent{a}", owned))
    tasks = []
    for i in range(draw(st.integers(1, 10))):
        preds = draw(st.sets(st.integers(0, i - 1), max_size=2)) if i else set()
        deps = tuple(Dependency(f"t{j:02d}", 0.5) for j in sorted(preds))
        tasks.append(TaskSpec(
            f"t{i:02d}", 1.0, draw(requirements), draw(requirements), None, deps
        ))
    return tasks, resources, agents


@settings(deadline=None, max_examples=200)
@given(mixed_pools())
def test_distribute_respects_eligibility_on_mixed_pools(case):
    tasks, resources, agents = case
    dag = build_dag(tasks)
    specs = {r.resource_id: r for r in resources}

    def hosts(agent, task_id):
        t = dag.tasks[task_id]
        return any(
            specs[rid].memory >= t.memory and specs[rid].cpu_power >= t.cpu_power
            for rid in agent.resources
        )

    homeless = [t for t in sorted(dag.tasks) if not any(hosts(a, t) for a in agents)]
    if homeless:
        with pytest.raises(InfeasibleTaskError) as err:
            orchestrate(tasks, resources, agents)
        assert err.value.task_id == homeless[0]
        return
    masks = host_masks(dag, resources, agents)  # agents come in id order
    assert masks == {
        t: sum(1 << i for i, a in enumerate(agents) if hosts(a, t)) for t in dag.tasks
    }
    # replay: the least-loaded agent that hosts every task of the cluster
    cdag = cluster_tasks(dag, len(agents), masks)
    assignment = distribute(cdag, agents)
    counts = {a.agent_id: 0 for a in agents}
    for cluster in cdag.topological_order():
        able = [a.agent_id for a in agents if all(hosts(a, t) for t in cluster.tasks)]
        chosen = min(able, key=lambda a: (counts[a], a))
        assert assignment[cluster.cluster_id] == chosen
        counts[chosen] += len(cluster.tasks)
    assert loads(cdag, assignment, agents) == counts
    result = orchestrate(tasks, resources, agents)
    assert result.assignment == assignment
    assert validate_schedule(result.schedule, dag, resources, agents).is_empty()


def check_mixed_pool(seed):
    """``orchestrate`` on ``mixed_pool_instance`` refuses the job exactly when
    some task fits no resource of the pool, naming the least such task;
    otherwise its schedule has no violation."""
    instance = mixed_pool_instance(random.Random(seed))
    homeless = fits_nowhere(instance)
    try:
        result = orchestrate(instance.tasks, instance.resources, instance.agents)
    except InfeasibleTaskError as err:
        assert homeless and err.task_id == homeless[0]
        return False
    assert not homeless
    ids = sorted(a.agent_id for a in instance.agents)  # bit i is the i-th id
    for cluster_id, agent_id in result.assignment.items():
        assert result.cluster_dag.hosts[cluster_id] >> ids.index(agent_id) & 1
    report = validate_schedule(
        result.schedule, result.dag, instance.resources, instance.agents
    )
    assert report.is_empty()
    return True


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10**6))
@example(68)  # three seeds the broker once refused though every task fits
@example(219)
@example(789)
def test_a_job_is_refused_only_for_a_task_that_fits_nowhere(seed):
    check_mixed_pool(seed)


def test_tasks_that_share_no_host_go_to_separate_clusters():
    # a fits only r2 and b only r1: one cluster {a, b} would fit neither
    # agent, so b starts a cluster of its own on agent1
    tasks = [
        TaskSpec("a", 1.0, 6.0, 1.0),
        TaskSpec("b", 1.0, 1.0, 6.0, None, (Dependency("a", 0.5),)),
    ]
    resources = [ResourceSpec("r1", cpu_power=8.0, memory=4.0),
                 ResourceSpec("r2", cpu_power=4.0, memory=8.0)]
    agents = [AgentSpec("agent1", ("r1",)), AgentSpec("agent2", ("r2",))]
    result = orchestrate(tasks, resources, agents)
    assert [c.tasks for c in result.cluster_dag.clusters] == [("a",), ("b",)]
    assert result.assignment == {"C1": "agent2", "C2": "agent1"}
    assert rows(result) == [
        ("a", "r2", "agent2", 0.0, 1.0), ("b", "r1", "agent1", 1.5, 2.5),
    ]
    assert validate_schedule(result.schedule, result.dag, resources, agents).is_empty()


def test_cluster_goes_to_the_one_agent_that_hosts_it():
    # agent1 is least loaded, but only agent2's resource fits "big"
    tasks = [TaskSpec("big", 1.0, 6.0, 1.0)]
    resources = [ResourceSpec("r1", memory=4.0, cpu_power=4.0),
                 ResourceSpec("r2", memory=8.0, cpu_power=4.0)]
    agents = [AgentSpec("agent1", ("r1",)), AgentSpec("agent2", ("r2",))]
    result = orchestrate(tasks, resources, agents)
    assert result.assignment == {"C1": "agent2"}
    assert [p.resource_id for p in result.schedule.placements] == ["r2"]


def test_single_cluster_protocol_and_passthrough():
    tasks = [task("a", 2.0), task("b", 3.0, [("a", 1.0)])]
    resources, agents = pool(1)
    result = orchestrate(tasks, resources, agents)
    kinds = [e.kind for e in result.log]
    assert kinds == [
        MessageKind.SUBMIT_TASKS,
        MessageKind.ASSIGN_CLUSTER,
        MessageKind.CLUSTER_SCHEDULED,
        MessageKind.SCHEDULE_RESULT,
    ]
    scheduled = result.log.entries[2].payload
    assert by_task(result.schedule) == scheduled.placements


def test_chained_clusters_get_readiness_and_respect_it():
    # 4-task chain with 2 agents: quota 3 forces {t1,t2,t3} and {t4}
    tasks = chain_tasks(4, comm=2.0)
    resources, agents = pool(2)
    result = orchestrate(tasks, resources, agents)
    assert [c.tasks for c in result.cluster_dag.clusters] == [
        ("t1", "t2", "t3"),
        ("t4",),
    ]
    info = [e for e in result.log if e.kind is MessageKind.DEPENDENCY_INFO]
    assert len(info) == 1
    end_t3 = by_task(result.schedule)["t3"].end
    assert tuple(info[0].payload) == (("t4", end_t3 + 2.0),)
    assert by_task(result.schedule)["t4"].start >= end_t3 + 2.0
    # four-step sequence for the delayed cluster
    kinds = [e.kind for e in result.log if e.cluster_id == "C2"]
    assert kinds == [
        MessageKind.ASSIGN_CLUSTER,
        MessageKind.CLUSTER_SCHEDULED,
        MessageKind.DEPENDENCY_INFO,
        MessageKind.ADJUSTED_SCHEDULE,
    ]


def test_engineered_scenario_protocol_conformance(engineered):
    result = orchestrate(engineered.tasks, engineered.resources, engineered.agents)
    levels = result.cluster_dag.levels()
    first_level = {c.cluster_id for c in levels[0]}
    for cluster in result.cluster_dag.clusters:
        kinds = [e.kind for e in result.log if e.cluster_id == cluster.cluster_id]
        if cluster.cluster_id in first_level:
            assert kinds == [
                MessageKind.ASSIGN_CLUSTER,
                MessageKind.CLUSTER_SCHEDULED,
            ]
        else:
            assert kinds == [
                MessageKind.ASSIGN_CLUSTER,
                MessageKind.CLUSTER_SCHEDULED,
                MessageKind.DEPENDENCY_INFO,
                MessageKind.ADJUSTED_SCHEDULE,
            ]


def test_dependency_info_covers_every_crossing_edge(engineered):
    result = orchestrate(engineered.tasks, engineered.resources, engineered.agents)
    owner = result.cluster_dag.cluster_of
    crossing = [
        (p, s) for (p, s) in edge_costs(result.dag) if owner[p] != owner[s]
    ]
    entries = [
        entry
        for e in result.log
        if e.kind is MessageKind.DEPENDENCY_INFO
        for entry in e.payload
    ]
    assert len(entries) == len(crossing)
    assert sorted(t for t, _ in entries) == sorted(s for _, s in crossing)


def test_broker_keeps_no_resource_timelines(engineered):
    broker = Broker()
    result = broker.orchestrate(
        engineered.tasks, engineered.resources, engineered.agents
    )

    seen = set()

    def walk(obj):
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, bool)):
            return
        seen.add(id(obj))
        assert not isinstance(obj, ResourceTimeline)
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(k)
                walk(v)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for v in obj:
                walk(v)
        elif hasattr(obj, "__dict__"):
            for v in vars(obj).values():
                walk(v)
        else:  # a record keeps its fields in slots
            for name in getattr(type(obj), "__slots__", ()):
                walk(getattr(obj, name))

    walk(vars(broker))
    walk(result)


def test_reused_broker_gives_each_run_its_own_log(engineered):
    broker = Broker()
    args = (engineered.tasks, engineered.resources, engineered.agents)
    first = broker.orchestrate(*args)
    second = broker.orchestrate(*args)
    assert second.log is not first.log
    assert second.log.to_text() == first.log.to_text()
    assert len(second.log) == len(second.log.to_text().splitlines())
    kinds = [e.kind for e in second.log if e.cluster_id == "C1"]
    assert kinds.count(MessageKind.ASSIGN_CLUSTER) == 1


def test_infeasible_task_aborts_orchestration(monkeypatch):
    # refused before clustering, naming the least task that fits nowhere
    tasks = [task("a"), TaskSpec("big", 1.0, 99.0, 1.0), TaskSpec("b", 1.0, 1.0, 9.0)]
    resources, agents = pool(2)
    monkeypatch.setattr(broker_module, "cluster_tasks", None)
    with pytest.raises(InfeasibleTaskError) as err:
        orchestrate(tasks, resources, agents)
    assert err.value.task_id == "b"
    assert str(err.value) == (
        "task 'b' has no eligible resource: no resource in the pool has "
        "memory >= 1.0 and cpuPower >= 9.0"
    )


def test_an_empty_pool_fits_no_task():
    # no agent and no resource: a task is refused as fitting nowhere, and a
    # job without tasks still needs an agent for its quota
    with pytest.raises(InfeasibleTaskError, match="^task 'a' has no eligible"):
        orchestrate([task("a")], [], [])
    with pytest.raises(ValidationError, match="^num_agents must be >= 1, got 0$"):
        orchestrate([], [], [])


def test_a_repeated_agent_id_is_refused():
    # two agents named x once left r1 idle, with a and b serialized on r2
    resources = [ResourceSpec(rid, cpu_power=4.0, memory=4.0) for rid in ("r1", "r2")]
    agents = [AgentSpec("x", ("r1",)), AgentSpec("x", ("r2",))]
    with pytest.raises(StructuralError, match="^duplicate agentId 'x'$"):
        orchestrate([task("a"), task("b")], resources, agents)


@pytest.mark.parametrize("big_first", [False, True])
def test_a_repeated_resource_id_is_refused(big_first):
    # two specs of r1 once made the run hang on their order: the big one
    # first gave InfeasibleTaskError, the small one first placed t
    resources = [
        ResourceSpec("r1", cpu_power=1.0, memory=1.0),
        ResourceSpec("r1", cpu_power=8.0, memory=8.0),
    ]
    if big_first:
        resources.reverse()
    tasks = [TaskSpec("t", 1.0, 4.0, 4.0)]
    with pytest.raises(StructuralError, match="^duplicate resource Id 'r1'$"):
        orchestrate(tasks, resources, [AgentSpec("a1", ("r1",))])


def test_rigid_shift_past_the_largest_float_is_rejected():
    # quota 2 // 3 + 1 = 1: each task is its own cluster and ends at a finite
    # time in phase 2, but y's shift behind x overflows
    tasks = [task("x", 1.5e308), task("y", 1e308, [("x", 0.0)])]
    resources, agents = pool(3)
    with pytest.raises(ValidationError, match="task 'y' would end past"):
        orchestrate(tasks, resources, agents)


def test_two_overflows_in_one_exchange_name_the_first_request():
    # C1 = {a} -> a1, C2 = {b, b2} -> a2, C3 = {c, c2} -> a1. Both C2 and C3
    # overflow in phase 2; agents answer in request order, so C2's b2 is
    # named, not C3's c2 on the agent whose id is least.
    huge = 1.7e308
    tasks = [task("a"), task("b", huge), task("c", huge),
             task("b2", huge, [("b", 0.0)]), task("c2", huge, [("c", 0.0)])]
    resources = [
        ResourceSpec(rid, cpu_power=4.0, memory=4.0) for rid in ("r1", "r2")
    ]
    agents = [AgentSpec("a2", ("r2",)), AgentSpec("a1", ("r1",))]
    with pytest.raises(ValidationError, match="task 'b2' would end past"):
        orchestrate(tasks, resources, agents)


def test_agents_answer_in_request_order(monkeypatch):
    # Singleton clusters C1, C2, C3 go to a1, a2, a1 and are answered in
    # that order, as the log lists the replies.
    tasks = [task("t1"), task("t2"), task("t3")]
    resources = [
        ResourceSpec(rid, cpu_power=4.0, memory=4.0) for rid in ("r1", "r2")
    ]
    agents = [AgentSpec("a2", ("r2",)), AgentSpec("a1", ("r1",))]
    handled = []
    handle = AgentActor.handle

    def spy(actor, message):
        handled.append((actor.agent_id, message.cluster_id))
        return handle(actor, message)

    monkeypatch.setattr(AgentActor, "handle", spy)
    result = orchestrate(tasks, resources, agents)
    assert result.assignment == {"C1": "a1", "C2": "a2", "C3": "a1"}
    assert handled == [("a1", "C1"), ("a2", "C2"), ("a1", "C3")]
    replies = [e for e in result.log if e.kind is MessageKind.CLUSTER_SCHEDULED]
    assert [e.cluster_id for e in replies] == ["C1", "C2", "C3"]


def test_readiness_waives_comm_on_same_resource():
    tasks = [task("p", 2.0), task("q", 1.0, [("p", 5.0)])]
    dag = build_dag(tasks)
    cluster = Cluster("C2", ("q",))
    cdag = ClusterDag(
        [Cluster("C1", ("p",)), cluster], {("C1", "C2"): 5.0}, {"C1": -1, "C2": -1}
    )
    prior = Placement("p", "r1", "a1", 0.0, 2.0)
    same = Placement("q", "r1", "a1", 0.0, 1.0)
    other = Placement("q", "r2", "a1", 0.0, 1.0)
    report = _readiness_entries(cluster, dag, cdag, {"p": prior, "q": same})
    assert tuple(report) == (("q", 2.0),)
    report = _readiness_entries(cluster, dag, cdag, {"p": prior, "q": other})
    assert tuple(report) == (("q", 7.0),)


def flattened(partials):
    """The placements of ``partials`` in one task-keyed map, in the order
    the broker's store takes them: partial by partial, each in its order."""
    return {t: p for partial in partials for t, p in partial.placements.items()}


def test_repair_keeps_consistent_schedules_unchanged():
    tasks = [task("a", 2.0), task("b", 3.0, [("a", 1.0)])]
    dag = build_dag(tasks)
    partials = [
        PartialSchedule("C1", {"a": Placement("a", "r1", "a1", 0.0, 2.0)}),
        PartialSchedule("C2", {"b": Placement("b", "r1", "a1", 2.0, 5.0)}),
    ]
    schedule = assemble_and_repair(flattened(partials), dag)
    # unmoved placements are kept as they are, not rebuilt
    assert by_task(schedule)["a"] is partials[0].placements["a"]
    assert by_task(schedule)["b"] is partials[1].placements["b"]
    assert schedule.makespan == 5.0


def test_repair_is_never_handed_a_nan_placement():
    # With `a` on r1 at [0, 1) and `b` on r2 at [nan, nan], the repair once
    # returned makespan 1.0 and a nan row: ``max`` over the ends keeps 1.0
    # when NaN comes second. The placement is now refused where it is made.
    dag = build_dag([task("a"), task("b")])
    with pytest.raises(
        ValidationError, match="^placement of 'b': start must be nonnegative$"
    ):
        partials = [
            PartialSchedule("C1", {"a": Placement("a", "r1", "a1", 0.0, 1.0)}),
            PartialSchedule(
                "C2", {"b": Placement("b", "r2", "a1", math.nan, math.nan)}
            ),
        ]
        assemble_and_repair(flattened(partials), dag)


@pytest.mark.parametrize("first,second,named", [
    # a [0, inf) is refused, not rebuilt as start + processingTime
    (("a", "r1", 0.0, math.inf), ("b", "r2", 0.0, 2.0), "a"),
    # b waits for a by a DAG edge, and would reach infinity only through it
    (("a", "r1", 1e308, math.inf), ("b", "r2", 0.0, 1e307), "a"),
    # both ends are infinite: the first handed in is named, not the least id
    (("b", "r2", 9e307, math.inf), ("a", "r1", 1e308, math.inf), "b"),
], ids=["zero-start", "huge-start", "first-handed-in"])
def test_repair_refuses_a_handed_in_infinite_end(first, second, named):
    dag = build_dag([task("a", 1e308), task("b", 1e307, [("a", 0.0)])])
    partials = [
        PartialSchedule(f"C{i}", {t: Placement(t, rid, "a1", start, end)})
        for i, (t, rid, start, end) in enumerate((first, second), 1)
    ]
    with pytest.raises(
        ValidationError, match=f"^placement of '{named}': end must be finite$"
    ):
        assemble_and_repair(flattened(partials), dag)


@pytest.mark.parametrize("chained", [False, True], ids=["dag-edge", "chain-edge"])
def test_repair_names_the_task_its_push_overflows(chained):
    # b must start when a ends at 1e308, after a DAG edge or behind a on
    # their shared resource, and would then end at infinity, so the repair
    # names b
    dag = build_dag([
        task("a", 1e308), task("b", 1e308, [] if chained else [("a", 0.0)]),
    ])
    b_start, b_resource = (1.0, "r1") if chained else (0.0, "r2")
    partials = [
        PartialSchedule("C1", {"a": Placement("a", "r1", "a1", 0.0, 1e308)}),
        PartialSchedule(
            "C2", {"b": Placement("b", b_resource, "a1", b_start, 1e308)}
        ),
    ]
    with pytest.raises(ValidationError, match="^task 'b' would end past"):
        assemble_and_repair(flattened(partials), dag)


def test_repair_pushes_overlap_apart_and_recheck_dependencies():
    # two clusters of one agent collide on r1 after a rigid delay
    tasks = [task("x", 4.0), task("y", 2.0, [("x", 1.0)])]
    dag = build_dag(tasks)
    partials = [
        PartialSchedule("C1", {"x": Placement("x", "r1", "a1", 0.0, 4.0)}),
        PartialSchedule("C2", {"y": Placement("y", "r1", "a1", 2.0, 4.0)}),
    ]
    schedule = assemble_and_repair(flattened(partials), dag)
    x, y = by_task(schedule)["x"], by_task(schedule)["y"]
    assert x.start == 0.0 and x.end == 4.0
    assert y.start == 4.0 and y.end == 6.0  # pushed behind x, comm waived on r1
    resources = [ResourceSpec("r1", "r1", "c", "f", 8.0, 8.0, 90.0)]
    agents = [AgentSpec("a1", ("r1",))]
    assert validate_schedule(schedule, dag, resources, agents).is_empty()


def test_repair_order_is_not_the_sorted_placements():
    # Sorting the merged placements by (start, end, task id) is no valid
    # repair order: zero-length a sorts before its predecessor b, which only
    # learns its final start once x is pushed behind w.
    tasks = [
        task("w", 2.0), task("x", 2.0),
        task("b", 0.0, [("x", 0.0)]), task("a", 0.0, [("b", 0.0)]),
    ]
    dag = build_dag(tasks)
    partials = [
        PartialSchedule("C1", {"w": Placement("w", "r1", "a1", 0.0, 2.0)}),
        PartialSchedule("C2", {
            "x": Placement("x", "r1", "a1", 1.0, 3.0),
            "b": Placement("b", "r2", "a1", 3.0, 3.0),
            "a": Placement("a", "r2", "a1", 3.0, 3.0),
        }),
    ]
    merged = [p for partial in partials for p in partial.placements.values()]
    by_sort = sorted(merged, key=lambda p: (p.start, p.end, p.task_id))
    assert [p.task_id for p in by_sort] == ["w", "x", "a", "b"]

    schedule = assemble_and_repair(flattened(partials), dag)
    spans = {t: (p.start, p.end) for t, p in by_task(schedule).items()}
    assert spans == {
        "w": (0.0, 2.0), "x": (2.0, 4.0), "b": (4.0, 4.0), "a": (4.0, 4.0)
    }
    resources = [ResourceSpec(r, r, "c", "f", 8.0, 8.0, 90.0) for r in ("r1", "r2")]
    agents = [AgentSpec("a1", ("r1", "r2"))]
    assert validate_schedule(schedule, dag, resources, agents).is_empty()


def test_repair_releases_a_chain_predecessor_that_is_also_a_dag_predecessor():
    # On r1, a follows w and b follows a, which b also depends on: a is
    # b's predecessor twice, once in the DAG and once on the resource, and
    # must release it twice, or b never becomes ready.
    tasks = [task("w", 2.0), task("a", 2.0), task("b", 1.0, [("a", 1.0)])]
    dag = build_dag(tasks)
    partials = [
        PartialSchedule("C1", {"w": Placement("w", "r1", "a1", 0.0, 2.0)}),
        PartialSchedule("C2", {
            "a": Placement("a", "r1", "a1", 1.0, 3.0),
            "b": Placement("b", "r1", "a1", 3.0, 4.0),
        }),
    ]
    schedule = assemble_and_repair(flattened(partials), dag)
    spans = {t: (p.start, p.end) for t, p in by_task(schedule).items()}
    assert spans == {"w": (0.0, 2.0), "a": (2.0, 4.0), "b": (4.0, 5.0)}
    resources = [ResourceSpec("r1", "r1", "c", "f", 8.0, 8.0, 90.0)]
    agents = [AgentSpec("a1", ("r1",))]
    assert validate_schedule(schedule, dag, resources, agents).is_empty()


def repair_args(monkeypatch, tasks, num_agents, num_resources):
    """The arguments ``orchestrate`` passes to ``assemble_and_repair`` for
    ``tasks`` on ``make_pool(random.Random(7), num_agents, num_resources)``,
    the placement map copied before the call uses it up."""
    captured = []

    def spy(placements, dag):
        captured.append((dict(placements), dag))
        return assemble_and_repair(placements, dag)

    monkeypatch.setattr(broker_module, "assemble_and_repair", spy)
    orchestrate(tasks, *make_pool(random.Random(7), num_agents, num_resources))
    return captured[0]


@pytest.mark.parametrize("seed", range(20))
def test_the_repair_gets_the_placements_in_phase_2_order(seed, monkeypatch):
    # The store takes each ClusterScheduled reply's tasks in log order, and
    # phase 3 replaces placements where they stand, so the repair's seeds,
    # and which overflow it names, follow the phase-2 decisions.
    handed = []

    def spy(placements, dag):
        handed.append(list(placements))
        return assemble_and_repair(placements, dag)

    monkeypatch.setattr(broker_module, "assemble_and_repair", spy)
    rng = random.Random(seed)
    instances = [corpus_instance(seed), off_grid_instance(rng)]
    if not fits_nowhere(mixed := mixed_pool_instance(rng)):
        instances.append(mixed)
    for instance in instances:
        handed.clear()
        result = orchestrate(instance.tasks, instance.resources, instance.agents)
        scheduled = [
            t
            for e in result.log
            if e.kind is MessageKind.CLUSTER_SCHEDULED
            for t in e.payload.placements
        ]
        assert handed == [scheduled]


def test_repair_peak_memory_stays_small(monkeypatch):
    # The resource-chain predecessors sit in their own map instead of a
    # copy of every chained task's predecessors, and the sweep keeps no
    # sorted node list or rank map. Before, this call peaked at 0.88 MB
    # above the live set, and at 0.53 MB while it built its own copy of the
    # placement map; repairing the map it is handed leaves 0.47 MB.
    args = repair_args(monkeypatch, generate_workload(99, 2000, 25, 0.01), 10, 30)
    assert peak_above_live(assemble_and_repair, *args) <= 0.55e6


def test_repair_peak_memory_when_nothing_moves(monkeypatch):
    # On the long-timelines shape phase 3 leaves nothing to repair, so the
    # check pass finds no broken constraint and no successor or in-degree
    # map is built. A sweep over the whole job peaked here at 1.00 MB above
    # the live set, and sorting by a (start, task id) tuple per task at
    # 0.53 MB; two stable sorts without key tuples left it at 0.16 MB, and
    # repairing the handed-in map instead of a copy of it at 0.12 MB.
    args = repair_args(monkeypatch, generate_workload(1, 4000, 4, 0.002), 2, 4)
    given = dict(args[0])
    schedule = assemble_and_repair(*args)
    assert all(p is given[p.task_id] for p in schedule.placements)
    assert peak_above_live(assemble_and_repair, given, args[1]) <= 0.15e6


def test_run_peak_memory_on_a_dense_layered_job():
    # Each readiness report keeps its entries as a tuple of task ids and an
    # array of doubles, where a (taskId, readyTime) tuple per crossing edge
    # made this run peak at 0.85 MB above the live set; now about 0.56 MB.
    tasks = generate_workload(5, 500, 25, 0.04)
    pool = make_pool(random.Random(7), 10, 30)
    assert peak_above_live(orchestrate, tasks, *pool) <= 0.65e6


def test_run_peak_memory_on_a_long_timelines_job():
    # Clustering keeps a member list only for a part that has merged,
    # ``Placement`` is slotted, and the repair's checks build no set or map
    # keyed by every task. This run peaked at 1.955 MB above the live set
    # in the repair, and at 1.66 MB in clustering; with one placement store
    # from phase 2 on and no merged copy of it, now at about 1.50 MB, still
    # in the repair's chain sorts; phases 1-3, the store alive, peak at
    # 1.45 MB.
    tasks = generate_workload(5, 4000, 4, 0.002)
    pool = make_pool(random.Random(7), 2, 4)
    assert peak_above_live(orchestrate, tasks, *pool) <= 1.64e6


def check_repair_against_reference(rng, kind):
    """``assemble_and_repair`` on ``repair_instance(rng, kind)`` gives the
    schedule and deadline violations of ``reference_repair``, keeps each
    placement the reference leaves in place as the same object, or raises
    the same ``StructuralError``. Returns whether both refused the input."""
    partials, dag = repair_instance(rng, kind)
    given = flattened(partials)
    try:
        expected = reference_repair(given, dag)
    except StructuralError as exc:
        expected = exc
    try:
        schedule = assemble_and_repair(dict(given), dag)
    except StructuralError as exc:
        schedule = exc
    if isinstance(expected, StructuralError) or isinstance(schedule, StructuralError):
        assert repr(schedule) == repr(expected)
        return True
    assert schedule_to_csv(schedule) == schedule_to_csv(expected)
    assert schedule.deadline_violations == expected.deadline_violations
    repaired = by_task(schedule)
    for p in expected.placements:
        q = given[p.task_id]
        if (p.start, p.end) == (q.start, q.end):
            assert repaired[p.task_id] is q
    return False


@settings(deadline=None, max_examples=150)
@given(st.randoms(use_true_random=False), st.sampled_from(REPAIR_KINDS))
def test_repair_matches_the_fixpoint_reference(rng, kind):
    check_repair_against_reference(rng, kind)


def test_repair_reports_deadline_violations():
    late = TaskSpec("late", 5.0, 0.0, 0.0, deadline_time=4.0)
    dag = build_dag([late])
    partials = [
        PartialSchedule("C1", {"late": Placement("late", "r1", "a1", 0.0, 5.0)})
    ]
    schedule = assemble_and_repair(flattened(partials), dag)
    assert schedule.deadline_violations == ("late",)


def test_repair_rejects_resource_order_against_a_dependency():
    # b depends on a, yet b comes first on r1: the chain edge b -> a closes a cycle
    dag = build_dag([task("a", 1.0), task("b", 1.0, [("a", 0.0)])])
    partials = [
        PartialSchedule(
            "C1",
            {
                "a": Placement("a", "r1", "a1", 1.0, 2.0),
                "b": Placement("b", "r1", "a1", 0.0, 1.0),
            },
        )
    ]
    with pytest.raises(StructuralError, match="circular constraints"):
        assemble_and_repair(flattened(partials), dag)


def test_repair_rejects_a_missing_task():
    dag = build_dag([task("a"), task("b")])
    partials = [PartialSchedule("C1", {"a": Placement("a", "r1", "a1", 0.0, 1.0)})]
    with pytest.raises(StructuralError, match="no placement for tasks: b"):
        assemble_and_repair(flattened(partials), dag)


def test_repair_names_a_missing_task_before_an_unknown_one():
    # as many placements as tasks, but for the wrong set of tasks
    dag = build_dag([task("a"), task("b")])
    placements = {
        "a": Placement("a", "r1", "a1", 0.0, 1.0),
        "ghost": Placement("ghost", "r1", "a1", 1.0, 2.0),
    }
    with pytest.raises(StructuralError, match="^no placement for tasks: b$"):
        assemble_and_repair(placements, dag)


def test_repair_rejects_an_unknown_task():
    dag = build_dag([task("a")])
    partials = [
        PartialSchedule(
            "C1",
            {
                "a": Placement("a", "r1", "a1", 0.0, 1.0),
                "ghost": Placement("ghost", "r1", "a1", 1.0, 2.0),
            },
        )
    ]
    with pytest.raises(StructuralError, match="unknown tasks: ghost"):
        assemble_and_repair(flattened(partials), dag)


def test_topological_order_rejects_cyclic_cluster_graph():
    cdag = cluster_dag([1, 1, 1], edges=[("C1", "C2"), ("C2", "C3"), ("C3", "C2")])
    with pytest.raises(StructuralError, match="not acyclic"):
        cdag.topological_order()


@st.composite
def random_quotients(draw):
    """Cluster DAGs of 10 to 20 singletons named C1, C2, ... in min-task order,
    so the id order (C10 before C2) differs from the min-task order, with edges
    that follow a shuffled topological order."""
    k = draw(st.integers(10, 20))
    rank = draw(st.permutations(range(k)))
    pairs = draw(st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))))
    edges = [(f"C{a + 1}", f"C{b + 1}") for a, b in pairs if rank[a] < rank[b]]
    return cluster_dag([1] * k, edges=edges)


@settings(deadline=None, max_examples=200)
@given(random_quotients())
def test_topological_order_matches_least_ready_reference(cdag):
    order = [c.cluster_id for c in cdag.topological_order()]
    expected = least_ready_order(
        list(cdag.by_id), set(cdag.edges), key=lambda cid: cdag.by_id[cid].min_task
    )
    assert order == expected


def test_empty_task_set_orchestrates_to_empty_schedule():
    resources, agents = pool(2)
    result = orchestrate([], resources, agents)
    assert result.schedule.placements == ()
    assert result.schedule.makespan == 0.0
    agent_ids = [a.agent_id for a in agents]
    metrics = compute_metrics(result.schedule, agent_ids)
    assert metrics.tasks_per_agent == {"agent1": 0, "agent2": 0}


@st.composite
def off_grid_instances(draw):
    """DAGs of 1 to 12 tasks with 3-decimal processing and communication
    times, on one agent owning one or two resources."""
    thousandths = st.integers(0, 5000).map(lambda k: k / 1000)
    tasks = []
    for i in range(draw(st.integers(1, 12))):
        preds = draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
        deps = [(f"t{p:02d}", draw(thousandths)) for p in sorted(preds)]
        tasks.append(task(f"t{i:02d}", draw(thousandths), deps))
    resources, agents = pool(1, draw(st.integers(1, 2)))
    return tasks, resources, agents


@settings(deadline=None, max_examples=200)
@given(off_grid_instances())
@example(  # C1 = {a} on P10 and C2 = {b, c} leave the gap [2.166, 6.169) on P10;
    # 6.169 - 2.166 >= 4.003, but 2.166 + 4.003 runs past 6.169, so C3 = {d}
    # must not take that gap
    (
        [
            task("a", 2.166),
            task("b", 6.169),
            task("c", 1.0, [("b", 0.0)]),
            task("d", 4.003),
        ],
        *pool(1, 2),
    )
)
def test_off_grid_instances_schedule_and_validate(instance):
    tasks, resources, agents = instance
    result = orchestrate(tasks, resources, agents)
    report = validate_schedule(result.schedule, result.dag, resources, agents)
    assert report.is_empty(), report


def assert_reference_phase3_and_repair(instance):
    result = orchestrate(instance.tasks, instance.resources, instance.agents)
    reference = reference_phase3_and_repair(result)
    assert schedule_to_csv(reference) == schedule_to_csv(result.schedule)
    assert reference == result.schedule


def test_phase3_and_repair_match_the_reference_on_the_corpus():
    for seed in range(100):
        assert_reference_phase3_and_repair(corpus_instance(seed))


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False))
def test_phase3_and_repair_match_the_reference_off_grid(rng):
    assert_reference_phase3_and_repair(off_grid_instance(rng))


def artifacts(tasks, resources, agents) -> tuple[str, str, str]:
    result = orchestrate(tasks, resources, agents)
    return (
        schedule_to_csv(result.schedule),
        assignment_dump(result.cluster_dag),
        result.log.to_text(),
    )


def drawn_instance(rng, off_grid):
    if off_grid:
        return off_grid_instance(rng)
    return corpus_instance(rng.randrange(10**6))


@settings(deadline=None, max_examples=50)
@given(st.randoms(use_true_random=False), st.booleans())
def test_declaration_order_never_reaches_an_artifact(rng, off_grid):
    # Every phase visits a task's edges in the order its spec declares them.
    instance = drawn_instance(rng, off_grid)
    shuffled = []
    for spec in instance.tasks:
        deps = list(spec.dependencies)
        rng.shuffle(deps)
        shuffled.append(spec._replace(dependencies=tuple(deps)))
    pool = (instance.resources, instance.agents)
    assert artifacts(shuffled, *pool) == artifacts(instance.tasks, *pool)


@settings(deadline=None, max_examples=30)
@given(st.randoms(use_true_random=False), st.booleans())
def test_task_order_never_reaches_an_artifact(rng, off_grid):
    # Clusters are dispatched in the quotient's topological order, which
    # only the insertion order of the cluster-to-agent map keeps.
    instance = drawn_instance(rng, off_grid)
    shuffled = list(instance.tasks)
    rng.shuffle(shuffled)
    pool = (instance.resources, instance.agents)
    assert artifacts(shuffled, *pool) == artifacts(instance.tasks, *pool)


def rows(result, factor=1.0):
    return [
        (p.task_id, p.resource_id, p.agent_id, p.start * factor, p.end * factor)
        for p in result.schedule.placements
    ]


def with_deadlines(rng, tasks, result):
    """``tasks``, about half of them given a deadline half a second before,
    at or half a second after the end ``result`` gives them."""
    ends = {p.task_id: p.end for p in result.schedule.placements}
    return [
        spec._replace(
            deadline_time=max(0.0, ends[spec.task_id] + rng.choice([-0.5, 0.0, 0.5]))
        )
        if rng.random() < 0.5 else spec
        for spec in tasks
    ]


@settings(deadline=None, max_examples=25)
@given(st.randoms(use_true_random=False), st.booleans())
def test_deadlines_change_only_the_violations(rng, off_grid):
    # Deadlines are reported, never scheduled for: adding them to a job
    # without any, or taking them away again, moves no placement.
    instance = drawn_instance(rng, off_grid)
    pool = (instance.resources, instance.agents)
    bare = orchestrate(instance.tasks, *pool)
    tasks = with_deadlines(rng, instance.tasks, bare)
    timed = orchestrate(tasks, *pool)
    assert rows(timed) == rows(bare)
    assert timed.cluster_dag.cluster_of == bare.cluster_dag.cluster_of
    assert bare.schedule.deadline_violations == ()
    ends = {p.task_id: p.end for p in timed.schedule.placements}
    assert timed.schedule.deadline_violations == tuple(sorted(
        t.task_id for t in tasks
        if t.deadline_time is not None and ends[t.task_id] > t.deadline_time
    ))


@settings(deadline=None, max_examples=25)
@given(st.randoms(use_true_random=False), st.booleans(), st.integers(-2, 3))
def test_scaling_every_time_by_a_power_of_two_scales_the_schedule(rng, off_grid, k):
    # Multiplying by 2**k is exact and keeps every comparison, so each start
    # and end scales exactly and nothing else changes.
    instance = drawn_instance(rng, off_grid)
    pool = (instance.resources, instance.agents)
    tasks = with_deadlines(rng, instance.tasks, orchestrate(instance.tasks, *pool))
    factor = 2.0 ** k
    scaled = [  # a deadline of None stays None, and 0.0 stays 0.0
        spec._replace(
            processing_time=spec.processing_time * factor,
            deadline_time=spec.deadline_time and spec.deadline_time * factor,
            dependencies=tuple(
                Dependency(d.task_id, d.comm_time * factor) for d in spec.dependencies
            ),
        )
        for spec in tasks
    ]
    base, result = orchestrate(tasks, *pool), orchestrate(scaled, *pool)
    assert rows(result) == rows(base, factor)
    assert result.schedule.makespan == base.schedule.makespan * factor
    assert result.cluster_dag.cluster_of == base.cluster_dag.cluster_of
    assert result.schedule.deadline_violations == base.schedule.deadline_violations


@settings(deadline=None, max_examples=25)
@given(st.randoms(use_true_random=False), st.integers(0, 10**6))
def test_scaling_by_three_on_the_grid_scales_the_schedule(rng, seed):
    # On the quarter-second grid every time is a small multiple of 0.25, so
    # three times any sum stays exact and every comparison keeps its outcome.
    instance = corpus_instance(seed)
    pool = (instance.resources, instance.agents)
    tasks = with_deadlines(rng, instance.tasks, orchestrate(instance.tasks, *pool))
    scaled = [
        spec._replace(
            processing_time=spec.processing_time * 3,
            deadline_time=spec.deadline_time and spec.deadline_time * 3,
            dependencies=tuple(
                Dependency(d.task_id, d.comm_time * 3) for d in spec.dependencies
            ),
        )
        for spec in tasks
    ]
    base, result = orchestrate(tasks, *pool), orchestrate(scaled, *pool)
    assert rows(result) == rows(base, 3.0)
    assert result.schedule.makespan == base.schedule.makespan * 3
    assert result.cluster_dag.cluster_of == base.cluster_dag.cluster_of
    assert result.schedule.deadline_violations == base.schedule.deadline_violations


INSTANCE_KINDS = ("grid", "off-grid", "mixed")


def instance_of(kind, rng):
    if kind == "mixed":
        return mixed_pool_instance(rng)
    return drawn_instance(rng, kind == "off-grid")


def outcome(tasks, resources, agents):
    """The run's schedule rows, or the task its refusal names."""
    try:
        return rows(orchestrate(tasks, resources, agents))
    except InfeasibleTaskError as err:
        return err.task_id


def order_preserving_names(rng, names):
    """A map of ``names`` onto fresh random ids in the same sorted order."""
    fresh = set()
    while len(fresh) < len(names):
        fresh.add("".join(rng.choices("ab0_", k=rng.randint(1, 6))))
    return dict(zip(sorted(names), sorted(fresh)))


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 10**6),
    st.sampled_from(INSTANCE_KINDS),
    st.sampled_from(["task", "resource", "agent"]),
)
def test_an_order_preserving_rename_renames_the_schedule(seed, kind, renamed):
    # Ids only name things and break ties by their order, so renaming them
    # in order moves nothing: the schedule comes back under the new names.
    rng = random.Random(seed)
    instance = instance_of(kind, rng)
    tasks, resources, agents = instance.tasks, instance.resources, instance.agents
    if renamed == "task":
        new = order_preserving_names(rng, [t.task_id for t in tasks])
        tasks = [
            t._replace(task_id=new[t.task_id], dependencies=tuple(
                Dependency(new[d.task_id], d.comm_time) for d in t.dependencies
            ))
            for t in tasks
        ]
    elif renamed == "resource":
        new = order_preserving_names(rng, [r.resource_id for r in resources])
        resources = [r._replace(resource_id=new[r.resource_id]) for r in resources]
        agents = [
            a._replace(resources=tuple(new[rid] for rid in a.resources)) for a in agents
        ]
    else:
        new = order_preserving_names(rng, [a.agent_id for a in agents])
        agents = [a._replace(agent_id=new[a.agent_id]) for a in agents]
    got = outcome(tasks, resources, agents)
    expected = outcome(instance.tasks, instance.resources, instance.agents)
    if isinstance(expected, str):  # a refusal names the renamed task
        assert got == (new[expected] if renamed == "task" else expected)
        return
    position = {"task": 0, "resource": 1, "agent": 2}[renamed]
    assert got == [
        tuple(new[v] if i == position else v for i, v in enumerate(row))
        for row in expected
    ]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.sampled_from(INSTANCE_KINDS))
def test_a_resource_no_task_fits_changes_nothing(seed, kind):
    # Every task needs a positive amount of something, so a resource with
    # neither memory nor CPU hosts none, wherever it sits and whoever owns it.
    rng = random.Random(seed)
    instance = instance_of(kind, rng)
    tasks = [
        t._replace(memory=1.0) if t.memory == 0 and t.cpu_power == 0 else t
        for t in instance.tasks
    ]
    # ids sorting before, among and after the pool's R-and-digits ids
    useless = ResourceSpec(
        rng.choice(["A", "R00x", "R0x", "Rzz", "Z"]), cpu_power=0.0, memory=0.0
    )
    resources = list(instance.resources)
    resources.insert(rng.randint(0, len(resources)), useless)
    agents = list(instance.agents)
    k = rng.randrange(len(agents))
    owned = list(agents[k].resources)
    owned.insert(rng.randint(0, len(owned)), useless.resource_id)
    agents[k] = agents[k]._replace(resources=tuple(owned))
    before = (tasks, instance.resources, instance.agents)
    try:
        expected = artifacts(*before)
    except InfeasibleTaskError as err:
        assert outcome(tasks, resources, agents) == err.task_id
        return
    assert artifacts(tasks, resources, agents) == expected
