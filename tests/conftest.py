"""Shared fixtures: the engineered balance scenario and seeded instance builders."""

from __future__ import annotations

import gc
import random
import tracemalloc
from dataclasses import dataclass

import pytest

from coalloc import (
    AgentSpec,
    Dependency,
    PartialSchedule,
    Placement,
    ResourceSpec,
    TaskSpec,
    build_dag,
    generate_workload,
)


@dataclass(frozen=True)
class Scenario:
    tasks: list[TaskSpec]
    resources: list[ResourceSpec]
    agents: list[AgentSpec]


def make_engineered() -> Scenario:
    """8 dependent tasks, 3 agents over 5 stations (2 + 2 + 1).

    Built so clustering yields exactly {1,3,4}, {2,6,7}, {5,8} and the
    per-agent task counts come out 3/3/2.
    """
    deps = {
        "3": [("1", 1.0)],
        "4": [("3", 0.5)],
        "6": [("2", 1.0)],
        "7": [("6", 0.5)],
        "5": [("4", 2.0)],
        "8": [("5", 0.5), ("7", 1.0)],
    }
    times = {"1": 2, "2": 3, "3": 1, "4": 2, "5": 2, "6": 1, "7": 2, "8": 3}
    tasks = [
        TaskSpec(
            t,
            float(times[t]),
            1.0,
            1.0,
            None,
            tuple(Dependency(p, c) for p, c in deps.get(t, [])),
        )
        for t in sorted(times)
    ]
    resources = [
        ResourceSpec(f"P0{i}", f"station{i}", "MinervaCluster", "farm1", 2.0, 4.0, 90.0)
        for i in range(1, 6)
    ]
    agents = [
        AgentSpec("agent1", ("P01", "P02")),
        AgentSpec("agent2", ("P03", "P04")),
        AgentSpec("agent3", ("P05",)),
    ]
    return Scenario(tasks, resources, agents)


@pytest.fixture
def engineered() -> Scenario:
    return make_engineered()


def make_pool(
    rng: random.Random, num_agents: int, num_resources: int
) -> tuple[list[ResourceSpec], list[AgentSpec]]:
    """Random resource pool partitioned over agents.

    Capacities start at 4.0, which covers the generator's default requirement
    range, so every task is feasible on every agent.
    """
    resources = [
        ResourceSpec(
            f"R{i:03d}",
            f"node{i}",
            "pool",
            "farm",
            4.0 + rng.randint(0, 16) * 0.25,
            4.0 + rng.randint(0, 16) * 0.25,
            90.0,
        )
        for i in range(num_resources)
    ]
    ids = [r.resource_id for r in resources]
    cuts = (
        sorted(rng.sample(range(1, num_resources), num_agents - 1))
        if num_agents > 1
        else []
    )
    bounds = [0, *cuts, num_resources]
    agents = [
        AgentSpec(f"A{k + 1}", tuple(ids[bounds[k]:bounds[k + 1]]))
        for k in range(num_agents)
    ]
    return resources, agents


def corpus_instance(seed: int) -> Scenario:
    """Deterministic seeded instance: n <= 60 tasks, 2-5 agents."""
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    layers = rng.randint(1, min(n, 8))
    density = rng.choice([0.0, 0.05, 0.1, 0.2, 0.3, 0.5])
    num_agents = rng.randint(2, 5)
    num_resources = rng.randint(num_agents, num_agents * 3)
    tasks = generate_workload(seed, n, layers, density)
    resources, agents = make_pool(rng, num_agents, num_resources)
    return Scenario(tasks, resources, agents)


def off_grid_instance(rng: random.Random) -> Scenario:
    """Random instance off the quarter-second grid: 2-30 tasks with
    3-decimal processing and communication times, one task in ten of zero
    length, ids shuffled against the dependency order, the task list
    shuffled too, and 1-4 agents of 2 resources each, every resource able
    to host every task."""
    n = rng.randint(2, 30)
    names = [f"t{k:02d}" for k in rng.sample(range(n), n)]
    tasks = []
    for i, name in enumerate(names):
        preds = [p for p in range(i) if rng.random() < 0.2]
        processing = 0.0 if rng.random() < 0.1 else rng.randint(1, 5000) / 1000
        deps = tuple(
            Dependency(names[p], rng.randint(0, 5000) / 1000) for p in preds
        )
        tasks.append(TaskSpec(name, processing, 1.0, 1.0, None, deps))
    rng.shuffle(tasks)
    num_agents = rng.randint(1, 4)
    resources = [
        ResourceSpec(f"R{i}", cpu_power=4.0, memory=4.0)
        for i in range(2 * num_agents)
    ]
    agents = [
        AgentSpec(f"A{k + 1}", (f"R{2 * k}", f"R{2 * k + 1}"))
        for k in range(num_agents)
    ]
    return Scenario(tasks, resources, agents)


REPAIR_KINDS = ("consistent", "clusters", "random")


def repair_instance(rng: random.Random, kind: str):
    """Random input for the repair pass: ``(partials, dag)``.

    1-12 tasks with 3-decimal times, one in five of zero length and one in
    three with a deadline, ids shuffled against the dependency order, in
    1-4 clusters of agent ``A1`` on resources ``R0``-``R2``. ``kind`` sets
    the starts:

    - ``"consistent"``: one list schedule of the whole job, so nothing
      needs repair;
    - ``"clusters"``: each cluster list-scheduled on its own from time 0 and
      shifted rigidly by a 3-decimal delay, as phase 3 does, so clusters
      collide on shared resources and cross-cluster edges can break;
    - ``"random"``: every start drawn at random, which also puts a task
      ahead of its own predecessor on a resource and closes a cycle.
    """
    def thousandths(hi: int) -> float:
        return rng.randint(0, hi) / 1000

    n = rng.randint(1, 12)
    names = [f"t{k:02d}" for k in rng.sample(range(n), n)]
    tasks = []
    for i, name in enumerate(names):
        deps = tuple(
            Dependency(names[p], thousandths(3000))
            for p in range(i) if rng.random() < 0.3
        )
        processing = 0.0 if rng.random() < 0.2 else thousandths(5000)
        deadline = thousandths(20000) if rng.random() < 1 / 3 else None
        tasks.append(TaskSpec(name, processing, 1.0, 1.0, deadline, deps))
    num_clusters = rng.randint(1, min(n, 4))
    cluster_of = {t.task_id: rng.randrange(num_clusters) for t in tasks}
    resource_of = {t.task_id: f"R{rng.randrange(3)}" for t in tasks}

    def list_schedule(group: list[TaskSpec]) -> dict[str, tuple[float, float]]:
        # in dependency order, behind in-group predecessors and the
        # resource's last positive-length task, after a random idle gap
        spans: dict[str, tuple[float, float]] = {}
        free: dict[str, float] = {}
        for spec in group:
            rid = resource_of[spec.task_id]
            start = free.get(rid, 0.0)
            for dep in spec.dependencies:
                if dep.task_id in spans:
                    ready = spans[dep.task_id][1]
                    if resource_of[dep.task_id] != rid:
                        ready += dep.comm_time
                    start = max(start, ready)
            start += thousandths(1000)
            spans[spec.task_id] = (start, start + spec.processing_time)
            if spec.processing_time > 0:
                free[rid] = start + spec.processing_time
        return spans

    if kind == "consistent":
        spans = list_schedule(tasks)
    elif kind == "clusters":
        spans = {}
        for c in range(num_clusters):
            delay = thousandths(8000)
            local = list_schedule([t for t in tasks if cluster_of[t.task_id] == c])
            spans.update((t, (s + delay, e + delay)) for t, (s, e) in local.items())
    else:
        spans = {}
        for spec in tasks:
            start = thousandths(15000)
            spans[spec.task_id] = (start, start + spec.processing_time)
    rng.shuffle(tasks)
    placements: list[dict[str, Placement]] = [{} for _ in range(num_clusters)]
    for spec in tasks:
        t = spec.task_id
        placements[cluster_of[t]][t] = Placement(t, resource_of[t], "A1", *spans[t])
    partials = [
        PartialSchedule(f"C{c + 1}", placed) for c, placed in enumerate(placements)
    ]
    return partials, build_dag(tasks)


def phase2_instance(rng: random.Random):
    """Random input for phase 2: ``(tasks, clusters, pool, bookings)``.

    1-14 tasks with 3-decimal times, one in six of zero length, ids shuffled
    against the dependency order, split into 1-4 clusters (ascending task
    tuples, taken in a random order) that one agent schedules on the same
    timelines. The pool holds 1-4 resources ``R0``-``R3``, listed in a
    random order, of memory and cpuPower 2-4 against task requirements of
    0-3, so a task is often hosted by some resources only and now and then
    by none. ``bookings`` are ``(resource_id, start, duration)`` slots
    reserved before the first cluster, some of them touching.
    """
    def thousandths(hi: int) -> float:
        return rng.randint(0, hi) / 1000

    n = rng.randint(1, 14)
    names = [f"t{k:02d}" for k in rng.sample(range(n), n)]
    tasks = []
    for i, name in enumerate(names):
        deps = tuple(
            Dependency(names[p], thousandths(3000))
            for p in range(i) if rng.random() < 0.3
        )
        processing = 0.0 if rng.random() < 1 / 6 else thousandths(5000) or 0.001
        memory, cpu = float(rng.randint(0, 3)), float(rng.randint(0, 3))
        tasks.append(TaskSpec(name, processing, memory, cpu, None, deps))
    num_clusters = rng.randint(1, min(n, 4))
    owner = [rng.randrange(num_clusters) for _ in names]
    order = rng.sample(range(num_clusters), num_clusters)
    clusters = [
        (f"C{c + 1}", tuple(sorted(t for t, o in zip(names, owner) if o == c)))
        for c in order
        if c in owner
    ]
    pool = [
        ResourceSpec(
            f"R{k}", cpu_power=float(rng.randint(2, 4)), memory=float(rng.randint(2, 4))
        )
        for k in rng.sample(range(4), rng.randint(1, 4))
    ]
    bookings = []
    for r in pool:
        at = thousandths(3000)
        for _ in range(rng.randint(0, 3)):
            duration = thousandths(2000) or 0.001
            bookings.append((r.resource_id, at, duration))
            at += duration + (0.0 if rng.random() < 0.3 else thousandths(3000))
    rng.shuffle(tasks)
    return tasks, clusters, pool, bookings


def mixed_pool_instance(rng: random.Random) -> Scenario:
    """The tasks and pool of ``phase2_instance(rng)``, the pool's resources
    split in their listed order over 1 to all of them agents ``A1``, ...,
    so a task is often hosted by some agents only and now and then by none."""
    tasks, _, pool, _ = phase2_instance(rng)
    cuts = sorted(rng.sample(range(1, len(pool)), rng.randint(0, len(pool) - 1)))
    bounds = [0, *cuts, len(pool)]
    agents = [
        AgentSpec(f"A{k + 1}", tuple(r.resource_id for r in pool[lo:hi]))
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    return Scenario(tasks, pool, agents)


def fits_nowhere(scenario: Scenario) -> list[str]:
    """The ids of the tasks that no resource of the pool can host."""
    return sorted(
        t.task_id for t in scenario.tasks
        if not any(
            r.memory >= t.memory and r.cpu_power >= t.cpu_power
            for r in scenario.resources
        )
    )


def peak_above_live(fn, *args) -> int:
    """Bytes ``fn(*args)`` holds at its peak above what was live before the
    call, traced by ``tracemalloc`` with the cyclic collector off."""
    collecting, tracing = gc.isenabled(), tracemalloc.is_tracing()
    gc.collect()
    gc.disable()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        if not tracing:
            tracemalloc.stop()
        if collecting:
            gc.enable()
