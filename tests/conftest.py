"""Shared fixtures: the engineered balance scenario and seeded instance builders."""

from __future__ import annotations

import gc
import random
import tracemalloc
from dataclasses import dataclass

import pytest

from coalloc import AgentSpec, Dependency, ResourceSpec, TaskSpec, generate_workload


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
