"""Workload definitions and seeded input generation.

Every input is derived from the workload name and the ``--seed`` argument
only, so the same seed always yields the same task files. Resource pools use
the shape of ``make_pool(random.Random(7), ...)`` from ``tests/conftest.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from coalloc import (
    AgentSpec,
    ResourceSpec,
    generate_workload,
    serialize_agent_map,
    serialize_resource_set,
    serialize_task_set,
)


@dataclass(frozen=True)
class InstanceParams:
    """Generator arguments of one job's inputs."""

    gen_seed: int
    num_tasks: int
    layers: int
    density: float
    num_agents: int
    num_resources: int


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed, seeded set of distinct jobs.

    ``kind`` is ``"library"`` (a job is one ``orchestrate()`` call on parsed
    inputs) or ``"cli"`` (a job is one ``coalloc schedule --emit-gantt
    --emit-log`` process). The timed loop is closed, serial and has one
    client: it sends the next job only after the previous one finished.
    """

    name: str
    kind: str
    instances: int
    num_tasks: tuple[int, int]
    layers: tuple[int, int]
    density: tuple[float, float]
    num_agents: tuple[int, int]
    num_resources: int
    peak_jobs: int = 1  # middle-size jobs in the memory pass; the first also times set-up

    def params(self, seed: int) -> list[InstanceParams]:
        """The distinct jobs of one run; a pure function of name and seed.

        Each parameter range is stratified: the jobs take evenly spaced
        values across it, paired up in a seeded random order. Every seed
        thus gets the same mix of sizes, and seeds differ in the generated
        graphs and in which sizes go together.
        """
        rng = random.Random(f"{self.name}:{seed}")
        count = self.instances

        def levels(lo: float, hi: float, digits: int | None) -> list:
            step = (hi - lo) / max(count - 1, 1)
            values = [round(lo + i * step, digits) for i in range(count)]
            rng.shuffle(values)
            return values

        columns = zip(
            levels(*self.num_tasks, None),
            levels(*self.layers, None),
            levels(*self.density, 4),
            levels(*self.num_agents, None),
        )
        return [
            InstanceParams(
                rng.randrange(2**31), num_tasks, layers, density, num_agents,
                self.num_resources,
            )
            for num_tasks, layers, density, num_agents in columns
        ]

    def middle(self, seed: int, count: int) -> list[InstanceParams]:
        """``count`` jobs at the middle of every size range, for the set-up and
        memory passes; their sizes are the same on every seed."""
        rng = random.Random(f"{self.name}:{seed}:middle")

        def mid(lo: float, hi: float) -> float:
            return (lo + hi) / 2

        return [
            InstanceParams(
                rng.randrange(2**31), round(mid(*self.num_tasks)), round(mid(*self.layers)),
                round(mid(*self.density), 4), round(mid(*self.num_agents)), self.num_resources,
            )
            for _ in range(count)
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            name="dense-layered",
            kind="library",
            instances=24,
            num_tasks=(500, 500),
            layers=(25, 25),
            density=(0.04, 0.04),
            num_agents=(10, 10),
            num_resources=30,
        ),
        Workload(
            name="long-timelines",
            kind="library",
            instances=6,
            num_tasks=(4000, 4000),
            layers=(4, 4),
            density=(0.002, 0.002),
            num_agents=(2, 2),
            num_resources=4,
        ),
        Workload(
            name="cli-batch",
            kind="cli",
            instances=50,
            num_tasks=(100, 400),
            layers=(5, 20),
            density=(0.02, 0.1),
            num_agents=(2, 6),
            num_resources=16,
            peak_jobs=5,
        ),
    ]
}


def make_pool(
    rng: random.Random, num_agents: int, num_resources: int
) -> tuple[list[ResourceSpec], list[AgentSpec]]:
    """Random resource pool partitioned over agents.

    The same construction as ``make_pool`` in ``tests/conftest.py``, kept here
    so the benchmark does not import the test suite.
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


@dataclass(frozen=True)
class InputFiles:
    tasks: Path
    resources: Path
    agents: Path


def write_inputs(params: InstanceParams, directory: Path) -> InputFiles:
    """Generate one job's inputs and write them in the CLI's file formats."""
    tasks = generate_workload(
        params.gen_seed, params.num_tasks, params.layers, params.density
    )
    resources, agents = make_pool(
        random.Random(7), params.num_agents, params.num_resources
    )
    directory.mkdir(parents=True, exist_ok=True)
    files = InputFiles(
        directory / "tasks.xml", directory / "resources.xml", directory / "agents.txt"
    )
    files.tasks.write_text(serialize_task_set(tasks))
    files.resources.write_text(serialize_resource_set(resources))
    files.agents.write_text(serialize_agent_map(agents))
    return files
