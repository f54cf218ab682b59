"""Output identity: refactors must keep every artifact byte for byte.

The constants are sha256 digests of the demo's eight ``schedule`` artifacts,
of one 1000-task run and of one generated task file with deadlines. A change that alters any placement, cluster or
protocol message fails here; one that means to must say so in CHANGES.md
and update the constants.
"""

import hashlib
import random
from pathlib import Path

import pytest

from coalloc import cli, generate_workload, orchestrate
from coalloc.clustering import assignment_dump
from coalloc.model import schedule_to_csv, serialize_task_set
from conftest import make_pool

DEMO = Path(__file__).resolve().parent.parent / "demo"

DEMO_ARTIFACTS = {
    "clusters.txt": "842f3f3ac89a85e312a32de822647c546bb3c35b161ab8c1cd7c4fd920e350bb",
    "gantt.svg": "cfa5b24392303e018296fa385b07cb4bde5ce5e54ad4c9979500284987744b66",
    "gantt.txt": "c3d41ee78d3871eba3fa02127ff06f45b4d605c37bbd0ee9ae361efca14ce2bb",
    "metrics.csv": "cd433b838a1a62bae4e69b6e0dbe082ca85e5c6c055298ca018faeb097e21606",
    "protocol.log": "3456fd7228bc73cd6220835a643649823afe43bc9b8b276d7afb1019b8ecf8e8",
    "schedule.csv": "69502f9df8583c773d3c8b4f7ae3010fb31b1f5562babf4b88a5c8bd859f2a88",
    "tasks_per_agent.csv": "d0413045baef05b23ca441f608a24d393d9ad4de10428dde8de328d0d68e1de1",
    "tasks_per_agent.svg": "de81259414fcea4d03bb82d257f911988129a97a0ecc64685d34e34038bef645",
}

# schedule.csv, clusters.txt and protocol.log of the 1000-task instance below,
# each prefixed by its length in 8 big-endian bytes.
LARGE_RUN = "606eac25a70c83b0ea2870d944bb119a322fe3a5716c19621406160acd70e477"

# The task XML of generate_workload(7, 60, 6, 0.2) with deadline probability 0.3.
GENERATED = "2fd4ffedf8fc79616eddd3e9c04a6a58cb25fd22159b39cfca89a2aecf6fb982"


def test_demo_artifacts_are_unchanged(tmp_path):
    if not DEMO.exists():
        pytest.skip("demo directory not present")
    out = tmp_path / "out"
    code = cli.main([
        "schedule",
        "--tasks", str(DEMO / "tasks.xml"),
        "--resources", str(DEMO / "resources.xml"),
        "--agents", str(DEMO / "agents.txt"),
        "--out", str(out),
        "--emit-gantt", "--emit-log",
    ])
    assert code == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
    }
    assert digests == DEMO_ARTIFACTS


def test_large_run_is_unchanged():
    tasks = generate_workload(99, 1000, 25, 0.02)
    resources, agents = make_pool(random.Random(7), 10, 30)
    result = orchestrate(tasks, resources, agents)
    h = hashlib.sha256()
    for text in (
        schedule_to_csv(result.schedule),
        assignment_dump(result.cluster_dag),
        result.log.to_text(),
    ):
        data = text.encode()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    assert h.hexdigest() == LARGE_RUN


def test_generated_workload_is_unchanged():
    tasks = generate_workload(7, 60, 6, 0.2, deadline_probability=0.3)
    assert any(t.deadline_time is not None for t in tasks)
    text = serialize_task_set(tasks)
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED
