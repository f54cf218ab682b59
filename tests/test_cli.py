"""End-to-end CLI behavior: artifacts, exit codes, determinism."""

import argparse
import gc
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coalloc
from coalloc import (
    AgentSpec,
    Dependency,
    ResourceSpec,
    TaskSpec,
    cli,
    generate_workload,
)
from coalloc.model import (
    _FEED_CHARS,
    SCHEDULE_FIELDS,
    FinalSchedule,
    Placement,
    parse_task_file,
    placements_from_csv,
    schedule_to_csv,
    serialize_agent_map,
    serialize_resource_set,
    serialize_task_set,
)
from conftest import fits_nowhere, make_engineered, make_pool, mixed_pool_instance


@pytest.fixture
def demo_inputs(tmp_path):
    scenario = make_engineered()
    tasks = tmp_path / "tasks.xml"
    resources = tmp_path / "resources.xml"
    agents = tmp_path / "agents.txt"
    tasks.write_text(serialize_task_set(scenario.tasks))
    resources.write_text(serialize_resource_set(scenario.resources))
    agents.write_text(serialize_agent_map(scenario.agents))
    return tasks, resources, agents


def run_schedule(demo_inputs, out, extra=()):
    tasks, resources, agents = demo_inputs
    return cli.main(
        [
            "schedule",
            "--tasks", str(tasks),
            "--resources", str(resources),
            "--agents", str(agents),
            "--out", str(out),
            *extra,
        ]
    )


def test_schedule_writes_artifacts(demo_inputs, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_schedule(demo_inputs, out, ["--emit-gantt", "--emit-log"])
    assert code == 0
    rows = placements_from_csv((out / "schedule.csv").read_text())
    assert len(rows) == 8
    starts = [(p.start, p.task_id) for p in rows]
    assert starts == sorted(starts)
    metrics = (out / "metrics.csv").read_text()
    assert "tasksPerAgent,agent1,3" in metrics
    assert "tasksPerAgent,agent2,3" in metrics
    assert "tasksPerAgent,agent3,2" in metrics
    assert "balanceSpread,,1" in metrics
    assert (out / "tasks_per_agent.csv").read_text().startswith("agentId,count")
    assert "<svg" in (out / "tasks_per_agent.svg").read_text()
    assert "<svg" in (out / "gantt.svg").read_text()
    assert "makespan" in (out / "gantt.txt").read_text()
    log = (out / "protocol.log").read_text()
    assert log.splitlines()[0].endswith("tasks=8")
    clusters = (out / "clusters.txt").read_text()
    assert "1 -> C1" in clusters and "8 -> C3" in clusters
    assert "makespan 12.0" in capsys.readouterr().out


def test_demo_protocol_log_is_golden(demo_inputs, tmp_path):
    out = tmp_path / "out"
    assert run_schedule(demo_inputs, out, ["--emit-log"]) == 0
    assert (out / "protocol.log").read_text() == (
        "1\tuser\tbroker\tSubmitTasks\ttasks=8\n"
        "2\tbroker\tagent1\tAssignCluster\tcluster=C1 tasks=3\n"
        "3\tbroker\tagent2\tAssignCluster\tcluster=C2 tasks=3\n"
        "4\tbroker\tagent3\tAssignCluster\tcluster=C3 tasks=2\n"
        "5\tagent1\tbroker\tClusterScheduled\tcluster=C1 placements=3\n"
        "6\tagent2\tbroker\tClusterScheduled\tcluster=C2 placements=3\n"
        "7\tagent3\tbroker\tClusterScheduled\tcluster=C3 placements=2\n"
        "8\tbroker\tagent3\tDependencyInfo\tcluster=C3 entries=2\n"
        "9\tagent3\tbroker\tAdjustedSchedule\tcluster=C3 placements=2\n"
        "10\tbroker\tuser\tScheduleResult\tmappings=8 makespan=12.0\n"
    )


def test_empty_task_file_succeeds(demo_inputs, tmp_path):
    tasks, resources, agents = demo_inputs
    tasks.write_text("<tasks></tasks>")
    out = tmp_path / "out"
    assert run_schedule((tasks, resources, agents), out) == 0
    assert (out / "schedule.csv").read_text().strip() == (
        "taskId,resourceId,agentId,start,end"
    )


def test_empty_task_file_draws_an_empty_gantt(demo_inputs, tmp_path):
    tasks, resources, agents = demo_inputs
    tasks.write_text("<tasks/>")
    out = tmp_path / "out"
    assert run_schedule((tasks, resources, agents), out, ["--emit-gantt"]) == 0
    assert (out / "gantt.txt").read_text() == "(empty schedule)\n"


def test_infeasible_task_exits_2(demo_inputs, tmp_path, capsys):
    tasks, resources, agents = demo_inputs
    text = tasks.read_text().replace(
        "<memory>1.0</memory>", "<memory>64.0</memory>", 1
    )
    tasks.write_text(text)
    code = run_schedule((tasks, resources, agents), tmp_path / "out")
    assert code == 2
    assert "'1'" in capsys.readouterr().err  # first task carries the bad memory


def test_task_too_large_for_its_agent_goes_where_it_fits(demo_inputs, tmp_path):
    # Only P05 (agent3) gets memory 8.0; task 1 needs 6.0, more than
    # agent1's P01 and P02 offer
    tasks, resources, agents = demo_inputs
    text = resources.read_text()
    at = text.index("<Memory>", text.index("<Id>P05</Id>"))
    resources.write_text(text[:at] + "<Memory>8.0" + text[text.index("</Memory>", at):])
    tasks.write_text(tasks.read_text().replace(
        "<memory>1.0</memory>", "<memory>6.0</memory>", 1
    ))
    out = tmp_path / "out"
    assert run_schedule((tasks, resources, agents), out) == 0
    rows = (out / "schedule.csv").read_text().splitlines()
    assert any(row.startswith("1,P05,agent3,") for row in rows)


def test_infeasible_task_is_named_with_its_needs(demo_inputs, tmp_path, capsys):
    tasks, resources, agents = demo_inputs
    tasks.write_text(tasks.read_text().replace(
        "<memory>1.0</memory>", "<memory>64.0</memory>", 1
    ))
    assert run_schedule((tasks, resources, agents), tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        "error: task '1' has no eligible resource: no resource in the pool has "
        "memory >= 64.0 and cpuPower >= 1.0\n"
    )
    assert not (tmp_path / "out").exists()


def test_missing_file_exits_1(demo_inputs, tmp_path, capsys):
    _, resources, agents = demo_inputs
    code = cli.main(
        [
            "schedule",
            "--tasks", str(tmp_path / "nope.xml"),
            "--resources", str(resources),
            "--agents", str(agents),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "nope.xml" in capsys.readouterr().err


def test_usage_errors_exit_1(demo_inputs, tmp_path, capsys):
    # argparse's own code 2 would read as "infeasible task"
    with pytest.raises(SystemExit) as exc:
        run_schedule(demo_inputs, tmp_path / "out", ["--parallel"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --parallel" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["schedule", "--tasks", "x"])
    assert exc.value.code == 1
    assert "arguments are required" in capsys.readouterr().err


def test_malformed_xml_exits_1(demo_inputs, tmp_path, capsys):
    tasks, resources, agents = demo_inputs
    tasks.write_text("<tasks><task></tasks>")
    code = run_schedule((tasks, resources, agents), tmp_path / "out")
    assert code == 1
    assert "line" in capsys.readouterr().err


def test_bad_agent_map_exits_1_alike_from_schedule_and_validate(
    demo_inputs, tmp_path, capsys
):
    # validate checks the map itself; schedule leaves it to orchestrate
    tasks, resources, agents = demo_inputs
    schedule = tmp_path / "first" / "schedule.csv"
    assert run_schedule(demo_inputs, schedule.parent) == 0
    agents.write_text(agents.read_text() + "ghost: R99\n")
    capsys.readouterr()
    out = tmp_path / "out"
    inputs = ["--tasks", str(tasks), "--resources", str(resources),
              "--agents", str(agents)]
    errors = []
    for argv in (["schedule", *inputs, "--out", str(out)],
                 ["validate", *inputs, "--schedule", str(schedule)]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == ["error: agent 'ghost' manages unknown resource 'R99'\n"] * 2
    assert not out.exists()


def test_non_utf8_task_file_exits_1(demo_inputs, tmp_path, capsys):
    tasks, resources, agents = demo_inputs
    tasks.write_bytes(b"\xff\xfe<tasks></tasks>")
    code = run_schedule((tasks, resources, agents), tmp_path / "out")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read task file {tasks}: ")
    assert "can't decode byte 0xff" in err
    assert err.count("\n") == 1


def test_undecodable_byte_past_the_first_slice_exits_1(demo_inputs, tmp_path, capsys):
    tasks, resources, agents = demo_inputs
    text = serialize_task_set(generate_workload(5, 200, 4, 0.05)).encode()
    at = text.index(b"<task>", 2 * _FEED_CHARS)
    tasks.write_bytes(text[:at] + b"\xff" + text[at:])
    code = run_schedule((tasks, resources, agents), tmp_path / "out")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read task file {tasks}: ")
    assert f"can't decode byte 0xff in position {at}:" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_task_file_is_never_held_whole(demo_inputs):
    tasks, resources, agents = demo_inputs
    tasks.write_text(serialize_task_set(generate_workload(3, 3000, 10, 0.003)))
    size = tasks.stat().st_size
    args = argparse.Namespace(tasks=tasks, resources=resources, agents=agents)
    gc.collect()
    tracemalloc.start()
    try:
        loaded = cli._load_inputs(args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded[0]) == 3000
    # the whole text alone would add ``size`` above what the task set holds
    assert peak - held < 0.25 * size


@pytest.mark.parametrize("command", ["schedule", "generate", "metrics"])
def test_out_path_that_is_a_file_exits_1(command, demo_inputs, tmp_path, capsys):
    tasks = demo_inputs[0]
    out = tmp_path / "out"
    assert run_schedule(demo_inputs, out) == 0
    capsys.readouterr()
    argv = {
        "schedule": ["schedule", "--tasks", str(tasks),
                     "--resources", str(demo_inputs[1]),
                     "--agents", str(demo_inputs[2])],
        "generate": ["generate"],
        "metrics": ["metrics", "--schedule", str(out / "schedule.csv")],
    }[command]
    assert cli.main([*argv, "--out", str(tasks)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: output path {tasks} is not a directory\n"
    assert captured.out == ""


def test_out_path_below_a_file_exits_1(demo_inputs, tmp_path, capsys):
    out = demo_inputs[0] / "out"
    assert run_schedule(demo_inputs, out) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot create output directory {out}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, artifact",
    [("schedule", "schedule.csv"), ("generate", "tasks.xml"),
     ("metrics", "metrics.csv")],
)
def test_unwritable_artifact_exits_1(command, artifact, demo_inputs, tmp_path, capsys):
    tasks, resources, agents = demo_inputs
    schedule = tmp_path / "first" / "schedule.csv"
    assert run_schedule(demo_inputs, schedule.parent) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)  # a directory where the file goes
    argv = {
        "schedule": ["schedule", "--tasks", str(tasks), "--resources",
                     str(resources), "--agents", str(agents)],
        "generate": ["generate"],
        "metrics": ["metrics", "--schedule", str(schedule)],
    }[command]
    assert cli.main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out / artifact}: ")
    assert "Is a directory" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("processing, task_id", [("6e307", "4"), ("1e308", "3")])
def test_overflowing_times_exit_1(processing, task_id, demo_inputs, tmp_path, capsys):
    # finite inputs whose sums overflow: never an inf in schedule.csv, never
    # an internal timeline message
    tasks, resources, agents = demo_inputs
    doc = re.sub(
        r"<processingTime>[^<]*</processingTime>",
        f"<processingTime>{processing}</processingTime>",
        tasks.read_text(),
    )
    tasks.write_text(doc)
    out = tmp_path / "out"
    assert run_schedule((tasks, resources, agents), out) == 1
    assert capsys.readouterr().err == (
        f"error: task {task_id!r} would end past the largest finite time; "
        "its processing and communication times are too large\n"
    )
    assert not out.exists()


def test_rigid_shift_overflow_exits_1(tmp_path, capsys):
    # x and y each end at a finite time in phase 2, but y's shift behind x
    # overflows, so phase 3 reports it when it shifts y
    tasks = [
        TaskSpec("x", 1.5e308, 1.0, 1.0),
        TaskSpec("y", 1e308, 1.0, 1.0, dependencies=(Dependency("x", 0.0),)),
    ]
    resources = [ResourceSpec(f"N{i}", cpu_power=4.0, memory=4.0) for i in (1, 2, 3)]
    agents = [AgentSpec(f"a{i}", (f"N{i}",)) for i in (1, 2, 3)]
    inputs = [tmp_path / name for name in ("tasks.xml", "resources.xml", "agents.txt")]
    inputs[0].write_text(serialize_task_set(tasks))
    inputs[1].write_text(serialize_resource_set(resources))
    inputs[2].write_text(serialize_agent_map(agents))
    out = tmp_path / "out"
    assert run_schedule(inputs, out) == 1
    assert capsys.readouterr().err == (
        "error: task 'y' would end past the largest finite time; "
        "its processing and communication times are too large\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["metrics", "validate"])
def test_empty_schedule_file_exits_1(command, demo_inputs, tmp_path, capsys):
    tasks, resources, agents = demo_inputs
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("")
    argv = {
        "metrics": ["metrics"],
        "validate": ["validate", "--tasks", str(tasks), "--resources",
                     str(resources), "--agents", str(agents)],
    }[command]
    assert cli.main([*argv, "--schedule", str(schedule)]) == 1
    assert capsys.readouterr().err == "error: schedule file is empty\n"


def test_header_only_schedule_file_has_zero_makespan(tmp_path, capsys):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("taskId,resourceId,agentId,start,end\n")
    assert cli.main(["metrics", "--schedule", str(schedule)]) == 0
    assert "makespan,,0.0" in capsys.readouterr().out


def test_strict_deadlines_exit_3(tmp_path):
    scenario = make_engineered()
    # give the final task an impossible deadline
    doc = serialize_task_set(scenario.tasks).replace(
        "<taskId>8</taskId>\n    <requirements>\n      <memory>1.0</memory>",
        "<taskId>8</taskId>\n    <requirements>\n      "
        "<deadlineTime>1.0</deadlineTime>\n      <memory>1.0</memory>",
    )
    tasks = tmp_path / "tasks.xml"
    tasks.write_text(doc)
    assert parse_task_file(doc)[7].deadline_time == 1.0
    resources = tmp_path / "resources.xml"
    resources.write_text(serialize_resource_set(scenario.resources))
    agents = tmp_path / "agents.txt"
    agents.write_text(serialize_agent_map(scenario.agents))
    out = tmp_path / "out"
    relaxed = cli.main(
        ["schedule", "--tasks", str(tasks), "--resources", str(resources),
         "--agents", str(agents), "--out", str(out)]
    )
    assert relaxed == 0
    strict = cli.main(
        ["schedule", "--tasks", str(tasks), "--resources", str(resources),
         "--agents", str(agents), "--out", str(out), "--strict-deadlines"]
    )
    assert strict == 3


def test_generate_is_byte_deterministic(tmp_path, capsys):
    args = ["generate", "--seed", "7", "--num-tasks", "15",
            "--layers", "3", "--density", "0.3"]
    assert cli.main([*args, "--out", str(tmp_path / "g1")]) == 0
    assert cli.main([*args, "--out", str(tmp_path / "g2")]) == 0
    first = (tmp_path / "g1" / "tasks.xml").read_bytes()
    second = (tmp_path / "g2" / "tasks.xml").read_bytes()
    assert first == second
    assert len(parse_task_file(first.decode())) == 15


def test_generate_rejects_a_deadline_probability_out_of_range(tmp_path, capsys):
    code = cli.main(["generate", "--out", str(tmp_path / "g"),
                     "--deadline-prob", "1.5"])
    assert code == 1
    assert "error: deadline_probability must be in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


def test_generate_checks_its_parameters_when_asked_for_no_tasks(tmp_path, capsys):
    code = cli.main(["generate", "--out", str(tmp_path / "g"), "--num-tasks", "0",
                     "--density", "7", "--layers", "-3"])
    assert code == 1
    assert capsys.readouterr().err == "error: num_layers must be >= 1, got -3\n"
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--density", "-1e-3", "edge_density must be in [0, 1]"),
        ("--density", "-inf", "edge_density must be in [0, 1]"),
        ("--deadline-prob", "-1e-3", "deadline_probability must be in [0, 1]"),
    ],
)
def test_generate_reads_a_negative_exponent_or_infinity_as_a_value(
    flag, value, message, tmp_path, capsys
):
    # argparse alone reads a token that starts with "-" and is not shaped
    # like -1 or -1.5 as an option, and fails with "expected one argument".
    code = cli.main(["generate", "--out", str(tmp_path / "g"), flag, value])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "g").exists()


def test_validate_accepts_engine_output(demo_inputs, tmp_path, capsys):
    tasks, resources, agents = demo_inputs
    out = tmp_path / "out"
    assert run_schedule(demo_inputs, out) == 0
    code = cli.main(
        ["validate", "--tasks", str(tasks), "--resources", str(resources),
         "--agents", str(agents), "--schedule", str(out / "schedule.csv")]
    )
    assert code == 0
    assert "schedule valid" in capsys.readouterr().out


def test_validate_flags_injected_overlap(demo_inputs, tmp_path, capsys):
    tasks, resources, agents = demo_inputs
    out = tmp_path / "out"
    assert run_schedule(demo_inputs, out) == 0
    schedule_file = out / "schedule.csv"
    lines = schedule_file.read_text().splitlines()
    # drag task 6 (on P03, [3,4)) onto P01 where only task 4 holds [3,5)
    assert lines[5] == "6,P03,agent2,3.0,4.0"
    lines[5] = "6,P01,agent1,3.0,4.0"
    schedule_file.write_text("\n".join(lines) + "\n")
    code = cli.main(
        ["validate", "--tasks", str(tasks), "--resources", str(resources),
         "--agents", str(agents), "--schedule", str(schedule_file)]
    )
    assert code == 1
    report = capsys.readouterr().out
    assert report.count("overlap on") == 1
    assert "overlap on P01: 4 and 6" in report


def test_validate_exits_3_when_only_deadlines_are_missed(
    demo_inputs, tmp_path, capsys
):
    tasks, resources, agents = demo_inputs
    out = tmp_path / "out"
    assert run_schedule(demo_inputs, out) == 0
    capsys.readouterr()
    # the same schedule, checked against a deadline that task 8 misses
    late = [
        t._replace(deadline_time=1.0) if t.task_id == "8" else t
        for t in make_engineered().tasks
    ]
    tasks.write_text(serialize_task_set(late))
    validate = ["validate", "--tasks", str(tasks), "--resources", str(resources),
                "--agents", str(agents), "--schedule", str(out / "schedule.csv")]
    assert cli.main(validate) == 3
    report = capsys.readouterr().out.splitlines()
    assert len(report) == 1 and report[0].startswith("deadline: 8 ends ")

    # a hard violation beside the missed deadline keeps the input-error code
    schedule_file = out / "schedule.csv"
    lines = schedule_file.read_text().splitlines()
    assert lines[5] == "6,P03,agent2,3.0,4.0"
    lines[5] = "6,P01,agent1,3.0,4.0"
    schedule_file.write_text("\n".join(lines) + "\n")
    assert cli.main(validate) == 1
    report = capsys.readouterr().out
    assert "overlap on P01: 4 and 6" in report
    assert "deadline: 8 ends " in report


def test_validate_rejects_infinite_times(demo_inputs, tmp_path, capsys):
    tasks, resources, agents = demo_inputs
    out = tmp_path / "out"
    assert run_schedule(demo_inputs, out) == 0
    schedule_file = out / "schedule.csv"
    lines = schedule_file.read_text().splitlines()
    task8 = next(i for i, line in enumerate(lines) if line.startswith("8,"))
    lines[task8] = ",".join(lines[task8].split(",")[:3] + ["inf", "inf"])
    schedule_file.write_text("\n".join(lines) + "\n")
    code = cli.main(
        ["validate", "--tasks", str(tasks), "--resources", str(resources),
         "--agents", str(agents), "--schedule", str(schedule_file)]
    )
    assert code == 1
    assert "start/end must be finite" in capsys.readouterr().err


def test_metrics_from_schedule_file(demo_inputs, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_schedule(demo_inputs, out) == 0
    capsys.readouterr()
    code = cli.main(["metrics", "--schedule", str(out / "schedule.csv")])
    assert code == 0
    text = capsys.readouterr().out
    assert "makespan,,12.0" in text
    assert "tasksPerAgent,agent3,2" in text


@pytest.mark.parametrize("seed", [2, 13, 31, 47, 88])
def test_validate_accepts_corpus_schedules(seed, tmp_path, capsys):
    """schedule -> csv -> validate round-trips cleanly on seeded instances."""
    from conftest import corpus_instance

    scenario = corpus_instance(seed)
    tasks = tmp_path / "tasks.xml"
    resources = tmp_path / "resources.xml"
    agents = tmp_path / "agents.txt"
    tasks.write_text(serialize_task_set(scenario.tasks))
    resources.write_text(serialize_resource_set(scenario.resources))
    agents.write_text(serialize_agent_map(scenario.agents))
    out = tmp_path / "out"
    assert run_schedule((tasks, resources, agents), out) == 0
    code = cli.main(
        ["validate", "--tasks", str(tasks), "--resources", str(resources),
         "--agents", str(agents), "--schedule", str(out / "schedule.csv")]
    )
    assert code == 0


def test_schedule_runs_are_byte_identical(demo_inputs, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_schedule(demo_inputs, out1, ["--emit-log", "--emit-gantt"]) == 0
    assert run_schedule(demo_inputs, out2, ["--emit-log", "--emit-gantt"]) == 0
    for name in ["schedule.csv", "metrics.csv", "tasks_per_agent.csv",
                 "protocol.log", "gantt.svg", "gantt.txt"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def run_python(*args):
    """A fresh ``python -S`` with this process's ``coalloc`` on its path.

    ``-S`` skips the site hooks, which may load modules of their own.
    """
    package_root = str(Path(coalloc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    return subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, text=True, env=env
    )


def cli_args(demo_inputs, out):
    tasks, resources, agents = demo_inputs
    return ["schedule", "--tasks", str(tasks), "--resources", str(resources),
            "--agents", str(agents), "--out", str(out), "--emit-log", "--emit-gantt"]


@pytest.mark.parametrize("run", ["import coalloc", "import coalloc.cli", "schedule"])
def test_logging_is_loaded_only_by_a_warning(run, demo_inputs, tmp_path):
    if run == "schedule":
        run = "from coalloc.cli import main; assert main(sys.argv[1:]) == 0"
    probe = f"import sys; {run}; print('logging' in sys.modules)"
    proc = run_python("-c", probe, *cli_args(demo_inputs, tmp_path / "out"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "run, loaded",
    [("import coalloc", False), ("import coalloc.cli", False), ("schedule", False),
     ("generate", True)],
)
def test_element_tree_is_loaded_only_to_write_xml(run, loaded, demo_inputs, tmp_path):
    argv = cli_args(demo_inputs, tmp_path / "out")
    if run == "generate":
        argv = ["generate", "--out", str(tmp_path / "gen"), "--num-tasks", "5"]
    if run in ("schedule", "generate"):
        run = "from coalloc.cli import main; assert main(sys.argv[1:]) == 0"
    probe = f"import sys; {run}; print('xml.etree.ElementTree' in sys.modules)"
    proc = run_python("-c", probe, *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == str(loaded)


def test_model_compiles_before_dataclasses_is_imported():
    # Compiling coalloc.model is the import's memory peak; dataclasses, which
    # only Placement needs, is imported while model runs, not before.
    probe = (
        "import sys\n"
        "found = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        found.append(name)\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import coalloc.cli\n"
        "print(found.index('coalloc.model') < found.index('dataclasses'))\n"
    )
    proc = run_python("-c", probe)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True\n")


def test_cli_warns_in_document_order_before_a_syntax_error(demo_inputs, tmp_path):
    tasks = demo_inputs[0]
    text = tasks.read_text().replace("</tasks>", "")  # a syntax error at the end
    text = text.replace("<processingTime>2.0", "<color/><processingTime>2.0", 1)
    text = text.replace("<processingTime>3.0", "<shape/><processingTime>3.0", 1)
    tasks.write_text(text)
    proc = run_python("-m", "coalloc.cli", *cli_args(demo_inputs, tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines[:2] == [
        "ignoring unknown element <color> in task '1'",
        "ignoring unknown element <shape> in task '2'",
    ]
    assert len(lines) == 3
    assert lines[2].startswith("error: malformed XML at line ")


# Value-level fuzz: generated inputs with 1-3 field texts replaced by hostile
# tokens, or by another field's text, which duplicates or dangles an id.
HOSTILE = ["nan", "inf", "-inf", "-0", "5e-324", "1e308", "", "\u0661", "ghost"]
XML_FIELD = re.compile(r">([^<>\s][^<>]*)<")
AGENT_FIELD = re.compile(r"([^:,\s]+)")


@st.composite
def hostile_inputs(draw):
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(1, 8))
    tasks = generate_workload(
        seed, n, draw(st.integers(1, min(n, 3))), draw(st.sampled_from([0.2, 0.6])),
        deadline_probability=draw(st.sampled_from([0.0, 0.5])),
    )
    num_agents = draw(st.integers(1, 3))
    resources, agents = make_pool(
        random.Random(seed), num_agents, draw(st.integers(num_agents, 4))
    )
    texts = [
        serialize_task_set(tasks),
        serialize_resource_set(resources),
        serialize_agent_map(agents),
    ]
    fields = [
        (i, m.start(1), m.end(1))
        for i, text in enumerate(texts)
        for m in (AGENT_FIELD if i == 2 else XML_FIELD).finditer(text)
    ]
    originals = sorted({texts[i][a:b] for i, a, b in fields})
    picks = draw(st.lists(st.sampled_from(fields), min_size=1, max_size=3, unique=True))
    for i, a, b in sorted(picks, reverse=True):  # from the back: spans stay put
        token = draw(st.sampled_from(HOSTILE) | st.sampled_from(originals))
        texts[i] = texts[i][:a] + token + texts[i][b:]
    return texts


@settings(
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(texts=hostile_inputs())
def test_hostile_field_values_exit_cleanly(texts, tmp_path, capsys):
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
        paths = [Path(scratch, name) for name in ("t.xml", "r.xml", "a.txt")]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8")
        inputs = [
            "--tasks", str(paths[0]), "--resources", str(paths[1]),
            "--agents", str(paths[2]),
        ]
        out = Path(scratch, "out")
        capsys.readouterr()
        code = cli.main(["schedule", *inputs, "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), err
        else:
            validate = ["validate", *inputs, "--schedule", str(out / "schedule.csv")]
            assert cli.main(validate) in (0, 3), capsys.readouterr().out
        if code == 2:
            assert "has no eligible resource: no resource in the pool" in err


@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 10**6))
def test_exit_2_iff_some_task_fits_no_resource(seed, tmp_path, capsys):
    instance = mixed_pool_instance(random.Random(seed))
    homeless = fits_nowhere(instance)
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
        paths = [Path(scratch, name) for name in ("t.xml", "r.xml", "a.txt")]
        paths[0].write_text(serialize_task_set(instance.tasks))
        paths[1].write_text(serialize_resource_set(instance.resources))
        paths[2].write_text(serialize_agent_map(instance.agents))
        out = Path(scratch, "out")
        capsys.readouterr()
        code = run_schedule(paths, out)
        err = capsys.readouterr().err
        assert (code == 2) == bool(homeless), err
        if homeless:
            assert err.startswith(f"error: task {homeless[0]!r} has no eligible")
        else:
            assert code == 0, err
            validate = ["validate", "--tasks", str(paths[0]), "--resources",
                        str(paths[1]), "--agents", str(paths[2]),
                        "--schedule", str(out / "schedule.csv")]
            assert cli.main(validate) == 0


@pytest.mark.parametrize("token", ["1_0", "\u0661", "\u0663.\u0665", "\uff12"])
def test_numbers_must_be_ascii_decimals(token, demo_inputs, tmp_path, capsys):
    tasks, resources, agents = demo_inputs
    out = tmp_path / "out"
    assert run_schedule(demo_inputs, out) == 0
    validate = ["validate", "--tasks", str(tasks), "--resources", str(resources),
                "--agents", str(agents), "--schedule", str(out / "schedule.csv")]
    cases = [
        (tasks, r"(<processingTime>)[^<]*", "processingTime: not a number"),
        (resources, r"(<Memory>)[^<]*", "Memory: not a number"),
        (out / "schedule.csv", r"(\n(?:[^,]*,){3})[^,]*", "start/end must be numbers"),
    ]
    for path, field, message in cases:
        good = path.read_text()
        path.write_text(re.sub(field, lambda m: m.group(1) + token, good, count=1))
        capsys.readouterr()
        assert cli.main(validate) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        path.write_text(good)


# Value-level fuzz of `metrics --schedule`: hostile cells, a dropped column,
# a short row and reordered columns.
HOSTILE_CELLS = ["nan", "inf", "1_0", "\u0661", ""]


@st.composite
def hostile_schedules(draw):
    placements = []
    for i in range(draw(st.integers(1, 6))):
        start = draw(st.integers(0, 40)) * 0.25
        end = start + draw(st.integers(0, 8)) * 0.25
        resource = draw(st.sampled_from(["P01", "P02"]))
        agent = draw(st.sampled_from(["a1", "a2"]))
        placements.append(Placement(f"t{i}", resource, agent, start, end))
    csv_text = schedule_to_csv(
        FinalSchedule(tuple(placements), max(p.end for p in placements))
    )
    order = draw(st.permutations(range(len(SCHEDULE_FIELDS))))
    rows = [[line.split(",")[i] for i in order] for line in csv_text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["cell", "cell", "drop-column", "short-row"]))
        row = draw(st.integers(1, len(rows) - 1))
        col = draw(st.integers(0, len(rows[0]) - 1))
        if edit == "cell" and col < len(rows[row]):
            rows[row][col] = draw(st.sampled_from(HOSTILE_CELLS))
        elif edit == "drop-column":
            rows = [r[:col] + r[col + 1:] for r in rows]
        elif edit == "short-row":
            del rows[row][-1:]
    return "".join(",".join(r) + "\n" for r in rows)


@settings(
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=hostile_schedules())
def test_hostile_schedule_cells_exit_cleanly_from_metrics(text, tmp_path, capsys):
    schedule_file = tmp_path / "schedule.csv"
    schedule_file.write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = cli.main(["metrics", "--schedule", str(schedule_file)])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert "Traceback" not in captured.err
    if code:
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    else:
        assert captured.out.startswith("metric,key,value\n")


# Value-level fuzz of `generate`: each argument is left out, valid, out of
# range or no number at all. --num-tasks never asks for more than 60 tasks.
GENERATE_VALUES = {
    "--seed": st.sampled_from(["0", "-7", "2147483648", "1e3", "x", ""]),
    "--num-tasks": st.integers(-2, 60).map(str) | st.sampled_from(["1.5", "nan", ""]),
    "--layers": st.integers(-1, 62).map(str) | st.sampled_from(["nan", "two"]),
    "--density": st.sampled_from(
        ["0", "0.05", "1", "-0.1", "1.5", "nan", "inf", "-inf", "1e-300", "x"]
    ),
    "--deadline-prob": st.sampled_from(["0", "0.5", "1", "-0.5", "2", "nan", "inf"]),
}


@settings(
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(values=st.fixed_dictionaries(
    {flag: st.none() | values for flag, values in GENERATE_VALUES.items()}
))
def test_hostile_generate_arguments_exit_cleanly(values, tmp_path, capsys):
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
        out = Path(scratch, "g")
        argv = ["generate", "--out", str(out)]
        for flag, value in values.items():
            if value is not None:
                argv += [flag, value]
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error, reported by argparse
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1)
        assert "Traceback" not in err
        if code:
            assert "error: " in err.splitlines()[-1], err
            assert not out.exists()
        else:
            tasks = parse_task_file((out / "tasks.xml").read_text(encoding="utf-8"))
            assert len(tasks) == int(values["--num-tasks"] or 20)


@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**16),
    num_tasks=st.integers(1, 12),
    spare_agents=st.integers(1, 3),
)
def test_more_agents_than_tasks_gives_singleton_clusters(
    seed, num_tasks, spare_agents, tmp_path
):
    # The quota num_tasks // num_agents + 1 is 1, so no two tasks share a
    # cluster.
    tasks = generate_workload(
        seed, num_tasks, min(num_tasks, 3), 0.5, deadline_probability=0.5
    )
    num_agents = num_tasks + spare_agents
    resources, agents = make_pool(random.Random(seed), num_agents, num_agents + 1)
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
        paths = [Path(scratch, name) for name in ("t.xml", "r.xml", "a.txt")]
        paths[0].write_text(serialize_task_set(tasks))
        paths[1].write_text(serialize_resource_set(resources))
        paths[2].write_text(serialize_agent_map(agents))
        out = Path(scratch, "out")
        assert run_schedule(paths, out, ["--emit-log"]) == 0
        lines = (out / "clusters.txt").read_text().splitlines()
        assert len(lines) == num_tasks
        assert len({line.split(" -> ")[1] for line in lines}) == num_tasks
        validate = ["validate", "--tasks", str(paths[0]), "--resources", str(paths[1]),
                    "--agents", str(paths[2]), "--schedule", str(out / "schedule.csv")]
        assert cli.main(validate) in (0, 3)
