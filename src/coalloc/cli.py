"""Command-line frontend: schedule, generate, validate, metrics.

Exit codes: 0 success, 1 input or usage error (for ``validate``, also any
hard violation), 2 infeasible task, 3 missed deadline (``schedule`` under
--strict-deadlines; ``validate`` when every violation is one).
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

from . import broker, clustering, harness, render
from .errors import InfeasibleTaskError, SchedulingError
from .graph import build_dag
from .model import (
    FinalSchedule,
    format_number,
    parse_agent_map,
    parse_resource_file,
    parse_task_file,
    placements_from_csv,
    schedule_to_csv,
    serialize_task_set,
    validate_agent_map,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_DEADLINE = 3


def _fail(message: str, code: int = EXIT_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


@contextmanager
def _opened(path: Path, what: str) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8; failing to open, read or decode
    it, inside the block too, raises :class:`SchedulingError`."""
    try:
        with path.open(encoding="utf-8") as source:
            yield source
    except (OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            # Its position counts from the start of the chunk being decoded;
            # decoding the whole file again gives the position in the file.
            try:
                path.read_bytes().decode("utf-8")
            except (OSError, UnicodeDecodeError) as whole:
                exc = whole
        raise SchedulingError(f"cannot read {what} {path}: {exc}") from None


def _read(path: Path, what: str) -> str:
    with _opened(path, what) as source:
        return source.read()


def _write(path: Path, text: str) -> None:
    _fill(path, lambda out: out.write(text))


def _fill(path: Path, write: Callable[[TextIO], object]) -> None:
    """Open ``path`` for writing and let ``write`` fill it."""
    try:
        with path.open("w") as out:
            write(out)
    except OSError as exc:
        raise SchedulingError(f"cannot write {path}: {exc}") from None


def _make_out_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        raise SchedulingError(f"output path {out} is not a directory") from None
    except OSError as exc:
        raise SchedulingError(
            f"cannot create output directory {out}: {exc}"
        ) from None


def _load_inputs(args: argparse.Namespace):
    # The XML files go to their parsers a slice at a time, never whole.
    with _opened(args.tasks, "task file") as source:
        tasks = parse_task_file(source)
    with _opened(args.resources, "resource file") as source:
        resources = parse_resource_file(source)
    agents = parse_agent_map(_read(args.agents, "agent map"))
    return tasks, resources, agents


def _metrics_csv(metrics: harness.Metrics) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "key", "value"])
    writer.writerow(["makespan", "", format_number(metrics.makespan)])
    writer.writerow(["balanceSpread", "", str(metrics.balance_spread)])
    for agent_id, count in metrics.series():
        writer.writerow(["tasksPerAgent", agent_id, str(count)])
    for rid, busy in sorted(metrics.per_resource_busy.items()):
        writer.writerow(["resourceBusy", rid, format_number(busy)])
    return buf.getvalue()


def _series_csv(metrics: harness.Metrics) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["agentId", "count"])
    for agent_id, count in metrics.series():
        writer.writerow([agent_id, str(count)])
    return buf.getvalue()


def _write_metrics_artifacts(out: Path, metrics: harness.Metrics) -> None:
    _write(out / "metrics.csv", _metrics_csv(metrics))
    _write(out / "tasks_per_agent.csv", _series_csv(metrics))
    _write(
        out / "tasks_per_agent.svg",
        render.bar_chart_svg(metrics.series(), "tasks per agent"),
    )


def cmd_schedule(args: argparse.Namespace) -> int:
    """Run the full pipeline and write schedule, metrics, and optional charts."""
    try:
        tasks, resources, agents = _load_inputs(args)
    except SchedulingError as exc:
        return _fail(str(exc))
    try:
        result = broker.orchestrate(tasks, resources, agents)
        _make_out_dir(args.out)
    except InfeasibleTaskError as exc:
        return _fail(str(exc), EXIT_INFEASIBLE)
    except SchedulingError as exc:
        return _fail(str(exc))

    # Keep only what the artifacts need: the parsed inputs and the task DAG
    # are dropped before the writers allocate their buffers.
    schedule, log, cluster_dag = result.schedule, result.log, result.cluster_dag
    tasks_per_agent = result.assignment.tasks_per_agent
    del tasks, resources, agents, result

    out = args.out
    try:
        _write(out / "schedule.csv", schedule_to_csv(schedule))
        metrics = harness.compute_metrics(schedule, tasks_per_agent)
        _write_metrics_artifacts(out, metrics)
        if args.emit_gantt:
            _fill(out / "gantt.svg", lambda f: render.gantt_svg(schedule, f))
            _fill(out / "gantt.txt", lambda f: render.gantt_text(schedule, f))
        if args.emit_log:
            _write(out / "protocol.log", log.to_text())
            _write(out / "clusters.txt", clustering.assignment_dump(cluster_dag))
    except SchedulingError as exc:
        return _fail(str(exc))

    counts = " ".join(f"{a}={c}" for a, c in metrics.series())
    print(
        f"scheduled {len(schedule.placements)} tasks in "
        f"{len(cluster_dag.clusters)} clusters; "
        f"makespan {format_number(schedule.makespan)}; {counts}"
    )
    if schedule.deadline_violations:
        print(
            "deadline violations: " + ", ".join(schedule.deadline_violations)
        )
        if args.strict_deadlines:
            return EXIT_DEADLINE
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    """Write a seeded random workload in the task XML format."""
    try:
        tasks = harness.generate_workload(
            args.seed, args.num_tasks, args.layers, args.density,
            args.deadline_prob,
        )
        _make_out_dir(args.out)
        path = args.out / "tasks.xml"
        _write(path, serialize_task_set(tasks))
    except SchedulingError as exc:
        return _fail(str(exc))
    print(f"wrote {len(tasks)} tasks to {path}")
    return EXIT_OK


def _load_schedule_rows(args: argparse.Namespace) -> FinalSchedule:
    rows = placements_from_csv(_read(args.schedule, "schedule file"))
    makespan = max((p.end for p in rows), default=0.0)
    return FinalSchedule(tuple(rows), makespan)


def cmd_validate(args: argparse.Namespace) -> int:
    """Check a schedule file against its inputs; nonzero exit iff violations,
    3 when every violation is a missed deadline."""
    try:
        tasks, resources, agents = _load_inputs(args)
        validate_agent_map(agents, resources)  # schedule's is in ``orchestrate``
        schedule = _load_schedule_rows(args)
        dag = build_dag(tasks)
        report = harness.validate_schedule(schedule, dag, resources, agents)
    except SchedulingError as exc:
        return _fail(str(exc))
    if report.is_empty():
        print("schedule valid")
        return EXIT_OK
    for line in report.lines():
        print(line)
    if report._replace(deadline_misses=[]).is_empty():
        return EXIT_DEADLINE
    return EXIT_INPUT


def cmd_metrics(args: argparse.Namespace) -> int:
    """Recompute metrics from a schedule file."""
    try:
        schedule = _load_schedule_rows(args)
        metrics = harness.compute_metrics(schedule)
        if args.out is not None:
            _make_out_dir(args.out)
            _write_metrics_artifacts(args.out, metrics)
    except SchedulingError as exc:
        return _fail(str(exc))
    print(_metrics_csv(metrics), end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_INPUT on a usage error: argparse's 2 would mean infeasible.

    A value that starts with ``-`` and reads as a number, such as ``-1e-3``
    or ``-inf``, stays a value as ``-0.5`` does, so it reaches the range
    check; argparse alone takes it for an unknown option.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.I)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coalloc",
        description="Co-allocation scheduler for dependent-task workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sched = sub.add_parser("schedule", help="schedule a task file end to end")
    sched.add_argument("--tasks", required=True, type=Path)
    sched.add_argument("--resources", required=True, type=Path)
    sched.add_argument("--agents", required=True, type=Path)
    sched.add_argument("--out", required=True, type=Path)
    sched.add_argument("--strict-deadlines", action="store_true")
    sched.add_argument("--emit-gantt", action="store_true")
    sched.add_argument("--emit-log", action="store_true")

    gen = sub.add_parser("generate", help="generate a random workload XML")
    gen.add_argument("--out", required=True, type=Path)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--num-tasks", type=int, default=20)
    gen.add_argument("--layers", type=int, default=4)
    gen.add_argument("--density", type=float, default=0.2)
    gen.add_argument("--deadline-prob", type=float, default=0.0)

    val = sub.add_parser("validate", help="validate a schedule file")
    val.add_argument("--tasks", required=True, type=Path)
    val.add_argument("--resources", required=True, type=Path)
    val.add_argument("--agents", required=True, type=Path)
    val.add_argument("--schedule", required=True, type=Path)

    met = sub.add_parser("metrics", help="recompute metrics from a schedule file")
    met.add_argument("--schedule", required=True, type=Path)
    met.add_argument("--out", type=Path)

    return parser


_COMMANDS = {
    "schedule": cmd_schedule,
    "generate": cmd_generate,
    "validate": cmd_validate,
    "metrics": cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
