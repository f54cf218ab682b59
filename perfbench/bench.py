"""Workload runner: prepares seeded inputs, runs the closed loop, derives metrics.

One client sends one job at a time and waits for it (closed loop, serial,
``parallel=False``). Inputs are generated and written before timing starts.
Every job's output is checked; a job fails if it raises or exits nonzero, if
``validate_schedule`` reports anything, if the benchmark's own check finds a
non-finite, missing or duplicated placement, or if its output differs from an
earlier run of the same inputs. Times are scaled to a nominal machine speed
(see ``speed.py``).
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import coalloc
from coalloc import (
    FinalSchedule,
    assignment_dump,
    build_dag,
    parse_agent_map,
    parse_resource_file,
    parse_task_file,
    placements_from_csv,
    schedule_to_csv,
)

from . import speed
from .checks import JobCounts, check_schedule, identity_record, job_counts, output_digest
from .spans import END, PARENT, START, Recorder, layer_of, self_times, traced, write_chrome_trace
from .workloads import InputFiles, InstanceParams, Workload, write_inputs

PACKAGE_DIR = Path(__file__).resolve().parent
CHILD = PACKAGE_DIR / "child.py"
CLI_ENTRY = "import sys; from coalloc.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 120
MIN_PASSES = 2
SETUP_REPEATS = 5

LAYERS = ["clustering", "graph", "agent", "broker", "protocol", "model", "render", "harness", "cli"]

# Printed with --trace 1, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("clustering.cluster_tasks_s", "s"),
    ("clustering.clusters", "count"),
    ("clustering.quotient_edges", "count"),
    ("clustering.largest_cluster", "count"),
    ("graph.build_dag_s", "s"),
    ("graph.restrict_s", "s"),
    ("graph.restrict_calls", "count"),
    ("agent.assign_s", "s"),
    ("agent.dependency_s", "s"),
    ("agent.rigid_shift_sum", "s"),
    ("agent.max_reservations_per_resource", "count"),
    ("broker.distribute_s", "s"),
    ("broker.assemble_and_repair_s", "s"),
    ("broker.self_s", "s"),
    ("broker.repair_moved_tasks", "count"),
    ("broker.repair_push_sum", "s"),
    ("protocol.messages", "count"),
    ("protocol.to_text_s", "s"),
    ("model.parse_s", "s"),
    ("model.write_s", "s"),
    ("render.charts_s", "s"),
    ("harness.validate_s", "s"),
    ("cli.import_s", "s"),
    ("cli.process_s", "s"),
    *[(f"self.{layer}_s", "s") for layer in LAYERS],
    ("trace.job_s", "s"),
    ("trace.untraced_job_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_share", "ratio"),
    ("trace.spans", "count"),
]

# Span names summed into each per-layer time metric.
SPAN_METRICS = {
    "clustering.cluster_tasks_s": ["clustering.cluster_tasks"],
    "graph.build_dag_s": ["graph.build_dag"],
    "graph.restrict_s": ["graph.restrict"],
    "agent.assign_s": ["agent.assign"],
    "agent.dependency_s": ["agent.dependency"],
    "broker.distribute_s": ["broker.distribute"],
    "broker.assemble_and_repair_s": ["broker.assemble_and_repair"],
    "protocol.to_text_s": ["protocol.to_text"],
    "model.parse_s": ["model.parse_task_file", "model.parse_resource_file", "model.parse_agent_map"],
    "model.write_s": ["model.schedule_to_csv"],
    "render.charts_s": ["render.gantt_svg", "render.gantt_text", "render.bar_chart_svg"],
    "cli.import_s": ["cli.import"],
}


@dataclass
class Instance:
    """One distinct job: its generator parameters, files and parsed inputs."""

    index: int
    params: InstanceParams
    files: InputFiles
    tasks: list
    resources: list
    agents: list
    dag: coalloc.TaskDag
    expected: tuple[str, str, JobCounts] | None = None  # CLI: library output


@dataclass
class Job:
    instance: int
    tasks: int
    wall_s: float = math.nan
    validate_s: float = math.nan
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    counts: JobCounts | None = None
    traced: bool = False
    scale: float = math.nan  # wall seconds to nominal seconds, see speed.py


@dataclass
class RunReport:
    workload: str
    seed: int
    trace: bool
    jobs: list[Job]
    metrics: dict[str, tuple[float, str]]
    identity: dict
    lines: list[str]

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j.problems)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def prepare(params: list[InstanceParams], kind: str, work_dir: Path) -> list[Instance]:
    """Write every job's input files and parse them back, outside any timing."""
    instances = []
    for index, job_params in enumerate(params):
        files = write_inputs(job_params, work_dir / f"job{index:03d}")
        tasks = parse_task_file(files.tasks.read_text())
        resources = parse_resource_file(files.resources.read_text())
        agents = parse_agent_map(files.agents.read_text())
        inst = Instance(index, job_params, files, tasks, resources, agents, build_dag(tasks))
        if kind == "cli":
            result = coalloc.orchestrate(tasks, resources, agents)
            inst.expected = (
                schedule_to_csv(result.schedule),
                assignment_dump(result.cluster_dag),
                job_counts(result),
            )
        instances.append(inst)
    return instances


def _run_child(cmd: list[str], root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def measure_setup(inst: Instance, root: Path) -> float:
    """Median in nominal seconds over fresh interpreters, after one discarded warm-up run."""
    cmd = [sys.executable, str(CHILD), "setup", str(inst.files.tasks),
           str(inst.files.resources), str(inst.files.agents)]
    values = []
    for i in range(SETUP_REPEATS + 1):
        before = speed.loop_s()
        proc = _run_child(cmd, root)
        after = speed.loop_s()
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        if i:
            setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
            values.append(setup_s * speed.scale(before, after))
    return statistics.median(values)


def _cli_args(inst: Instance, out: Path) -> list[str]:
    return ["schedule", "--tasks", str(inst.files.tasks), "--resources",
            str(inst.files.resources), "--agents", str(inst.files.agents),
            "--out", str(out), "--emit-gantt", "--emit-log"]


def measure_peak(kind: str, instances: list[Instance], root: Path, work_dir: Path) -> float:
    """Median tracemalloc peak, in bytes, over the given jobs."""
    peaks = []
    for inst in instances:
        gc.collect()
        if kind == "library":
            tracemalloc.start()
            coalloc.orchestrate(inst.tasks, inst.resources, inst.agents)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        else:
            peak_file = work_dir / "peak.txt"
            out = work_dir / "peak-out"
            proc = _run_child([sys.executable, str(CHILD), "peak", str(peak_file), "--",
                               *_cli_args(inst, out)], root)
            if proc.returncode != 0:
                raise RuntimeError(f"peak child failed: {proc.stderr.strip()}")
            peaks.append(int(peak_file.read_text()))
    return statistics.median(peaks)


class Runner:
    """Runs and checks jobs of one workload; traced jobs record spans."""

    def __init__(self, workload: Workload, instances: list[Instance], root: Path,
                 work_dir: Path, recorder: Recorder):
        self.workload = workload
        self.instances = instances
        self.root = root
        self.work_dir = work_dir
        self.recorder = recorder
        self.first_digest: dict[int, str] = {}
        self.sequence = 0

    def run(self, inst: Instance, trace: bool) -> Job:
        job = Job(inst.index, len(inst.tasks), traced=trace)
        self.recorder.job = self.sequence
        self.sequence += 1
        gc.collect()
        before = speed.loop_s()
        try:
            if self.workload.kind == "library":
                self._library(inst, job, trace)
            else:
                self._cli(inst, job, trace)
        except Exception as exc:  # a failing job is counted, not fatal
            job.problems.append(f"{type(exc).__name__}: {exc}")
        job.scale = speed.scale(before, speed.loop_s())
        if job.digest is not None:
            first = self.first_digest.setdefault(inst.index, job.digest)
            if job.digest != first:
                job.problems.append("output differs from an earlier run of the same inputs")
        return job

    def _check(self, job: Job, schedule: FinalSchedule, inst: Instance, trace: bool) -> None:
        problems, validate_s = check_schedule(schedule, inst.dag, inst.resources, inst.agents)
        job.problems += problems
        job.validate_s = validate_s
        if trace and not math.isnan(validate_s):
            now = time.perf_counter()
            self.recorder.spans.append(
                ["harness.validate_schedule", now - validate_s, now, None, self.recorder.job])

    def _library(self, inst: Instance, job: Job, trace: bool) -> None:
        if trace:
            with traced(self.recorder):
                start = time.perf_counter()
                with self.recorder.span("bench.job"):
                    result = coalloc.orchestrate(inst.tasks, inst.resources, inst.agents)
                job.wall_s = time.perf_counter() - start
        else:
            start = time.perf_counter()
            result = coalloc.orchestrate(inst.tasks, inst.resources, inst.agents)
            job.wall_s = time.perf_counter() - start
        job.digest = output_digest(schedule_to_csv(result.schedule), assignment_dump(result.cluster_dag))
        job.counts = job_counts(result)
        self._check(job, result.schedule, inst, trace)

    def _cli(self, inst: Instance, job: Job, trace: bool) -> None:
        out = self.work_dir / f"out{inst.index:03d}"
        shutil.rmtree(out, ignore_errors=True)
        args = _cli_args(inst, out)
        spans_file = self.work_dir / "spans.json"
        spans_file.unlink(missing_ok=True)
        if trace:
            cmd = [sys.executable, str(CHILD), "trace", str(spans_file), "--", *args]
            index = self.recorder.open("cli.process")
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        start = time.perf_counter()
        proc = _run_child(cmd, self.root)
        job.wall_s = time.perf_counter() - start
        if trace:
            self.recorder.close(index)
            span = self.recorder.spans[index]
            job.wall_s = span[END] - span[START]
        if proc.returncode != 0:
            job.problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        if trace:
            self.recorder.adopt(json.loads(spans_file.read_text()), index)
        schedule_csv = (out / "schedule.csv").read_text()
        clusters_txt = (out / "clusters.txt").read_text()
        expected_csv, expected_clusters, counts = inst.expected
        job.digest = output_digest(schedule_csv, clusters_txt)
        job.counts = counts
        if schedule_csv != expected_csv:
            job.problems.append("schedule.csv differs from orchestrate() on the same inputs")
        if clusters_txt != expected_clusters:
            job.problems.append("clusters.txt differs from orchestrate() on the same inputs")
        if len((out / "protocol.log").read_text().splitlines()) != counts.messages:
            job.problems.append("protocol.log does not hold one line per message")
        for name in ("gantt.svg", "gantt.txt", "metrics.csv", "tasks_per_agent.svg"):
            if not (out / name).is_file() or (out / name).stat().st_size == 0:
                job.problems.append(f"{name} missing or empty")
        rows = placements_from_csv(schedule_csv)
        schedule = FinalSchedule(tuple(rows), max((p.end for p in rows), default=0.0))
        self._check(job, schedule, inst, trace)


def closed_loop(runner: Runner, seconds: float, trace: bool) -> list[Job]:
    """Run passes over the distinct jobs, one job at a time, until ``seconds`` passed.

    There are at least ``MIN_PASSES`` whole passes, so every distinct job has
    repeats spread over the run. In a traced run each job runs untraced and
    then traced, so the tracing overhead is a paired difference.
    """
    jobs: list[Job] = []
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for inst in runner.instances:
            jobs.append(runner.run(inst, trace=False))
            if trace:
                jobs.append(runner.run(inst, trace=True))
        passes += 1
    return jobs


def per_job(jobs: list[Job], attr: str) -> dict[int, float]:
    """Per distinct job, the median over its successful runs of ``attr`` in nominal seconds."""
    runs: dict[int, list[float]] = {}
    for job in jobs:
        value = getattr(job, attr)
        if not job.problems and not math.isnan(value):
            runs.setdefault(job.instance, []).append(value * job.scale)
    return {i: statistics.median(values) for i, values in runs.items()}


def _distinct_counts(jobs: list[Job], count: int) -> list[JobCounts] | None:
    by_instance = {}
    for job in jobs:
        if job.counts is not None:
            by_instance.setdefault(job.instance, job.counts)
    if len(by_instance) != count:
        return None
    return [by_instance[i] for i in range(count)]


def _identity(jobs: list[Job], count: int) -> dict:
    digests = {}
    for job in jobs:
        if job.digest is not None:
            digests.setdefault(job.instance, job.digest)
    counts = _distinct_counts(jobs, count)
    if counts is None or len(digests) != count:
        return {"sha256": None, "jobs": len(digests)}
    return identity_record([digests[i] for i in range(count)], counts)


def _e2e_metrics(jobs, instances, setup_s, peak_bytes) -> dict[str, tuple[float, str]]:
    """Job times are in nominal seconds, each distinct job's median over its
    runs; the reported medians are over the distinct jobs."""
    walls = per_job(jobs, "wall_s")
    validates = per_job(jobs, "validate_s")
    tasks = sum(len(instances[i].tasks) for i in walls)
    counts = _distinct_counts(jobs, len(instances)) or []
    return {
        "schedule_s.p50": (statistics.median(walls.values()) if walls else math.nan, "s"),
        "tasks_per_s": (tasks / sum(walls.values()) if walls else math.nan, "tasks/s"),
        "validate_s.p50": (statistics.median(validates.values()) if validates else math.nan, "s"),
        "setup_s": (setup_s, "s"),
        "peak_mem_mb": (peak_bytes / 1e6, "MB"),
        "makespan_mean": (statistics.fmean(c.makespan for c in counts) if counts else math.nan, "s"),
    }


def _layer_metrics(jobs, instances, recorder: Recorder) -> dict[str, tuple[float, str]]:
    traced_jobs = [j for j in jobs if j.traced]
    untraced = [j for j in jobs if not j.traced]
    n = len(traced_jobs)
    spans = recorder.spans
    own = self_times(spans)
    roots = {i for i, s in enumerate(spans) if s[PARENT] is None and s[0] in ("bench.job", "cli.process")}

    def in_job(i: int) -> bool:
        while spans[i][PARENT] is not None:
            i = spans[i][PARENT]
        return i in roots

    def total(names) -> float:
        return sum(s[END] - s[START] for s in spans if s[0] in names) / n

    values: dict[str, float] = {name: total(names) for name, names in SPAN_METRICS.items()}
    values["broker.self_s"] = sum(own[i] for i, s in enumerate(spans) if s[0] == "broker.orchestrate") / n
    values["cli.process_s"] = sum(own[i] for i, s in enumerate(spans) if s[0] == "cli.process") / n
    validates = [j.validate_s for j in traced_jobs if not math.isnan(j.validate_s)]
    values["harness.validate_s"] = statistics.fmean(validates) if validates else math.nan
    values["graph.restrict_calls"] = sum(1 for s in spans if s[0] == "graph.restrict") / n
    layer_self = dict.fromkeys(LAYERS, 0.0)
    job_spans = 0
    for i, s in enumerate(spans):
        if in_job(i):
            job_spans += 1
            layer = layer_of(s[0])
            if layer in layer_self:
                layer_self[layer] += own[i]
    for layer in LAYERS:
        values[f"self.{layer}_s"] = layer_self[layer] / n
    traced_mean = statistics.fmean(j.wall_s for j in traced_jobs)
    untraced_mean = statistics.fmean(j.wall_s for j in untraced)
    values["trace.job_s"] = traced_mean
    values["trace.untraced_job_s"] = untraced_mean
    values["trace.overhead_s"] = traced_mean - untraced_mean
    values["trace.self_sum_share"] = sum(layer_self.values()) / n / traced_mean
    values["trace.spans"] = job_spans / n
    counts = _distinct_counts(jobs, len(instances)) or []

    def mean(attr: str) -> float:
        return statistics.fmean(getattr(c, attr) for c in counts) if counts else math.nan

    values["clustering.clusters"] = mean("clusters")
    values["clustering.quotient_edges"] = mean("quotient_edges")
    values["clustering.largest_cluster"] = mean("largest_cluster")
    values["agent.rigid_shift_sum"] = mean("rigid_shift_sum")
    values["agent.max_reservations_per_resource"] = mean("max_reservations_per_resource")
    values["broker.repair_moved_tasks"] = mean("repair_moved_tasks")
    values["broker.repair_push_sum"] = mean("repair_push_sum")
    values["protocol.messages"] = mean("messages")
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 root: Path, work_dir: Path, out_dir: Path) -> RunReport:
    """Prepare, measure and check one workload; write its identity and trace files."""
    instances = prepare(workload.params(seed), workload.kind, work_dir)
    # The prepared inputs live for the whole run; keep the collector from
    # rescanning them on every job, as it would not in a one-job process.
    gc.collect()
    gc.freeze()
    try:
        setup_s = peak = math.nan
        if not trace:
            middle = prepare(workload.middle(seed, workload.peak_jobs), "library", work_dir / "middle")
            setup_s = measure_setup(middle[0], root)
            peak = measure_peak(workload.kind, middle, root, work_dir)
        recorder = Recorder()
        runner = Runner(workload, instances, root, work_dir, recorder)
        jobs = closed_loop(runner, seconds, trace)
    finally:
        gc.unfreeze()
    identity = _identity(jobs, len(instances))
    if trace:
        metrics = _layer_metrics(jobs, instances, recorder)
    else:
        metrics = _e2e_metrics(jobs, instances, setup_s, peak)
    report = RunReport(workload.name, seed, trace, jobs, metrics, identity, [])
    report.lines = _describe(report, workload, len(instances))
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"identity-{stem}.json").write_text(json.dumps(identity, indent=2) + "\n")
    (out_dir / f"jobs-{stem}.json").write_text(json.dumps([
        {"instance": j.instance, "tasks": j.tasks, "traced": j.traced, "wall_s": j.wall_s,
         "validate_s": j.validate_s, "scale": j.scale, "failed": bool(j.problems)}
        for j in jobs
    ]) + "\n")
    if trace:
        write_chrome_trace(recorder.spans, out_dir / f"trace-{stem}.json")
    return report


def _describe(report: RunReport, workload: Workload, distinct: int) -> list[str]:
    timed = [j for j in report.jobs if not j.traced]
    lines = [
        f"workload {workload.name} seed {report.seed}: {len(report.jobs)} jobs over "
        f"{distinct} distinct inputs; closed loop, serial, 1 client"
        + ("; traced" if report.trace else ""),
    ]
    for name, (value, unit) in report.metrics.items():
        lines.append(f"  {name:40s} {value:.6g} {unit}")
    walls = [j.wall_s for j in timed if not j.problems]
    if not report.trace:
        lines.append(f"  {'schedule_s.n':40s} {distinct} distinct jobs, {len(walls)} runs")
        if walls:
            lines.append(f"  {'wall schedule_s.p50 over all runs':40s} {statistics.median(walls):.6g} s")
        if len(walls) >= 100:
            lines.append(f"  {'wall schedule_s.p90 over all runs':40s} {_percentile(walls, 90):.6g} s")
    else:
        job_s = report.metrics["trace.job_s"][0]
        shares = ", ".join(
            f"{layer} {100 * report.metrics[f'self.{layer}_s'][0] / job_s:.1f}%" for layer in LAYERS)
        lines.append(f"  layer self-time shares of the traced job: {shares}")
    lines.append(f"  {'failed_ratio':40s} {report.failed}/{report.attempted} = "
                 f"{report.failed / max(report.attempted, 1):.6g}")
    for job in report.jobs:
        for problem in job.problems[:3]:
            lines.append(f"  FAILED job {job.instance}: {problem}")
    lines.append(f"  identity {json.dumps(report.identity, sort_keys=True)}")
    return lines
