"""In-memory span recorder, layer wrappers, self times and Chrome trace export.

Spans are recorded from the benchmark's side only: ``traced()`` rebinds the
public entry points of each ``coalloc`` module for the duration of a traced
job and restores them afterwards. Untraced jobs run the unmodified code.

A span is ``[name, start, end, parent, job]``; times come from
``time.perf_counter()`` (a system-wide monotonic clock on Linux, so spans
recorded in a child process line up with the parent's).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT, JOB = range(5)


class Recorder:
    """Nested spans kept in memory; ``job`` tags every span opened."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job: int | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere (a child process) under ``parent``."""
        offset = len(self.spans)
        for name, start, end, own_parent, _ in spans:
            mapped = parent if own_parent is None else own_parent + offset
            self.spans.append([name, start, end, mapped, self.job])


def _wrap(recorder: Recorder, name: str, original):
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(index)

    wrapper.__wrapped__ = original
    return wrapper


def _wrap_handle(recorder: Recorder, original):
    from coalloc.protocol import MessageKind

    def handle(self, message):
        name = (
            "agent.assign"
            if message.kind is MessageKind.ASSIGN_CLUSTER
            else "agent.dependency"
        )
        index = recorder.open(name)
        try:
            return original(self, message)
        finally:
            recorder.close(index)

    handle.__wrapped__ = original
    return handle


def _targets():
    """(owner, attribute, span name) for every wrapped entry point.

    Module-level functions are rebound where their caller looks them up:
    ``broker`` imported ``cluster_tasks`` and ``build_dag`` by name, ``cli``
    imported the model functions by name and calls ``render``, ``clustering``
    and ``harness`` through the module.
    """
    from coalloc import broker, cli, clustering, harness, render
    from coalloc.graph import TaskDag
    from coalloc.protocol import MessageLog

    return [
        (broker.Broker, "orchestrate", "broker.orchestrate"),
        (broker, "distribute", "broker.distribute"),
        (broker, "assemble_and_repair", "broker.assemble_and_repair"),
        (broker, "cluster_tasks", "clustering.cluster_tasks"),
        (clustering, "assignment_dump", "clustering.assignment_dump"),
        (broker, "build_dag", "graph.build_dag"),
        (TaskDag, "restrict", "graph.restrict"),
        (MessageLog, "to_text", "protocol.to_text"),
        (cli, "parse_task_file", "model.parse_task_file"),
        (cli, "parse_resource_file", "model.parse_resource_file"),
        (cli, "parse_agent_map", "model.parse_agent_map"),
        (cli, "schedule_to_csv", "model.schedule_to_csv"),
        (render, "gantt_svg", "render.gantt_svg"),
        (render, "gantt_text", "render.gantt_text"),
        (render, "bar_chart_svg", "render.bar_chart_svg"),
        (harness, "compute_metrics", "harness.compute_metrics"),
    ]


@contextmanager
def traced(recorder: Recorder):
    """Rebind every layer entry point to a span-recording wrapper, then restore."""
    from coalloc.agent import AgentActor

    saved = []
    try:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, original))
        original = AgentActor.__dict__["handle"]
        saved.append((AgentActor, "handle", original))
        AgentActor.handle = _wrap_handle(recorder, original)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def write_chrome_trace(spans: list[list], path: Path) -> None:
    """Write spans as Chrome Trace Event JSON (complete events), for Perfetto."""
    origin = min((s[START] for s in spans), default=0.0)
    events = [
        {
            "name": name,
            "cat": layer_of(name),
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {"job": job, "span": index, "parent": parent},
        }
        for index, (name, start, end, parent, job) in enumerate(spans)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
