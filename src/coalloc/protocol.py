"""Wire format for the user-broker and broker-agent exchanges.

Messages travel over an in-process channel; every send is recorded, in
order, in a :class:`MessageLog` so protocol conformance can be checked and
exported after a run.
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Iterator
from typing import Any

from .model import Record, _set

USER = "user"
BROKER = "broker"


class MessageKind(enum.Enum):
    SUBMIT_TASKS = "SubmitTasks"
    SCHEDULE_RESULT = "ScheduleResult"
    ASSIGN_CLUSTER = "AssignCluster"
    CLUSTER_SCHEDULED = "ClusterScheduled"
    DEPENDENCY_INFO = "DependencyInfo"
    ADJUSTED_SCHEDULE = "AdjustedSchedule"


class ReadinessReport(Record):
    """The (taskId, readyTime) entries of one DependencyInfo message.

    The entries are stored as two columns: the task ids, which are the
    specs' own id strings, and the ready times as unboxed doubles, about
    16 bytes an entry where a tuple per pair takes about 80. ``len`` is the
    entry count, and iterating yields the pairs in order, each time exactly
    the floats stored.
    """

    __slots__ = ("task_ids", "ready_times")

    def __init__(self, task_ids: tuple[str, ...], ready_times: array) -> None:
        _set(self, "task_ids", task_ids)
        _set(self, "ready_times", ready_times)  # array("d"), one per task id

    def __len__(self) -> int:
        return len(self.task_ids)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return zip(self.task_ids, self.ready_times)


class Message(Record):
    __slots__ = ("kind", "sender", "receiver", "payload", "cluster_id")

    def __init__(
        self,
        kind: MessageKind,
        sender: str,
        receiver: str,
        # Only what the receiver lacks: SubmitTasks carries the task count,
        # AssignCluster the Cluster, ClusterScheduled and AdjustedSchedule a
        # PartialSchedule, DependencyInfo a ReadinessReport and ScheduleResult
        # the FinalSchedule. Agents hold the job DAG.
        payload: Any,
        # The cluster a broker-agent message is about; None for user messages.
        cluster_id: str | None = None,
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "sender", sender)
        _set(self, "receiver", receiver)
        _set(self, "payload", payload)
        _set(self, "cluster_id", cluster_id)

    def summary(self) -> str:
        """Short payload description for the exported log."""
        kind = self.kind
        if kind is MessageKind.SUBMIT_TASKS:
            return f"tasks={self.payload}"
        if kind is MessageKind.SCHEDULE_RESULT:
            return (
                f"mappings={len(self.payload.placements)} "
                f"makespan={self.payload.makespan}"
            )
        if kind is MessageKind.ASSIGN_CLUSTER:
            count = f"tasks={len(self.payload.tasks)}"
        elif kind is MessageKind.DEPENDENCY_INFO:
            count = f"entries={len(self.payload)}"
        else:
            count = f"placements={len(self.payload.placements)}"
        return f"cluster={self.cluster_id} {count}"


class MessageLog:
    """Ordered record of every message sent during one orchestration."""

    def __init__(self) -> None:
        self.entries: list[Message] = []

    def record(self, message: Message) -> None:
        self.entries.append(message)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_text(self) -> str:
        return "".join(
            f"{seq}\t{m.sender}\t{m.receiver}\t{m.kind.value}\t{m.summary()}\n"
            for seq, m in enumerate(self.entries, start=1)
        )
