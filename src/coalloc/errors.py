"""Exception types shared across the scheduler."""

from __future__ import annotations


class SchedulingError(Exception):
    """Base class for all errors raised by this package."""


class XmlFormatError(SchedulingError):
    """Raised when an input document is not well-formed XML."""


class ValidationError(SchedulingError):
    """Raised when a parsed value violates a domain invariant."""


class StructuralError(SchedulingError):
    """Raised for structural defects: duplicate ids, broken partitions."""


class UnknownReferenceError(SchedulingError):
    """A dependency names a task id that does not exist."""

    def __init__(self, task_id: str, ref_id: str):
        super().__init__(f"task {task_id!r} depends on unknown task {ref_id!r}")
        self.task_id = task_id
        self.ref_id = ref_id


class CycleError(SchedulingError):
    """The dependency graph contains a directed cycle."""

    def __init__(self, cycle: list[str]):
        super().__init__("dependency cycle: " + " -> ".join([*cycle, cycle[0]]))
        self.cycle = list(cycle)


class InfeasibleTaskError(SchedulingError):
    """No resource in the pool, or of the scheduling agent, fits a task."""

    def __init__(self, task_id: str, detail: str):
        super().__init__(f"task {task_id!r} has no eligible resource: {detail}")
        self.task_id = task_id


class ProtocolError(SchedulingError):
    """A broker/agent message violated the communication protocol."""
