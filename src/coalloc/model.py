"""Domain types and on-disk formats: task/resource XML, agent maps, schedule tables.

Numeric fields are decimal seconds (durations, times) or abstract capacity
units; all of them must be nonnegative. Parsers are strict about the
documented elements, ignore unknown elements with a warning, and report
malformed or negative numerics as :class:`~coalloc.errors.ValidationError`.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NoReturn, TextIO
from xml.parsers.expat import ErrorString, ExpatError, ParserCreate, errors

from .errors import StructuralError, ValidationError, XmlFormatError


def format_number(value: float) -> str:
    """Shortest decimal form that round-trips through float()."""
    return str(float(value))


def _decimal(text: str) -> float:
    """``float(text)`` for an ASCII decimal; ValueError for anything else.

    ``float`` also takes non-ASCII digits and ``_`` between digits. An ASCII
    text without ``_`` that it takes is a sign, digits, a point and an
    exponent, or ``nan``/``inf``, which the callers reject as not finite.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return float(text)


def _require_number(text: str, where: str, field: str) -> float:
    """The number in ``text``, the ``field`` of the item named ``where``."""
    text = text.strip()
    if not text:
        raise ValidationError(f"{where}: {field}: missing numeric value")
    try:
        value = _decimal(text)
    except ValueError:
        raise ValidationError(f"{where}: {field}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{where}: {field}: must be finite, got {text!r}")
    if value < 0:
        raise ValidationError(f"{where}: {field}: must be nonnegative, got {value}")
    return value


# ---------------------------------------------------------------------------
# Core types


_set = object.__setattr__  # how a record's ``__init__`` sets its fields


class Record:
    """Base of the frozen records: each lists its fields, in order, as
    ``__slots__``.

    A record's ``__init__`` checks its arguments and sets each field once,
    with ``object.__setattr__``. Records of one class with equal fields are
    equal and hash alike, and a record prints as ``Name(field=value, ...)``.
    Assigning or deleting a field raises ``AttributeError``. ``_replace``,
    copying and pickling build a new record through ``__init__``, so they
    rerun its checks.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _replace(self, **changes):
        """This record with the named fields changed, checked anew."""
        for name in self.__slots__:
            if name not in changes:
                changes[name] = getattr(self, name)
        return type(self)(**changes)

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Dependency(Record):
    """One dependency edge as declared by the consuming task."""

    __slots__ = ("task_id", "comm_time")

    def __init__(self, task_id: str, comm_time: float) -> None:
        if not task_id:
            raise ValidationError("dependency taskId must be nonempty")
        if not comm_time >= 0:  # NaN fails too
            raise ValidationError(f"commTime must be nonnegative, got {comm_time}")
        _set(self, "task_id", task_id)
        _set(self, "comm_time", comm_time)


class TaskSpec(Record):
    """One task: identity, duration, requirements, optional deadline, dependencies.

    ``deadline_time`` is an absolute time measured from the schedule origin 0;
    ``None`` means the task carries no deadline.
    """

    __slots__ = (
        "task_id",
        "processing_time",
        "memory",
        "cpu_power",
        "deadline_time",
        "dependencies",
    )

    def __init__(
        self,
        task_id: str,
        processing_time: float,
        memory: float = 0.0,
        cpu_power: float = 0.0,
        deadline_time: float | None = None,
        dependencies: tuple[Dependency, ...] = (),
    ) -> None:
        if not task_id:
            raise ValidationError("taskId must be nonempty")
        for name, value in (
            ("processing_time", processing_time),
            ("memory", memory),
            ("cpu_power", cpu_power),
        ):
            if not value >= 0:
                raise ValidationError(f"task {task_id!r}: {name} must be nonnegative")
        if deadline_time is not None and not deadline_time >= 0:
            raise ValidationError(f"task {task_id!r}: deadlineTime must be nonnegative")
        for dep in dependencies:
            if dep.task_id == task_id:
                raise ValidationError(f"task {task_id!r} must not depend on itself")
        _set(self, "task_id", task_id)
        _set(self, "processing_time", processing_time)
        _set(self, "memory", memory)
        _set(self, "cpu_power", cpu_power)
        _set(self, "deadline_time", deadline_time)
        _set(self, "dependencies", dependencies)


class ResourceSpec(Record):
    """One resource (node): identity, naming, and capacity parameters.

    ``cpu_idle`` is parsed and reported but never drives scheduling decisions.
    """

    __slots__ = (
        "resource_id",
        "node_name",
        "cluster_name",
        "farm_name",
        "cpu_power",
        "memory",
        "cpu_idle",
    )

    def __init__(
        self,
        resource_id: str,
        node_name: str = "",
        cluster_name: str = "",
        farm_name: str = "",
        cpu_power: float = 0.0,
        memory: float = 0.0,
        cpu_idle: float = 0.0,
    ) -> None:
        if not resource_id:
            raise ValidationError("resource Id must be nonempty")
        for name, value in (
            ("cpu_power", cpu_power),
            ("memory", memory),
            ("cpu_idle", cpu_idle),
        ):
            if not value >= 0:
                raise ValidationError(
                    f"resource {resource_id!r}: {name} must be nonnegative"
                )
        _set(self, "resource_id", resource_id)
        _set(self, "node_name", node_name)
        _set(self, "cluster_name", cluster_name)
        _set(self, "farm_name", farm_name)
        _set(self, "cpu_power", cpu_power)
        _set(self, "memory", memory)
        _set(self, "cpu_idle", cpu_idle)


class AgentSpec(Record):
    """One agent and the resource ids it manages (a disjoint, exhaustive slice)."""

    __slots__ = ("agent_id", "resources")

    def __init__(self, agent_id: str, resources: tuple[str, ...]) -> None:
        if not agent_id:
            raise ValidationError("agentId must be nonempty")
        if not resources:
            raise ValidationError(
                f"agent {agent_id!r} must manage at least one resource"
            )
        if len(set(resources)) != len(resources):
            raise StructuralError(f"agent {agent_id!r} lists a resource twice")
        _set(self, "agent_id", agent_id)
        _set(self, "resources", resources)


@dataclass(frozen=True)
class Placement:
    """Where and when one task runs.

    The slots are declared here, not by ``slots=True``, which would rebuild
    the class behind the generated ``__setattr__`` and make setting any
    other name raise ``TypeError``. Setting or deleting any name raises
    ``FrozenInstanceError``. Copying and pickling build a new placement
    through ``__init__``, so they rerun its checks.
    """

    __slots__ = ("task_id", "resource_id", "agent_id", "start", "end")

    task_id: str
    resource_id: str
    agent_id: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.start >= 0:  # NaN fails too
            raise ValidationError(
                f"placement of {self.task_id!r}: start must be nonnegative"
            )
        if not self.end >= self.start:  # so does a NaN end
            raise ValidationError(
                f"placement of {self.task_id!r}: end precedes start"
            )

    def __reduce__(self):
        return type(self), (
            self.task_id, self.resource_id, self.agent_id, self.start, self.end
        )

    @property
    def duration(self) -> float:
        return self.end - self.start


class FinalSchedule(Record):
    """Complete schedule: one placement per task, by (start, taskId) as the
    engine builds it, or in row order as read from a schedule CSV."""

    __slots__ = ("placements", "makespan", "deadline_violations")

    def __init__(
        self,
        placements: tuple[Placement, ...],
        makespan: float,
        deadline_violations: tuple[str, ...] = (),
    ) -> None:
        _set(self, "placements", placements)
        _set(self, "makespan", makespan)
        _set(self, "deadline_violations", deadline_violations)


# ---------------------------------------------------------------------------
# XML reading
#
# Each reader fills its items from expat's callbacks as their elements end,
# holding the open item's fields in its own variables: no element tree, and
# no object per element or per item. An item is a root child named by the
# format; it holds fields (text only) and blocks (which hold fields). Other
# elements are skipped with a warning, in document order: at the root, in an
# item or in a block; what a field or a skipped element holds is ignored. A
# field's text is its character data before its first child. The first error
# that an item raises ends the reading of items and warnings, but it is
# raised only once the whole text is known to be well-formed, so a syntax
# error anywhere wins.


_FEED_CHARS = 16 * 1024  # text per parser feed


def _slices(source: str | TextIO) -> Iterator[str]:
    """``source`` in pieces of at most ``_FEED_CHARS`` characters.

    A text file is read one piece at a time, so its whole text is never
    held; reading or decoding errors surface from the piece that hits them.
    """
    if isinstance(source, str):
        return (
            source[at : at + _FEED_CHARS] for at in range(0, len(source), _FEED_CHARS)
        )
    return iter(lambda: source.read(_FEED_CHARS), "")


def _feed(
    source: str | TextIO,
    start: Callable[[str, dict[str, str]], None],
    end: Callable[[str], None],
    chunks: list[str],
) -> None:
    """Run ``source`` through expat, which calls ``start(name, attrs)`` and
    ``end(name)`` for each element and appends character data to ``chunks``.

    A name comes as ``uri}local`` (see :func:`_universal`). Character data
    includes CDATA and character and entity references, but not comments or
    PIs, as ElementTree's ``text`` does. Syntax errors raise
    :class:`XmlFormatError`, and so does an entity reference that expat
    leaves unexpanded: an undefined one, which a DOCTYPE with an external
    part keeps from being a syntax error, or an external one. ElementTree
    reports both as undefined, at the reference.
    """
    parser = ParserCreate(namespace_separator="}")
    parser.buffer_text = True

    def default(data: str) -> None:
        if data.startswith("&"):  # only an unexpanded reference gets here
            _malformed(
                parser.CurrentLineNumber,
                parser.CurrentColumnNumber,
                errors.XML_ERROR_UNDEFINED_ENTITY,
            )

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chunks.append
    parser.DefaultHandlerExpand = default
    try:
        for piece in _slices(source):
            parser.Parse(piece, False)
        parser.Parse("", True)
    except ExpatError as exc:
        _malformed(exc.lineno, exc.offset, ErrorString(exc.code))
    finally:
        parser.DefaultHandlerExpand = None  # it holds the parser: no cycle


def _universal(name: str) -> str:
    """ElementTree's name of an element: expat gives ``uri}local``."""
    return "{" + name if "}" in name else name


def _malformed(line: int, column: int, reason: str) -> NoReturn:
    raise XmlFormatError(f"malformed XML at line {line}, column {column}: {reason}")


def _warn_unknown(name: str, where: str) -> None:
    # imported here: a document without unknown elements never pays for it
    import logging

    logging.getLogger(__name__).warning(
        "ignoring unknown element <%s> in %s", _universal(name), where
    )


# ---------------------------------------------------------------------------
# Task XML


_REQUIREMENTS = frozenset(("memory", "cpuPower", "deadlineTime"))
_DEPENDS = frozenset(("taskId", "commTime"))


def parse_task_file(source: str | TextIO) -> list[TaskSpec]:
    """Parse a task XML document, given as text or as a text file open for
    reading, into a task set, preserving file order.

    Dependencies naming ids absent from the file are kept as-is; resolving
    them is the DAG builder's job. A dependency holds the very ``str`` object
    of the task id it names.
    """
    names: dict[str, str] = {}  # one per file: equal ids are one object
    tasks: list[TaskSpec] = []
    chunks: list[str] = []  # character data since the last start of a field
    failure: ValidationError | None = None
    root: str | None = None  # the root element, as warnings name it
    where: str | None = None  # the open task, as messages name it
    block: str | None = None
    fields = _DEPENDS  # of the open block
    leaf: str | None = None
    skipped = 0  # open elements from the outermost ignored one in
    task_id = dep_id = ""
    processing: float | None = None
    comm: float | None = None
    requirements: dict[str, float] | None = None
    deps: list[Dependency] = []

    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal root, where, block, fields, leaf, skipped
        nonlocal task_id, processing, requirements, deps
        if skipped:
            skipped += 1
            chunks.clear()  # a skipped element's text is never read
        elif leaf is not None:  # the leaf's text ends at its first child
            end(leaf)
            skipped += 2  # the child and the leaf itself; inf stays inf
        elif block is not None:
            if name in fields:
                leaf = name
                chunks.clear()
            else:
                _warn_unknown(name, f"{where}/{block}")
                skipped = 1
        elif where is not None:
            if name == "depends":
                block, fields = name, _DEPENDS
            elif name == "taskId" or name == "processingTime":
                leaf = name
                chunks.clear()
            elif name == "requirements":
                block, fields = name, _REQUIREMENTS
                if requirements is None:
                    requirements = {}
            else:
                _warn_unknown(name, where)
                skipped = 1
        elif root is None:
            root = f"<{_universal(name)}>"
        elif name == "task":
            where = f"task #{len(tasks) + 1}"
            task_id, processing, requirements, deps = "", None, None, []
        else:
            _warn_unknown(name, root)
            skipped = 1

    def end(name: str) -> None:
        nonlocal where, block, leaf, skipped, failure
        nonlocal task_id, dep_id, processing, comm
        try:
            if skipped:
                skipped -= 1
            elif leaf is not None:
                text = "".join(chunks)
                if block == "depends":
                    if leaf == "taskId":
                        dep_id = text.strip()
                    else:
                        comm = _require_number(text, where, "depends/commTime")
                elif block is not None:
                    requirements[leaf] = _require_number(text, where, leaf)
                elif leaf == "taskId":
                    task_id = text.strip()
                    if task_id:
                        where = f"task {task_id!r}"
                else:
                    processing = _require_number(text, where, "processingTime")
                leaf = None
            elif block == "depends":
                if not dep_id:
                    raise ValidationError(f"{where}: depends element lacks a taskId")
                if comm is None:
                    raise ValidationError(f"{where}: depends element lacks a commTime")
                deps.append(Dependency(names.setdefault(dep_id, dep_id), comm))
                block, dep_id, comm = None, "", None
            elif block is not None:
                block = None
            elif where is not None:
                if not task_id:
                    raise ValidationError(f"{where}: missing taskId")
                if processing is None:
                    raise ValidationError(f"{where}: missing processingTime")
                if requirements is None:
                    raise ValidationError(f"{where}: missing requirements")
                if "memory" not in requirements:
                    raise ValidationError(f"{where}: requirements lack memory")
                if "cpuPower" not in requirements:
                    raise ValidationError(f"{where}: requirements lack cpuPower")
                tasks.append(
                    TaskSpec(
                        task_id=names.setdefault(task_id, task_id),
                        processing_time=processing,
                        memory=requirements["memory"],
                        cpu_power=requirements["cpuPower"],
                        deadline_time=requirements.get("deadlineTime"),
                        dependencies=tuple(deps),
                    )
                )
                where = None
        except ValidationError as exc:
            failure = exc
            skipped = math.inf  # the rest is only checked for well-formedness

    _feed(source, start, end, chunks)
    if failure is not None:
        raise failure
    seen: set[str] = set()
    for task in tasks:
        if task.task_id in seen:
            raise StructuralError(f"duplicate taskId {task.task_id!r}")
        seen.add(task.task_id)
    return tasks


def serialize_task_set(tasks: list[TaskSpec]) -> str:
    """Render a task set in the task XML format, deterministically."""
    # imported here: the readers and the scheduler never pay for it
    import xml.etree.ElementTree as ET

    root = ET.Element("tasks")
    for task in tasks:
        el = ET.SubElement(root, "task")
        ET.SubElement(el, "taskId").text = task.task_id
        req = ET.SubElement(el, "requirements")
        ET.SubElement(req, "memory").text = format_number(task.memory)
        ET.SubElement(req, "cpuPower").text = format_number(task.cpu_power)
        if task.deadline_time is not None:
            ET.SubElement(req, "deadlineTime").text = format_number(
                task.deadline_time
            )
        ET.SubElement(el, "processingTime").text = format_number(
            task.processing_time
        )
        for dep in task.dependencies:
            dp = ET.SubElement(el, "depends")
            ET.SubElement(dp, "taskId").text = dep.task_id
            ET.SubElement(dp, "commTime").text = format_number(dep.comm_time)
    ET.indent(root, space="  ")
    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0"?>\n' + body + "\n"


# ---------------------------------------------------------------------------
# Resource XML


_PARAMETERS = frozenset(("CPUPower", "Memory", "CPU_idle"))
_NAMING = ("nodeName", "ClusterName", "FarmName")


def parse_resource_file(source: str | TextIO) -> list[ResourceSpec]:
    """Parse a resource XML document, given as text or as a text file open
    for reading, into a resource set, in file order."""
    resources: list[ResourceSpec] = []
    chunks: list[str] = []  # character data since the last start of a field
    failure: ValidationError | None = None
    root: str | None = None  # the root element, as warnings name it
    where: str | None = None  # the open Node, as messages name it
    in_parameters = False
    leaf: str | None = None
    skipped = 0  # open elements from the outermost ignored one in
    resource_id = ""
    naming: dict[str, str] = {}
    params: dict[str, float] = {}

    def start(name: str, attrs: dict[str, str]) -> None:
        nonlocal root, where, in_parameters, leaf, skipped
        nonlocal resource_id, naming, params
        if skipped:
            skipped += 1
            chunks.clear()  # a skipped element's text is never read
        elif leaf is not None:  # the leaf's text ends at its first child
            end(leaf)
            skipped += 2  # the child and the leaf itself; inf stays inf
        elif in_parameters:
            if name in _PARAMETERS:
                leaf = name
                chunks.clear()
            else:
                _warn_unknown(name, f"{where}/Parameters")
                skipped = 1
        elif where is not None:
            if name == "Id" or name in naming:
                leaf = name
                chunks.clear()
            elif name == "Parameters":
                in_parameters = True
            else:
                _warn_unknown(name, where)
                skipped = 1
        elif root is None:
            root = f"<{_universal(name)}>"
        elif name == "Node":
            where = f"Node #{len(resources) + 1}"
            resource_id, naming, params = "", dict.fromkeys(_NAMING, ""), {}
        else:
            _warn_unknown(name, root)
            skipped = 1

    def end(name: str) -> None:
        nonlocal where, in_parameters, leaf, skipped, failure
        nonlocal resource_id
        try:
            if skipped:
                skipped -= 1
            elif leaf is not None:
                text = "".join(chunks)
                if in_parameters:
                    params[leaf] = _require_number(text, where, leaf)
                elif leaf == "Id":
                    resource_id = text.strip()
                    if resource_id:
                        where = f"Node {resource_id!r}"
                else:
                    naming[leaf] = text.strip()
                leaf = None
            elif in_parameters:
                in_parameters = False
            elif where is not None:
                if not resource_id:
                    raise ValidationError(f"{where}: missing Id")
                if len(params) < len(_PARAMETERS):
                    raise ValidationError(
                        f"{where}: Parameters must contain CPUPower, Memory and CPU_idle"
                    )
                resources.append(
                    ResourceSpec(
                        resource_id=resource_id,
                        node_name=naming["nodeName"],
                        cluster_name=naming["ClusterName"],
                        farm_name=naming["FarmName"],
                        cpu_power=params["CPUPower"],
                        memory=params["Memory"],
                        cpu_idle=params["CPU_idle"],
                    )
                )
                where = None
        except ValidationError as exc:
            failure = exc
            skipped = math.inf  # the rest is only checked for well-formedness

    _feed(source, start, end, chunks)
    if failure is not None:
        raise failure
    _unique([r.resource_id for r in resources], "resource Id")
    return resources


def _unique(ids: list[str], kind: str) -> set[str]:
    """``ids`` as a set; a repeated id raises :class:`StructuralError`."""
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            raise StructuralError(f"duplicate {kind} {i!r}")
        seen.add(i)
    return seen


def serialize_resource_set(resources: list[ResourceSpec]) -> str:
    """Render a resource set in the resource XML format, deterministically."""
    # imported here: the readers and the scheduler never pay for it
    import xml.etree.ElementTree as ET

    root = ET.Element("resources")
    for res in resources:
        el = ET.SubElement(root, "Node")
        ET.SubElement(el, "Id").text = res.resource_id
        ET.SubElement(el, "FarmName").text = res.farm_name
        ET.SubElement(el, "ClusterName").text = res.cluster_name
        ET.SubElement(el, "nodeName").text = res.node_name
        par = ET.SubElement(el, "Parameters")
        ET.SubElement(par, "CPUPower").text = format_number(res.cpu_power)
        ET.SubElement(par, "Memory").text = format_number(res.memory)
        ET.SubElement(par, "CPU_idle").text = format_number(res.cpu_idle)
    ET.indent(root, space="  ")
    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0"?>\n' + body + "\n"


# ---------------------------------------------------------------------------
# Agent map


def parse_agent_map(text: str) -> list[AgentSpec]:
    """Parse an agent map: one ``agentId: res1, res2`` line per agent.

    Blank lines and ``#`` comments are skipped. Resource ids must not repeat
    across agents; coverage of a concrete resource set is checked separately
    by :func:`validate_agent_map`.
    """
    agents: list[AgentSpec] = []
    seen_agents: set[str] = set()
    seen_resources: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValidationError(
                f"agent map line {lineno}: expected 'agentId: resource, ...'"
            )
        agent_id, rest = line.split(":", 1)
        agent_id = agent_id.strip()
        resources = tuple(tok.strip() for tok in rest.split(",") if tok.strip())
        if agent_id in seen_agents:
            raise StructuralError(
                f"agent map line {lineno}: duplicate agentId {agent_id!r}"
            )
        for rid in resources:
            if rid in seen_resources:
                raise StructuralError(
                    f"agent map line {lineno}: resource {rid!r} assigned twice"
                )
            seen_resources.add(rid)
        seen_agents.add(agent_id)
        agents.append(AgentSpec(agent_id, resources))
    return agents


def serialize_agent_map(agents: list[AgentSpec]) -> str:
    lines = [f"{a.agent_id}: {', '.join(a.resources)}" for a in agents]
    return "\n".join(lines) + "\n"


def validate_agent_map(
    agents: list[AgentSpec], resources: list[ResourceSpec]
) -> None:
    """Check that distinct agents partition distinct resources exactly."""
    known = _unique([r.resource_id for r in resources], "resource Id")
    _unique([a.agent_id for a in agents], "agentId")
    claimed: set[str] = set()
    for agent in agents:
        for rid in agent.resources:
            if rid not in known:
                raise StructuralError(
                    f"agent {agent.agent_id!r} manages unknown resource {rid!r}"
                )
            if rid in claimed:
                raise StructuralError(f"resource {rid!r} managed by two agents")
            claimed.add(rid)
    missing = sorted(known - claimed)
    if missing:
        raise StructuralError(
            "resources not covered by any agent: " + ", ".join(missing)
        )


# ---------------------------------------------------------------------------
# Schedule table (delimited text)


SCHEDULE_FIELDS = ("taskId", "resourceId", "agentId", "start", "end")


def schedule_to_csv(schedule: FinalSchedule) -> str:
    """Render placements as CSV rows sorted by (start, taskId)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SCHEDULE_FIELDS)
    for p in sorted(schedule.placements, key=lambda p: (p.start, p.task_id)):
        writer.writerow(
            [
                p.task_id,
                p.resource_id,
                p.agent_id,
                format_number(p.start),
                format_number(p.end),
            ]
        )
    return buf.getvalue()


def placements_from_csv(text: str) -> list[Placement]:
    """Read schedule rows back into placements."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ValidationError("schedule file is empty")
    missing = [f for f in SCHEDULE_FIELDS if f not in reader.fieldnames]
    if missing:
        raise ValidationError(
            "schedule file lacks columns: " + ", ".join(missing)
        )
    placements: list[Placement] = []
    for lineno, row in enumerate(reader, start=2):
        if None in (row[field] for field in SCHEDULE_FIELDS):
            raise ValidationError(f"schedule line {lineno}: too few fields")
        try:
            start = _decimal(row["start"].strip())
            end = _decimal(row["end"].strip())
        except ValueError:
            raise ValidationError(
                f"schedule line {lineno}: start/end must be numbers"
            ) from None
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValidationError(
                f"schedule line {lineno}: start/end must be finite"
            )
        placements.append(
            Placement(
                task_id=row["taskId"],
                resource_id=row["resourceId"],
                agent_id=row["agentId"],
                start=start,
                end=end,
            )
        )
    return placements
