"""Parsing, serialization, and round-trip behavior of the on-disk formats."""

import copy
import dataclasses
import gc
import importlib
import logging
import math
import pickle
import pkgutil
import random
import re
import tracemalloc
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coalloc
from coalloc import (
    AgentSpec,
    Assignment,
    Cluster,
    Dependency,
    FinalSchedule,
    Message,
    MessageKind,
    Metrics,
    PartialSchedule,
    Placement,
    ResourceSpec,
    StructuralError,
    TaskSpec,
    ValidationError,
    ViolationReport,
    XmlFormatError,
    generate_workload,
    parse_agent_map,
    parse_resource_file,
    parse_task_file,
    placements_from_csv,
    schedule_to_csv,
    serialize_agent_map,
    serialize_resource_set,
    serialize_task_set,
    validate_agent_map,
)
from coalloc.errors import SchedulingError
from coalloc.model import _FEED_CHARS, Record
from coalloc.protocol import ReadinessReport
from conftest import make_pool
from oracles import whole_tree_items

MINIMAL_TASK = """
<tasks>
  <task>
    <taskId>1</taskId>
    <requirements>
      <memory>1</memory>
      <cpuPower>1</cpuPower>
    </requirements>
    <processingTime>5</processingTime>
    <depends>
      <taskId>0</taskId>
      <commTime>2</commTime>
    </depends>
  </task>
</tasks>
"""

MINIMAL_NODE = """
<resources>
  <Node>
    <Id>P01</Id>
    <FarmName>farm1</FarmName>
    <ClusterName>MinervaCluster</ClusterName>
    <nodeName>station1</nodeName>
    <Parameters>
      <CPUPower>2</CPUPower>
      <Memory>4</Memory>
      <CPU_idle>90</CPU_idle>
    </Parameters>
  </Node>
</resources>
"""


def test_parse_minimal_task():
    tasks = parse_task_file(MINIMAL_TASK)
    assert len(tasks) == 1
    task = tasks[0]
    assert task.task_id == "1"
    assert task.processing_time == 5.0
    assert task.memory == 1.0
    assert task.cpu_power == 1.0
    assert task.deadline_time is None
    assert task.dependencies == (Dependency("0", 2.0),)


def test_parse_empty_task_file():
    assert parse_task_file("<tasks></tasks>") == []


def test_task_round_trip_three_tasks():
    tasks = [
        TaskSpec("1", 2.0, 1.0, 1.0),
        TaskSpec("2", 3.0, 0.5, 2.0, 40.0),
        TaskSpec(
            "3", 1.0, 0.0, 0.0, None,
            (Dependency("1", 1.0), Dependency("2", 2.0)),
        ),
    ]
    text = serialize_task_set(tasks)
    parsed = parse_task_file(text)
    assert parsed == tasks
    assert {(d.task_id, d.comm_time) for d in parsed[2].dependencies} == {
        ("1", 1.0),
        ("2", 2.0),
    }
    # a second round trip is bit-stable
    assert serialize_task_set(parsed) == text


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_task_round_trip_generated(seed):
    tasks = generate_workload(seed, 30, 5, 0.3)
    assert parse_task_file(serialize_task_set(tasks)) == tasks


def test_parse_minimal_resource():
    resources = parse_resource_file(MINIMAL_NODE)
    assert len(resources) == 1
    res = resources[0]
    assert res.resource_id == "P01"
    assert res.cpu_power == 2.0
    assert res.memory == 4.0
    assert res.cpu_idle == 90.0
    assert res.cluster_name == "MinervaCluster"


def test_parse_empty_resource_file():
    assert parse_resource_file("<resources/>") == []


def test_six_node_cluster_round_trip():
    resources = [
        ResourceSpec(f"P0{i}", f"s{i}", "MinervaCluster", "farm1", 2.0, 4.0, 90.0)
        for i in range(1, 7)
    ]
    parsed = parse_resource_file(serialize_resource_set(resources))
    assert len(parsed) == 6
    assert all(r.cluster_name == "MinervaCluster" for r in parsed)
    assert parsed == resources


def test_malformed_xml_reports_position():
    with pytest.raises(XmlFormatError, match=r"line \d+"):
        parse_task_file("<tasks><task></tasks>")


def test_duplicate_task_id_rejected():
    tasks = [TaskSpec("1", 1.0, 0.0, 0.0), TaskSpec("1", 2.0, 0.0, 0.0)]
    with pytest.raises(StructuralError, match="duplicate"):
        parse_task_file(serialize_task_set(tasks))


def test_negative_numeric_rejected():
    bad = MINIMAL_TASK.replace("<processingTime>5</processingTime>",
                               "<processingTime>-5</processingTime>")
    with pytest.raises(ValidationError, match="nonnegative"):
        parse_task_file(bad)


def test_non_numeric_rejected():
    bad = MINIMAL_NODE.replace("<Memory>4</Memory>", "<Memory>lots</Memory>")
    with pytest.raises(ValidationError, match="not a number"):
        parse_resource_file(bad)


def test_missing_required_elements():
    with pytest.raises(ValidationError, match="processingTime"):
        parse_task_file(
            "<tasks><task><taskId>x</taskId>"
            "<requirements><memory>1</memory><cpuPower>1</cpuPower>"
            "</requirements></task></tasks>"
        )
    with pytest.raises(ValidationError, match="requirements"):
        parse_task_file(
            "<tasks><task><taskId>x</taskId>"
            "<processingTime>1</processingTime></task></tasks>"
        )


@pytest.mark.parametrize(
    "parse, document, error, match",
    [
        (parse_task_file,
         MINIMAL_TASK.replace("<taskId>1</taskId>", ""),
         ValidationError, "^task #1: missing taskId$"),
        (parse_task_file,
         MINIMAL_TASK.replace("<taskId>0</taskId>", ""),
         ValidationError, "^task '1': depends element lacks a taskId$"),
        (parse_task_file,
         MINIMAL_TASK.replace("<commTime>2</commTime>", ""),
         ValidationError, "^task '1': depends element lacks a commTime$"),
        (parse_task_file,
         MINIMAL_TASK.replace("<memory>1</memory>", ""),
         ValidationError, "^task '1': requirements lack memory$"),
        (parse_task_file,
         MINIMAL_TASK.replace("<cpuPower>1</cpuPower>", ""),
         ValidationError, "^task '1': requirements lack cpuPower$"),
        (parse_resource_file,
         MINIMAL_NODE.replace("<Id>P01</Id>", ""),
         ValidationError, "^Node #1: missing Id$"),
        (parse_resource_file,
         serialize_resource_set([ResourceSpec("P01"), ResourceSpec("P01")]),
         StructuralError, "^duplicate resource Id 'P01'$"),
    ],
)
def test_file_field_errors_name_the_field(parse, document, error, match):
    with pytest.raises(error, match=match):
        parse(document)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: Dependency("", 1.0), ValidationError,
         "^dependency taskId must be nonempty$"),
        (lambda: Dependency("a", -1.0), ValidationError,
         "^commTime must be nonnegative, got -1.0$"),
        (lambda: Dependency("a", math.nan), ValidationError,
         "^commTime must be nonnegative, got nan$"),
        (lambda: TaskSpec("", 1.0), ValidationError, "^taskId must be nonempty$"),
        (lambda: TaskSpec("t", -1.0), ValidationError,
         "^task 't': processing_time must be nonnegative$"),
        (lambda: TaskSpec("t", math.nan), ValidationError,
         "^task 't': processing_time must be nonnegative$"),
        (lambda: TaskSpec("t", 1.0, memory=-1.0), ValidationError,
         "^task 't': memory must be nonnegative$"),
        (lambda: TaskSpec("t", 1.0, memory=math.nan), ValidationError,
         "^task 't': memory must be nonnegative$"),
        (lambda: TaskSpec("t", 1.0, cpu_power=-1.0), ValidationError,
         "^task 't': cpu_power must be nonnegative$"),
        (lambda: TaskSpec("t", 1.0, cpu_power=math.nan), ValidationError,
         "^task 't': cpu_power must be nonnegative$"),
        (lambda: TaskSpec("t", 1.0, deadline_time=-1.0), ValidationError,
         "^task 't': deadlineTime must be nonnegative$"),
        (lambda: TaskSpec("t", 1.0, deadline_time=math.nan), ValidationError,
         "^task 't': deadlineTime must be nonnegative$"),
        (lambda: ResourceSpec(""), ValidationError,
         "^resource Id must be nonempty$"),
        (lambda: ResourceSpec("r", cpu_power=-1.0), ValidationError,
         "^resource 'r': cpu_power must be nonnegative$"),
        (lambda: ResourceSpec("r", cpu_power=math.nan), ValidationError,
         "^resource 'r': cpu_power must be nonnegative$"),
        (lambda: ResourceSpec("r", memory=-1.0), ValidationError,
         "^resource 'r': memory must be nonnegative$"),
        (lambda: ResourceSpec("r", memory=math.nan), ValidationError,
         "^resource 'r': memory must be nonnegative$"),
        (lambda: ResourceSpec("r", cpu_idle=-1.0), ValidationError,
         "^resource 'r': cpu_idle must be nonnegative$"),
        (lambda: ResourceSpec("r", cpu_idle=math.nan), ValidationError,
         "^resource 'r': cpu_idle must be nonnegative$"),
        (lambda: AgentSpec("", ("r",)), ValidationError,
         "^agentId must be nonempty$"),
        (lambda: AgentSpec("a", ()), ValidationError,
         "^agent 'a' must manage at least one resource$"),
        (lambda: AgentSpec("a", ("r", "r")), StructuralError,
         "^agent 'a' lists a resource twice$"),
        (lambda: Placement("t", "r", "a", -1.0, 1.0), ValidationError,
         "^placement of 't': start must be nonnegative$"),
        (lambda: Placement("t", "r", "a", 2.0, 1.0), ValidationError,
         "^placement of 't': end precedes start$"),
        (lambda: Placement("t", "r", "a", math.nan, 2.0), ValidationError,
         "^placement of 't': start must be nonnegative$"),
        (lambda: Placement("t", "r", "a", 0.0, math.nan), ValidationError,
         "^placement of 't': end precedes start$"),
        (lambda: Placement("t", "r", "a", math.nan, math.nan), ValidationError,
         "^placement of 't': start must be nonnegative$"),
    ],
)
def test_model_constructors_reject_bad_fields(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_unknown_elements_ignored_with_warning(caplog):
    doc = MINIMAL_TASK.replace(
        "<processingTime>", "<color>blue</color><processingTime>"
    )
    with caplog.at_level(logging.WARNING):
        tasks = parse_task_file(doc)
    assert len(tasks) == 1
    assert any("color" in rec.message for rec in caplog.records)


def test_numeric_blocks_name_fields_warn_and_keep_the_last_repeat(caplog):
    task_doc = MINIMAL_TASK.replace(
        "<cpuPower>1</cpuPower>",
        "<cpuPower>1</cpuPower><gpu>2</gpu><memory>3</memory>",
    )
    node_doc = MINIMAL_NODE.replace(
        "<CPU_idle>90</CPU_idle>", "<CPU_idle>90</CPU_idle><Disk>5</Disk>"
    )
    with caplog.at_level(logging.WARNING):
        task = parse_task_file(task_doc)[0]
        node = parse_resource_file(node_doc)[0]
    assert task.memory == 3.0
    assert node.cpu_idle == 90.0
    warnings = [rec.getMessage() for rec in caplog.records]
    assert "ignoring unknown element <gpu> in task '1'/requirements" in warnings
    assert "ignoring unknown element <Disk> in Node 'P01'/Parameters" in warnings
    with pytest.raises(ValidationError, match="^task '1': cpuPower: not a number"):
        parse_task_file(MINIMAL_TASK.replace("<cpuPower>1<", "<cpuPower>x<"))
    with pytest.raises(ValidationError, match="^Node 'P01': CPU_idle: must be"):
        parse_resource_file(MINIMAL_NODE.replace("<CPU_idle>90<", "<CPU_idle>inf<"))
    with pytest.raises(ValidationError, match="Parameters must contain"):
        parse_resource_file(MINIMAL_NODE.replace("<Memory>4</Memory>", ""))


def test_self_dependency_rejected():
    with pytest.raises(ValidationError, match="itself"):
        TaskSpec("a", 1.0, 0.0, 0.0, None, (Dependency("a", 1.0),))


def test_agent_map_round_trip():
    agents = [
        AgentSpec("agent1", ("P01", "P02")),
        AgentSpec("agent2", ("P03",)),
    ]
    text = serialize_agent_map(agents)
    assert parse_agent_map(text) == agents


def test_agent_map_comments_and_errors():
    parsed = parse_agent_map("# layout\nagent1: P01, P02\n\nagent2: P03\n")
    assert [a.agent_id for a in parsed] == ["agent1", "agent2"]
    with pytest.raises(ValidationError):
        parse_agent_map("agent1 P01\n")
    with pytest.raises(StructuralError, match="twice"):
        parse_agent_map("agent1: P01\nagent2: P01\n")
    with pytest.raises(StructuralError, match="duplicate"):
        parse_agent_map("agent1: P01\nagent1: P02\n")


def test_validate_agent_map_partition():
    resources = [
        ResourceSpec("P01", cpu_power=1.0, memory=1.0),
        ResourceSpec("P02", cpu_power=1.0, memory=1.0),
    ]
    validate_agent_map(
        [AgentSpec("a1", ("P01",)), AgentSpec("a2", ("P02",))], resources
    )
    with pytest.raises(StructuralError, match="not covered"):
        validate_agent_map([AgentSpec("a1", ("P01",))], resources)
    with pytest.raises(StructuralError, match="unknown"):
        validate_agent_map(
            [AgentSpec("a1", ("P01", "P02", "P99"))], resources
        )
    with pytest.raises(StructuralError, match="^resource 'P01' managed by two agents$"):
        validate_agent_map(
            [AgentSpec("a1", ("P01", "P02")), AgentSpec("a2", ("P01",))], resources
        )


def test_schedule_csv_round_trip():
    placements = (
        Placement("a", "P01", "agent1", 0.0, 2.0),
        Placement("b", "P02", "agent1", 0.25, 3.5),
    )
    schedule = FinalSchedule(placements, 3.5)
    rows = placements_from_csv(schedule_to_csv(schedule))
    assert tuple(rows) == placements


def test_schedule_csv_sorted_by_start_then_task():
    placements = (
        Placement("b", "P01", "a1", 5.0, 6.0),
        Placement("a", "P02", "a1", 0.0, 1.0),
        Placement("c", "P03", "a1", 0.0, 2.0),
    )
    text = schedule_to_csv(FinalSchedule(placements, 6.0))
    ids = [line.split(",")[0] for line in text.splitlines()[1:]]
    assert ids == ["a", "c", "b"]


def test_schedule_csv_requires_columns():
    with pytest.raises(ValidationError, match="columns"):
        placements_from_csv("taskId,start\nx,1\n")


def test_schedule_csv_needs_a_header():
    assert placements_from_csv(schedule_to_csv(FinalSchedule((), 0.0))) == []
    with pytest.raises(ValidationError, match="schedule file is empty"):
        placements_from_csv("")


@pytest.mark.parametrize("start,end", [("inf", "inf"), ("1.0", "nan"), ("-inf", "2.0")])
def test_schedule_csv_rejects_non_finite_times(start, end):
    text = f"taskId,resourceId,agentId,start,end\na,P01,agent1,{start},{end}\n"
    with pytest.raises(ValidationError, match="line 2: start/end must be finite"):
        placements_from_csv(text)


@pytest.mark.parametrize("token", ["+2", " 5 ", "1e3", ".5", "2.50"])
def test_ascii_decimals_parse(token):
    task_doc = MINIMAL_TASK.replace(">5</processingTime>", f">{token}</processingTime>")
    node_doc = MINIMAL_NODE.replace(">4</Memory>", f">{token}</Memory>")
    row = f"taskId,resourceId,agentId,start,end\na,P01,agent1,{token},{token}\n"
    assert parse_task_file(task_doc)[0].processing_time == float(token)
    assert parse_resource_file(node_doc)[0].memory == float(token)
    [placement] = placements_from_csv(row)
    assert placement.start == placement.end == float(token)


def test_schedule_csv_rejects_a_short_row():
    # a short row leaves its last fields None; with agentId last, a None agent
    # would reach compute_metrics, which sorts agent ids
    text = "start,end,taskId,resourceId,agentId\n0,1,a,P01,x\n0,1,b,P01\n"
    with pytest.raises(ValidationError, match="^schedule line 3: too few fields$"):
        placements_from_csv(text)


# Differential test of the streamed XML readers against a parse of the whole
# tree: generated documents with unknown elements at root, task, node and
# block level (one in a default namespace, one prefixed), a <task> nested in
# an unknown root child, repeated fields, attributes, field texts made of
# CDATA, character and entity references, comments, processing instructions
# or mixed content, sometimes under a DOCTYPE that declares an entity or
# names an external one, field errors and duplicate ids, padded to at least
# three feed slices and sometimes truncated.
ROOT_EXTRAS = [
    "<note>\u00fcber</note>",
    "<extra><task><taskId>z</taskId></task></extra>",
    "<!-- remark -->",
    "<?note remark?>",
    "<color>blue</color>",
    '<color xmlns="urn:c">blue</color>',
    '<n:color xmlns:n="urn:n"><memory>1</memory></n:color>',
    "<processingTime>7.5</processingTime>",
    "<memory>3.0</memory>",
    '<taskId kind="x">t001</taskId>',
    "<Id>N01</Id>",
    "<CPUPower>1.0</CPUPower>",
]
FIELD_TOKENS = [
    "x", "-1", "1_0", "<![CDATA[2.5]]>", "&#48;", "1&amp;2", "&e;", "&undefined;",
    "1<!-- c -->0", "3<?pi x?>.5", "4<b>5</b>6", "4<b/>5<c/>6",
    "x<b/>1", "<![CDATA[a]]>b",
]
PROLOGS = [
    "",
    '<!DOCTYPE root [<!ENTITY e "4.0">]>\n',
    '<!DOCTYPE root SYSTEM "root.dtd">\n',
    '<!DOCTYPE root [<!ENTITY e SYSTEM "e.xml">]>\n',
]
FIELD_TEXT = re.compile(r">([^<>\s][^<>]*)<")


@st.composite
def xml_documents(draw):
    kind = draw(st.sampled_from(["task", "Node"]))
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(1, 12))
    if kind == "task":
        tasks = generate_workload(seed, n, draw(st.integers(1, min(n, 3))), 0.3)
        text = serialize_task_set(tasks)
    else:
        text = serialize_resource_set(make_pool(random.Random(seed), 1, n)[0])
    fields = [m.span(1) for m in FIELD_TEXT.finditer(text)]
    originals = sorted({text[a:b] for a, b in fields})
    picks = draw(st.lists(st.sampled_from(fields), max_size=2, unique=True))
    for a, b in sorted(picks, reverse=True):  # from the back: spans stay put
        token = draw(st.sampled_from(FIELD_TOKENS) | st.sampled_from(originals))
        text = text[:a] + token + text[b:]
    tags = st.sampled_from(["task", "Node", "depends", "Parameters"])
    for tag in draw(st.lists(tags)):
        text = text.replace(f"<{tag}>", f'<{tag} note="a&amp;b">', 1)
    text = text.replace("?>\n", "?>\n" + draw(st.sampled_from(PROLOGS)), 1)
    # between the root's start and end tags every line holds whole elements
    lines = text.splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 5))):
        at = draw(st.integers(2, len(lines) - 1))
        lines.insert(at, draw(st.sampled_from(ROOT_EXTRAS)) + "\n")
    slots = draw(st.lists(st.integers(2, len(lines) - 1), min_size=1, max_size=4))
    missing = 3 * _FEED_CHARS - len("".join(lines)) + draw(st.integers(0, _FEED_CHARS))
    for at in sorted(slots, reverse=True):
        lines.insert(at, " " * (missing // len(slots)) + "\n")
    text = "".join(lines)
    boundaries = range(_FEED_CHARS, len(text), _FEED_CHARS)
    cut = draw(
        st.none() | st.integers(0, len(text)) | st.sampled_from(boundaries)
    )
    return kind, text if cut is None else text[:cut]


def read_outcome(read, text, caplog):
    caplog.clear()
    try:
        result = read(text)
    except SchedulingError as exc:
        result = (type(exc).__name__, str(exc))
    return result, [rec.getMessage() for rec in caplog.records]


@settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(document=xml_documents())
def test_streamed_reader_matches_the_whole_tree(document, caplog):
    kind, text = document
    read = parse_task_file if kind == "task" else parse_resource_file
    with caplog.at_level(logging.WARNING, logger="coalloc.model"):
        result, warnings = read_outcome(read, text, caplog)
        expected, expected_warnings = read_outcome(
            lambda t: whole_tree_items(t, kind), text, caplog
        )
    assert result == expected
    # on a malformed document, elements read before the syntax error have warned
    if not (isinstance(expected, tuple) and expected[0] == "XmlFormatError"):
        assert warnings == expected_warnings


def task_document(head="<taskId>a</taskId>", attrs="", prolog=""):
    """One task whose fields start with ``head``, in a ``<tasks>`` root."""
    return (
        f"{prolog}<tasks{attrs}><task>{head}<requirements><memory>1</memory>"
        "<cpuPower>1</cpuPower></requirements><processingTime>2</processingTime>"
        "</task></tasks>"
    )


# Markup that the whole-tree reference leaves to ElementTree: each
# document's outcome, and its warnings, must match the reference.
MARKUP_DOCUMENTS = {
    "cdata and references": (
        "task",
        "<tasks><task><taskId><![CDATA[a<]]>&#48;&amp;</taskId><requirements>"
        "<memory>&#49;</memory><cpuPower><![CDATA[2]]></cpuPower></requirements>"
        "<processingTime>1&#46;5</processingTime></task></tasks>",
    ),
    "comment and pi in fields": (
        "task",
        task_document("<taskId>a<!-- c -->b<?pi x?>c</taskId>")
        .replace("<processingTime>2", "<processingTime>1<!-- c -->2"),
    ),
    "default namespace": ("task", task_document(attrs=' xmlns="urn:t"')),
    "prefixed element": (
        "task",
        task_document('<taskId>a</taskId><p:color xmlns:p="urn:p">red</p:color>'),
    ),
    "attributes": (
        "task",
        task_document('<taskId kind="k">a</taskId>', attrs=' v="1"')
        .replace("<task>", '<task id="x">'),
    ),
    "doctype with an internal entity": (
        "task",
        task_document(
            "<taskId>&id;</taskId>", prolog='<!DOCTYPE tasks [<!ENTITY id "t&#49;">]>'
        ),
    ),
    "undefined entity": ("task", task_document("<taskId>&foo;</taskId>")),
    "undefined entity under a doctype": (
        "task",
        task_document(
            "<taskId>&foo;</taskId>", prolog='<!DOCTYPE tasks SYSTEM "x.dtd">'
        ),
    ),
    "external entity": (
        "task",
        task_document(
            "<taskId>&ext;</taskId>",
            prolog='<!DOCTYPE tasks [<!ENTITY ext SYSTEM "e.xml">]>',
        ),
    ),
    "mixed content in a leaf": ("task", task_document("<taskId>a<b>x</b>c</taskId>")),
    "leaf with two children": (
        "task",
        task_document("<taskId>a<b/>c<d>e</d>f</taskId>")
        .replace("<processingTime>2", "<processingTime>1<x/>2<y/>3"),
    ),
    "bad number before a child": (
        "task",
        task_document().replace("<processingTime>2", "<processingTime>x<b/>2"),
    ),
    "node bad number before a child": (
        "Node",
        "<resources><Node><Id>N</Id><Parameters><CPUPower>1</CPUPower>"
        "<Memory>x<b/>2</Memory><CPU_idle>0</CPU_idle></Parameters></Node>"
        "<Node><Color/></Node></resources>",
    ),
    "repeated leaves": (
        "task",
        task_document("<taskId>a</taskId><taskId>b</taskId>")
        .replace("</task>", "<processingTime>3</processingTime></task>"),
    ),
    "task in an unknown root child": (
        "task",
        "<tasks><extra><task><taskId>z</taskId></task></extra>"
        + task_document("<taskId>a</taskId>")[len("<tasks>"):],
    ),
    "node markup": (
        "Node",
        '<resources xmlns:p="urn:p"><Node kind="n"><Id><![CDATA[N]]>&#49;</Id>'
        "<Id>N2</Id><nodeName>a<!-- c -->b<x/>c<y/>d</nodeName><p:Id>z</p:Id>"
        "<Parameters><CPUPower>1</CPUPower><Memory>&#50;</Memory>"
        "<CPU_idle>0</CPU_idle><Memory>3</Memory></Parameters></Node></resources>",
    ),
}


@pytest.mark.parametrize("name", MARKUP_DOCUMENTS)
def test_reader_matches_the_whole_tree_on_markup(name, caplog):
    kind, text = MARKUP_DOCUMENTS[name]
    read = parse_task_file if kind == "task" else parse_resource_file
    with caplog.at_level(logging.WARNING, logger="coalloc.model"):
        outcome = read_outcome(read, text, caplog)
        assert outcome == read_outcome(
            lambda t: whole_tree_items(t, kind), text, caplog
        )


def test_markup_outcomes():
    def read(name):
        kind, text = MARKUP_DOCUMENTS[name]
        try:
            return (parse_task_file if kind == "task" else parse_resource_file)(text)
        except XmlFormatError as exc:
            return str(exc)

    assert read("cdata and references")[0].task_id == "a<0&"
    assert read("cdata and references")[0].processing_time == 1.5
    assert read("comment and pi in fields")[0].task_id == "abc"
    assert read("comment and pi in fields")[0].processing_time == 12.0
    assert read("default namespace") == []
    assert read("doctype with an internal entity")[0].task_id == "t1"
    assert read("mixed content in a leaf")[0].task_id == "a"
    assert read("leaf with two children")[0].task_id == "a"
    assert read("leaf with two children")[0].processing_time == 1.0
    with pytest.raises(ValidationError, match="^task 'a': processingTime: not a"):
        read("bad number before a child")
    with pytest.raises(ValidationError, match="^Node 'N': Memory: not a number"):
        read("node bad number before a child")
    assert read("repeated leaves")[0].task_id == "b"
    assert read("repeated leaves")[0].processing_time == 3.0
    assert [t.task_id for t in read("task in an unknown root child")] == ["a"]
    node = read("node markup")[0]
    assert (node.resource_id, node.node_name, node.memory) == ("N2", "ab", 3.0)
    undefined = "malformed XML at line 1, column {}: undefined entity"
    assert read("undefined entity") == undefined.format(21)
    assert read("undefined entity under a doctype") == undefined.format(52)
    assert read("external entity") == undefined.format(68)


def test_dependencies_hold_their_tasks_own_id_objects():
    text = serialize_task_set(generate_workload(4, 60, 5, 0.2))
    # a dependency that names a task further down the file
    text = text.replace(
        "</task>",
        "<depends><taskId>t60</taskId><commTime>1.0</commTime></depends></task>",
        1,
    )
    tasks = parse_task_file(text)
    own = {task.task_id: task.task_id for task in tasks}
    deps = [dep for task in tasks for dep in task.dependencies]
    assert len(deps) > 60
    assert all(dep.task_id is own[dep.task_id] for dep in deps)


def test_malformed_xml_states_its_position_once():
    message = "malformed XML at line 1, column 13: no element found"
    with pytest.raises(XmlFormatError) as err:
        parse_task_file("<tasks><task>")
    assert str(err.value) == message
    with pytest.raises(XmlFormatError) as err:
        whole_tree_items("<tasks><task>", "task")
    assert str(err.value) == message


def test_field_error_in_a_truncated_document_is_a_syntax_error():
    text = serialize_task_set(generate_workload(5, 200, 4, 0.05))
    bad = text.replace("<processingTime>", "<processingTime>x", 1)
    assert len(bad) > 2 * _FEED_CHARS
    with pytest.raises(ValidationError, match="^task 't001': processingTime: not a"):
        parse_task_file(bad)
    with pytest.raises(XmlFormatError, match="^malformed XML at line"):
        parse_task_file(bad[: 2 * _FEED_CHARS])


def test_reading_holds_far_less_than_the_element_tree():
    text = serialize_task_set(generate_workload(3, 3000, 10, 0.003))
    gc.collect()
    tracemalloc.start()
    try:
        tasks = parse_task_file(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tasks) == 3000
    # a whole element tree takes about 9.5x the text
    assert peak - held < 0.5 * len(text)


# ---------------------------------------------------------------------------
# Records


def _placement():
    return Placement("a", "r", "x", 0.0, 1.0)


RECORDS = [
    Dependency("b", 1.0),
    TaskSpec("a", 2.0, 1.0, 1.0, 5.0, (Dependency("b", 1.0),)),
    ResourceSpec("r", "n", "c", "f", 4.0, 4.0, 0.5),
    AgentSpec("x", ("r",)),
    FinalSchedule((_placement(),), 1.0, ("a",)),
    Cluster("C1", ("a", "b")),
    PartialSchedule("C1", {"a": _placement()}),
    ReadinessReport(("a",), array("d", [1.5])),
    Message(MessageKind.SUBMIT_TASKS, "user", "broker", 3),
    Assignment({"C1": "x"}, {"x": 2}),
    ViolationReport(overlaps=[("r", "a", "b")]),
    Metrics({"x": 2}, 1.0, {"r": 1.0}, 0),
]


def test_every_record_type_is_covered():
    assert {type(r) for r in RECORDS} == set(Record.__subclasses__())


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_copy_and_pickle_to_an_equal_record(record):
    for twin in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
        record._replace(),
    ):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_frozen_and_hold_only_their_fields(record):
    first = record.__slots__[0]
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{first}'$"):
        setattr(record, first, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{first}'$"):
        delattr(record, first)
    assert repr(record).startswith(f"{type(record).__name__}({first}=")
    assert record != tuple(getattr(record, name) for name in record.__slots__)


def test_records_compare_and_hash_by_class_and_fields():
    assert Dependency("b", 1.0) == Dependency("b", 1.0)
    assert Dependency("b", 1.0) != Dependency("b", 2.0)
    assert len({Cluster("C1", ("a",)), Cluster("C1", ("a",))}) == 1
    assert Cluster("a", ("r",)) != AgentSpec("a", ("r",))
    assert repr(Dependency("b", 1.0)) == "Dependency(task_id='b', comm_time=1.0)"


@pytest.mark.parametrize(
    "record,changes,error,match",
    [
        (AgentSpec("a", ("r",)), {"resources": ()}, ValidationError,
         "^agent 'a' must manage at least one resource$"),
        (Dependency("b", 1.0), {"comm_time": -1.0}, ValidationError,
         "^commTime must be nonnegative, got -1.0$"),
        (TaskSpec("a", 1.0), {"dependencies": (Dependency("a", 0.0),)},
         ValidationError, "^task 'a' must not depend on itself$"),
        (ResourceSpec("r"), {"memory": math.nan}, ValidationError,
         "^resource 'r': memory must be nonnegative$"),
        (Cluster("C1", ("a",)), {"tasks": ()}, StructuralError,
         "^cluster 'C1' is empty$"),
        (Dependency("b", 1.0), {"cost": 1.0}, TypeError, "cost"),
    ],
)
def test_replace_reruns_the_constructor_checks(record, changes, error, match):
    with pytest.raises(error, match=match):
        record._replace(**changes)


def test_placement_is_the_only_dataclass():
    dataclass_types = [
        value
        for info in pkgutil.iter_modules(coalloc.__path__)
        for module in [importlib.import_module(f"coalloc.{info.name}")]
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and dataclasses.is_dataclass(value)
    ]
    assert dataclass_types == [Placement]


def test_placement_is_slotted_and_frozen():
    # Phase 2, the rigid shifts and the repair each hold one placement per
    # task, and slots bring one from 113 to 72 bytes on Python 3.11.
    placement = _placement()
    assert not hasattr(placement, "__dict__")
    assert Placement.__slots__ == (
        "task_id", "resource_id", "agent_id", "start", "end"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        placement.start = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del placement.end
    # No other name can be set either, and the error is the frozen one: the
    # slots are declared in the class body, not rebuilt by ``slots=True``
    # behind the generated ``__setattr__``.
    with pytest.raises(dataclasses.FrozenInstanceError):
        placement.color = "blue"


def test_placement_copies_and_pickles_to_an_equal_placement():
    placement = _placement()
    twins = [
        copy.copy(placement),
        copy.deepcopy(placement),
        dataclasses.replace(placement),
        *(
            pickle.loads(pickle.dumps(placement, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ),
    ]
    for twin in twins:
        assert type(twin) is Placement
        assert twin == placement
        assert hash(twin) == hash(placement)
        assert repr(twin) == repr(placement)
    assert dataclasses.replace(placement, end=3.0) == Placement(
        "a", "r", "x", 0.0, 3.0
    )


@pytest.mark.parametrize(
    "changes,match",
    [
        ({"start": math.nan}, "^placement of 'a': start must be nonnegative$"),
        ({"end": math.nan}, "^placement of 'a': end precedes start$"),
        ({"start": 2.0}, "^placement of 'a': end precedes start$"),
    ],
)
def test_placement_replace_reruns_the_checks(changes, match):
    with pytest.raises(ValidationError, match=match):
        dataclasses.replace(_placement(), **changes)
