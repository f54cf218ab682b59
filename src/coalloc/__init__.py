"""Co-allocation scheduling engine for dependent-task workloads.

Pipeline: parse tasks and resources, build the task DAG, partition it into
size-bounded clusters, distribute clusters to agents that schedule locally,
propagate inter-cluster readiness as rigid delays, then assemble and repair
the final schedule. A validator, workload generator, metrics, and a CLI ride
along.
"""

from .agent import (
    AgentActor,
    PartialSchedule,
    ResourceTimeline,
    apply_dependency_delays,
    schedule_cluster,
)
from .broker import (
    Broker,
    OrchestrationResult,
    assemble_and_repair,
    distribute,
    host_masks,
    orchestrate,
)
from .clustering import (
    Cluster,
    ClusterDag,
    assignment_dump,
    cluster_tasks,
    max_cluster_size,
)
from .errors import (
    CycleError,
    InfeasibleTaskError,
    ProtocolError,
    SchedulingError,
    StructuralError,
    UnknownReferenceError,
    ValidationError,
    XmlFormatError,
)
from .graph import TaskDag, build_dag
from .harness import (
    Metrics,
    ViolationReport,
    compute_metrics,
    generate_workload,
    validate_schedule,
)
from .model import (
    AgentSpec,
    Dependency,
    FinalSchedule,
    Placement,
    ResourceSpec,
    TaskSpec,
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
from .protocol import Message, MessageKind, MessageLog

__version__ = "0.1.0"
