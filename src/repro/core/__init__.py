"""The DRA4WfMS runtime: AEA, TFC server, routing, state, monitoring.

This package is the paper's primary contribution in executable form —
the engine-less operational models of §2.1 (basic) and §2.2 (advanced),
with the in-memory orchestrator that produces the measurements of §4.
"""

from .audit import (
    EvidenceBundle,
    TrailEntry,
    audit_trail,
    extract_evidence,
    render_trail,
)
from .aea import (
    ActivityContext,
    ActivityExecutionAgent,
    AeaResult,
    AeaTimings,
    Responder,
)
from .monitor import ActivityStats, WorkflowMonitor
from .router import RoutingDecision, cascade_targets, check_join_ready, route_after
from .runtime import ExecutionTrace, InMemoryRuntime, StepTrace
from .state import ExecutionStatus, VariableView, execution_status
from .tfc import TfcRecord, TfcResult, TfcServer

__all__ = [
    "ActivityContext",
    "EvidenceBundle",
    "TrailEntry",
    "audit_trail",
    "extract_evidence",
    "render_trail",
    "ActivityExecutionAgent",
    "ActivityStats",
    "AeaResult",
    "AeaTimings",
    "ExecutionStatus",
    "ExecutionTrace",
    "InMemoryRuntime",
    "Responder",
    "RoutingDecision",
    "StepTrace",
    "TfcRecord",
    "TfcResult",
    "TfcServer",
    "VariableView",
    "WorkflowMonitor",
    "cascade_targets",
    "check_join_ready",
    "execution_status",
    "route_after",
]
