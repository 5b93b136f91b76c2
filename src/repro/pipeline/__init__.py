"""Pipeline substrate (S9): stages, runner, provenance, audit log."""

from repro.pipeline.audit_log import AuditEvent, AuditLog
from repro.pipeline.pipeline import (
    PROVENANCE_MODES,
    Pipeline,
    PipelineContext,
    PipelineResult,
)
from repro.pipeline.provenance import (
    Artifact,
    ProvenanceGraph,
    Step,
)
from repro.pipeline.stage import (
    CleanStage,
    ImputeStage,
    DecideStage,
    FunctionStage,
    PredictStage,
    RedactStage,
    RepairStage,
    ReweighStage,
    Stage,
    TrainStage,
    ValidateSchemaStage,
)
from repro.pipeline.monitor import (
    Alarm,
    FairnessDriftMonitor,
    population_stability_index,
)

__all__ = [
    "ImputeStage",
    "population_stability_index",
    "FairnessDriftMonitor",
    "Alarm",
    "PROVENANCE_MODES",
    "Artifact",
    "AuditEvent",
    "AuditLog",
    "CleanStage",
    "DecideStage",
    "FunctionStage",
    "Pipeline",
    "PipelineContext",
    "PipelineResult",
    "PredictStage",
    "ProvenanceGraph",
    "RedactStage",
    "RepairStage",
    "ReweighStage",
    "Stage",
    "Step",
    "TrainStage",
    "ValidateSchemaStage",
]
