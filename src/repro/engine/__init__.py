"""``repro.engine`` — one dataflow-plan runtime for the FACT system.

The paper's "responsible by design" demand means provenance, budget
ledgers, memoisation, and tracing must live in the execution substrate,
not be re-implemented ad hoc at every call site.  This package is that
substrate: a :class:`Node` is one named pure computation with declared
inputs and an auto-derived cache key, a :class:`Plan` is a validated DAG
of them with a deterministic schedule, and an :class:`Executor` runs the
plan level by level — its coordinator keys, looks up and commits every
node in an :class:`~repro.store.ArtifactStore` (or, without one, keys
nothing and pays no fingerprinting cost), the misses fan out via
:mod:`repro.parallel`, and every node is traced through :mod:`repro.obs`
and recorded into a :class:`~repro.pipeline.provenance.ProvenanceGraph`.

Two subsystems run on it:

* :class:`repro.pipeline.Pipeline` builds a *linear* plan (one node per
  stage, shared-rng continuity, stage spans and provenance unchanged);
* :class:`repro.core.FACTAuditor` builds a map/combine plan — one map
  node per shard (a plain table is one shard), then the
  fairness/accuracy/confidentiality/transparency sections, which
  execute concurrently and re-audit incrementally with no hand-written
  keys.

Determinism contract: a plan's results are bit-identical for every
``n_jobs`` and with or without a store, because each
``rng="spawn"`` node owns a ``SeedSequence`` child assigned positionally
in plan order on the coordinator.
"""

from repro.engine.executor import Executor, NodeRun, PlanResult
from repro.engine.node import (
    RNG_MODES,
    Node,
    seed_identity,
    value_fingerprint,
)
from repro.engine.plan import Plan
from repro.engine.sharding import (
    ShardPartials,
    combine_node,
    shard_map_nodes,
)

__all__ = [
    "Executor",
    "Node",
    "NodeRun",
    "Plan",
    "PlanResult",
    "RNG_MODES",
    "ShardPartials",
    "combine_node",
    "seed_identity",
    "shard_map_nodes",
    "value_fingerprint",
]
