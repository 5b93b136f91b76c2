"""``repro.engine`` — one dataflow-plan runtime for the FACT system.

The paper's "responsible by design" demand means provenance, budget
ledgers, memoisation, and tracing must live in the execution substrate,
not be re-implemented ad hoc at every call site.  This package is that
substrate: a :class:`Node` is one named pure computation with declared
inputs and an auto-derived cache key, a :class:`Plan` is a validated DAG
of them with a deterministic schedule, and an :class:`Executor` runs the
plan level by level — concurrently via :mod:`repro.parallel`, memoised
through any :class:`~repro.store.ArtifactStore` (or none, via
:data:`~repro.store.NULL_STORE`, with zero fingerprinting cost), traced
through :mod:`repro.obs`, and recorded into a
:class:`~repro.pipeline.provenance.ProvenanceGraph`.

Three subsystems run on it:

* :class:`repro.pipeline.Pipeline` builds a *linear* plan (one node per
  stage, shared-rng continuity, stage spans and provenance unchanged);
* :class:`repro.core.FACTAuditor` builds a map/combine plan — one map
  node per shard (a plain table is one shard), then the
  fairness/accuracy/confidentiality/transparency sections, which
  execute concurrently and re-audit incrementally with no hand-written
  keys;
* :class:`repro.serve.QueryPlanner` represents every served query as a
  one-node plan whose ``key_parts`` reproduce the historical answer
  digests exactly.

Determinism contract: a plan's results are bit-identical for every
``n_jobs``, every backend, and with or without a store, because each
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
from repro.engine.plan import FusedChain, Plan
from repro.engine.sharding import (
    ShardPartials,
    combine_node,
    shard_map,
    shard_map_nodes,
)

__all__ = [
    "Executor",
    "FusedChain",
    "Node",
    "NodeRun",
    "Plan",
    "PlanResult",
    "RNG_MODES",
    "ShardPartials",
    "combine_node",
    "seed_identity",
    "shard_map",
    "shard_map_nodes",
    "value_fingerprint",
]
