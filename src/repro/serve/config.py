"""``ServeConfig``: the one validated description of a query server.

The server's tunables grew up scattered across four constructors —
rate limits on :class:`~repro.serve.admission.AdmissionController`,
capacity and scope on :class:`~repro.serve.cache.AnswerCache`, worker
count and default budgets on :class:`~repro.serve.server.QueryServer` —
so standing up two identical servers meant repeating half a dozen
kwargs and hoping none drifted.  ``ServeConfig`` collapses them into a
single frozen dataclass, validated at construction, that *is* an
:class:`~repro.store.Artifact`: ``config.fingerprint()`` is a canonical
content hash, so a deployment can record exactly which serving
configuration produced a response log.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import DataError
from repro.serve.cache import SCOPE_GLOBAL, SCOPE_TENANT
from repro.store.artifact import Artifact


@dataclass(frozen=True)
class ServeConfig(Artifact):
    """Every server tunable in one validated, fingerprintable place.

    Execution: ``workers`` threads drain coalesced batches; ``seed``
    roots the deterministic per-release noise streams.

    Batching: requests that miss the answer cache wait up to
    ``batch_window_ms`` for compatible queries (same table version,
    mechanism, and clipping bounds) to coalesce into one vectorized
    release; ``max_batch`` flushes a group early.  ``0.0`` disables
    batching — every miss executes immediately (the unbatched path,
    byte-identical to any batched one under the same seed).

    Backpressure: at most ``max_queue_depth`` requests may be submitted
    and unresolved at once — beyond that, submissions are shed
    immediately with ``STATUS_REJECTED_OVERLOAD``.  A request older
    than its deadline (``deadline_ms`` on the request, else
    ``default_deadline_ms``) when its batch reaches a worker is shed
    the same way, before it costs any ε.

    Admission: ``rate_limit`` admissions per tenant per
    ``rate_window_s`` and a global ``max_inflight`` cap, both optional.

    Cache: ``cache`` toggles the DP answer cache (replay = free
    post-processing), sized by ``cache_entries`` and shared globally or
    per tenant via ``cache_scope``.

    Tenancy: ``default_epsilon_budget`` enables auto-registration of
    unknown tenants.  ``backend_latency_s`` injects a per-batch
    data-plane delay for benchmarks; leave it 0 in real use.
    """

    workers: int = 4
    seed: int = 0
    batch_window_ms: float = 0.0
    max_batch: int = 64
    max_queue_depth: int = 4096
    default_deadline_ms: float | None = None
    rate_limit: int | None = None
    rate_window_s: float = 1.0
    max_inflight: int | None = None
    cache: bool = True
    cache_entries: int = 4096
    cache_scope: str = SCOPE_GLOBAL
    default_epsilon_budget: float | None = None
    default_delta_budget: float = 0.0
    backend_latency_s: float = 0.0

    def __post_init__(self):
        if self.workers < 1:
            raise DataError("workers must be at least 1")
        if self.batch_window_ms < 0:
            raise DataError("batch_window_ms must be non-negative")
        if self.max_batch < 1:
            raise DataError("max_batch must be at least 1")
        if self.max_queue_depth < 1:
            raise DataError("max_queue_depth must be at least 1")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise DataError("default_deadline_ms must be positive (or None)")
        if self.rate_limit is not None and self.rate_limit < 1:
            raise DataError("rate_limit must be at least 1 (or None)")
        if self.rate_window_s <= 0:
            raise DataError("rate_window_s must be positive")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise DataError("max_inflight must be at least 1 (or None)")
        if self.cache_entries < 1:
            raise DataError("cache_entries must be at least 1")
        if self.cache_scope not in (SCOPE_GLOBAL, SCOPE_TENANT):
            raise DataError(
                f"cache_scope must be '{SCOPE_GLOBAL}' or '{SCOPE_TENANT}', "
                f"got {self.cache_scope!r}"
            )
        if self.default_delta_budget < 0:
            raise DataError("default_delta_budget must be non-negative")
        if self.backend_latency_s < 0:
            raise DataError("backend_latency_s must be non-negative")
