"""``repro.store`` — content-addressed artifacts + incremental re-audits.

The paper's Accuracy and Transparency questions both demand results that
are *reproducible and attributable*: an auditor re-running a FACT audit
after a small change must get byte-identical answers for everything the
change did not touch, and a short proof (a fingerprint) that they did.
This package is that machinery:

* :mod:`repro.store.fingerprint` — **one** canonicalisation for the
  whole system.  The query planner, the answer cache, the provenance
  graph's consumers, and every memoised stage key on the same
  ``fingerprint(**parts)`` of (data content, parameters, code version).
* :class:`ArtifactStore` — a size-bounded LRU cache (in-memory or
  on-disk JSON) whose entries replay bit-identically or not at all;
  corruption is a counted miss, never a crash.
* :class:`Artifact` — the ``to_dict()/to_json()/fingerprint()`` mixin
  adopted by every report-like document (model card, datasheet,
  fairness report, FACT report, green scorecard).

Wired into ``FACTAuditor`` and ``Pipeline`` via a ``store=`` keyword:
both run a :mod:`repro.engine` plan, and the engine's node cache is the
one memo layer (the helpers an audit section calls cache nothing of
their own).  ``store=None`` defers to the ``REPRO_STORE`` environment
variable — mirroring the ``REPRO_N_JOBS`` convention — which names a
cache directory (on-disk), ``memory``/``:memory:`` (process-local), or
is unset (no caching)::

    REPRO_STORE=/tmp/fact-cache python audit.py     # warm across runs
    REPRO_STORE=memory python audit.py              # warm within a run

or explicitly::

    store = ArtifactStore.on_disk("/tmp/fact-cache")
    report = FACTAuditor(store=store).audit(model, test, rng)
    report.fingerprint()        # attributable: one hash, same bytes
"""

from __future__ import annotations

import os

from repro.store.artifact import Artifact
from repro.store.backend import (
    DEFAULT_MAX_BYTES,
    JsonDirBackend,
    MemoryBackend,
)
from repro.store.fingerprint import (
    array_fingerprint,
    canonical,
    code_fingerprint,
    dataset_fingerprint,
    fingerprint,
    object_fingerprint,
    table_fingerprint,
)
from repro.store.store import (
    ArtifactStore,
    Spilled,
    resolve_spilled,
    rng_state,
    set_rng_state,
)

#: Environment variable consulted when ``store=None`` (the sibling of
#: ``REPRO_N_JOBS``): a directory path, ``memory``/``:memory:``, or unset.
STORE_ENV = "REPRO_STORE"

#: Process-global stores per ``$REPRO_STORE`` target, so every call site
#: resolving the same target shares one cache (and its statistics).
_ENV_STORES: dict[str, ArtifactStore] = {}


def resolve_store(store: ArtifactStore | None) -> ArtifactStore | None:
    """An explicit store wins; ``None`` defers to ``$REPRO_STORE``.

    Returns ``None`` (caching off) when neither is given — the exact
    resolution ladder :func:`repro.parallel.resolve_n_jobs` uses for
    worker counts, applied to caching.
    """
    if store is not None:
        return store
    target = os.environ.get(STORE_ENV, "").strip()
    if not target:
        return None
    if target not in _ENV_STORES:
        if target in ("memory", ":memory:"):
            _ENV_STORES[target] = ArtifactStore(MemoryBackend(), name="env")
        else:
            _ENV_STORES[target] = ArtifactStore(
                JsonDirBackend(target), name="env"
            )
    return _ENV_STORES[target]


__all__ = [
    "Artifact",
    "ArtifactStore",
    "DEFAULT_MAX_BYTES",
    "JsonDirBackend",
    "MemoryBackend",
    "STORE_ENV",
    "Spilled",
    "array_fingerprint",
    "canonical",
    "code_fingerprint",
    "dataset_fingerprint",
    "fingerprint",
    "object_fingerprint",
    "resolve_spilled",
    "resolve_store",
    "rng_state",
    "set_rng_state",
    "table_fingerprint",
]
