"""The DP answer cache: free post-processing as a systems optimisation.

Differential privacy is closed under post-processing: once a noisy
answer has been released, repeating it verbatim reveals nothing new and
costs **zero** additional ε.  For a serving workload — where popular
queries repeat heavily — replaying released answers is simultaneously
the biggest privacy-budget optimisation and the biggest latency
optimisation available, and it is *exact*, not approximate.

The cache is keyed on the planner's canonical query fingerprint, which
folds in the table version, the query parameters, **and ε** — a repeat
of the same aggregate at a different ε is a different release and must
be recomputed (its noise scale differs).  Answers are shared across
tenants by default: a released answer is public information, so tenant B
replaying tenant A's release leaks nothing and pays nothing.  Pass
``scope="tenant"`` for deployments whose answers must stay siloed.

Bounded LRU: ``max_entries`` caps memory; eviction only ever costs
budget (a future re-ask recomputes), never correctness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.exceptions import DataError

#: Cache sharing scopes.
SCOPE_GLOBAL = "global"
SCOPE_TENANT = "tenant"


@dataclass(frozen=True)
class CachedAnswer:
    """One released noisy answer, replayable at zero ε-cost."""

    fingerprint: str
    value: float | dict
    epsilon: float  # what the original release cost (informational)

    def replay(self) -> float | dict:
        """The released value (dicts are copied; the cache stays immutable)."""
        return dict(self.value) if isinstance(self.value, dict) else self.value


class AnswerCache:
    """Thread-safe bounded LRU of released DP answers."""

    def __init__(self, max_entries: int = 4096, scope: str = SCOPE_GLOBAL):
        if max_entries < 1:
            raise DataError("max_entries must be at least 1")
        if scope not in (SCOPE_GLOBAL, SCOPE_TENANT):
            raise DataError(f"scope must be 'global' or 'tenant', got {scope!r}")
        self.max_entries = int(max_entries)
        self.scope = scope
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CachedAnswer] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _key(self, fingerprint: str, tenant: str) -> tuple:
        if self.scope == SCOPE_TENANT:
            return (tenant, fingerprint)
        return (fingerprint,)

    def get(self, fingerprint: str, tenant: str = "") -> CachedAnswer | None:
        """The cached release for ``fingerprint``, or ``None`` (counts stats)."""
        key = self._key(fingerprint, tenant)
        with self._lock:
            answer = self._entries.get(key)
            if answer is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return answer

    def put(self, fingerprint: str, value: float | dict, epsilon: float,
            tenant: str = "") -> CachedAnswer:
        """Record a fresh release (idempotent per key; LRU-evicts at capacity)."""
        frozen = dict(value) if isinstance(value, dict) else float(value)
        answer = CachedAnswer(fingerprint, frozen, float(epsilon))
        key = self._key(fingerprint, tenant)
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = answer
            self._entries.move_to_end(key)
        return answer

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses), 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Counters for telemetry and the CLI summary."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }
