"""The content-addressed artifact store (tentpole of the caching layer).

An :class:`ArtifactStore` maps canonical fingerprints — of (data
content, parameters, code version), see
:mod:`repro.store.fingerprint` — to exactly-serialised artifacts.  Its
promise is the paper's reproducibility demand made mechanical: an
unchanged computation replays **the same bytes** it produced last time,
and a changed one recomputes, because its fingerprint changed.

Three behaviours make it safe to put in front of real results:

* **Exact replay** — values travel through :mod:`repro.store.codec`,
  which refuses to store anything it cannot restore bit-identically.
* **Corruption = miss** — an unreadable or undecodable entry (truncated
  file, tampered payload) is deleted, counted, and recomputed.  The
  store never crashes a pipeline and never replays garbage.
* **RNG continuity** — :meth:`memoize` keys on the generator state
  *before* the computation and, on a hit, restores the state recorded
  *after* it.  Downstream code that shares the generator then draws the
  same stream whether the stage was replayed or recomputed — this is
  what makes *incremental* re-audits bit-identical end to end.

Hit/miss/byte traffic is mirrored into :mod:`repro.obs` counters
(``store.hits``, ``store.misses``, ``store.puts``, ``store.corruptions``,
``store.bytes_written``, ``store.bytes_read``) whenever telemetry is
configured.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable

import numpy as np

from repro import obs
from repro.exceptions import DataError
from repro.store import codec
from repro.store.backend import JsonDirBackend, MemoryBackend
from repro.store.fingerprint import fingerprint, hash_bytes

_MISS = object()


@functools.lru_cache(maxsize=1 << 14)
def _field_key(key: str, name: str) -> str:
    """The store key of one spilled field, derived once per (key, field).

    A warm re-audit probes every field of every shard on every run; the
    keys are a pure function of the node key and the field name, so a
    bounded cache answers them instead of re-hashing.
    """
    return hash_bytes(f"{key}\x1f{name}".encode("utf-8"))


class Spilled:
    """A by-reference handle to a partial left in a store, field by field.

    Spill-enabled engine nodes (:mod:`repro.engine.sharding`) return a
    dict of declared ``fields``, commit each field as its own store
    entry, and hand *this* downstream instead of the value itself —
    partial shard results persist as artifacts between plan levels, so
    the coordinator's peak memory is bounded by one shard plus the
    combined partials, and a warm re-run replays the handle without
    ever decoding a payload.  The handle names the store it points
    into, so consumers resolve it with :func:`resolve_spilled` alone
    (one partial at a time, in shard order), reading only the fields
    they declared.

    Each field's entry lives under :meth:`field_key`, a hex digest of
    the node's ``key`` and the field name; nothing is stored under
    ``key`` itself.  The content fingerprint hashes ``key``: the key
    *is* the value's content-derived identity (a cache digest over
    code, params, and input fingerprints), so downstream cache keys stay
    stable across cold and warm runs.  The producer may also leave the
    value it just committed in ``held``; :func:`resolve_spilled` then
    serves the fields from it without decoding any entry back.
    """

    __slots__ = ("key", "store", "fields", "held")

    def __init__(self, key: str, store: "ArtifactStore",
                 fields: tuple[str, ...]):
        self.key = str(key)
        self.store = store
        self.fields = tuple(fields)
        self.held = None

    def field_key(self, name: str) -> str:
        """The store key of field ``name``'s entry."""
        return _field_key(self.key, name)

    def commit(self, value: dict, tags: tuple[str, ...]) -> None:
        """Put each field of ``value`` as its own entry, with ``tags``."""
        for name in self.fields:
            self.store.put(self.field_key(name), value[name], tags=tags)

    def read(self, name: str):
        """Field ``name`` decoded from its entry.

        A missing or corrupted entry raises :class:`DataError` naming
        the spilled node's key and the field.
        """
        resolved = self.store.get(self.field_key(name), _MISS)
        if resolved is _MISS:
            raise DataError(
                f"field {name!r} of spilled partial {self.key} has "
                "vanished from the store; clear the cache and re-run"
            )
        return resolved

    def present(self) -> bool:
        """Whether every field's entry is in the store.

        One counted :meth:`ArtifactStore.probe` over the field entries:
        no payload is read, and each present entry's recency refreshes.
        """
        return self.store.probe(*map(self.field_key, self.fields))

    def __content_fingerprint__(self) -> str:
        return fingerprint(spilled=self.key)

    def __repr__(self) -> str:
        return f"Spilled({self.key!r}, fields={list(self.fields)})"


def resolve_spilled(value, fields: tuple[str, ...] | None = None):
    """``value`` itself, or the partial behind a :class:`Spilled` ref.

    With ``fields`` the result is a dict of exactly those fields, read
    from the held value, the store (one entry per field) or a raw dict
    alike; without, a ref resolves to every field it spilled and any
    other value passes through.  A missing or corrupted field entry
    raises :class:`DataError` (see :meth:`Spilled.read`) — a spilled
    partial has no recompute path of its own (its producing node
    already reported a hit), so silently recomputing downstream would
    replay garbage.
    """
    if isinstance(value, Spilled):
        if fields is None:
            fields = value.fields
        if value.held is None:
            return {name: value.read(name) for name in fields}
        value = value.held
    if fields is None:
        return value
    return {name: value[name] for name in fields}


def rng_state(rng: np.random.Generator) -> dict:
    """A copyable snapshot of ``rng``'s bit-generator state."""
    return rng.bit_generator.state


def set_rng_state(rng: np.random.Generator, state: dict) -> None:
    """Restore a snapshot taken by :func:`rng_state`."""
    rng.bit_generator.state = state


class ArtifactStore:
    """Fingerprint-keyed cache of exactly-replayable artifacts.

    Parameters
    ----------
    backend:
        A :class:`~repro.store.backend.MemoryBackend` (default) or
        :class:`~repro.store.backend.JsonDirBackend`; anything speaking
        the same text get/put/contains protocol works.
    name:
        Label attached to this store's telemetry counters, so several
        stores in one process stay distinguishable.
    """

    def __init__(self, backend=None, name: str = "store"):
        self.backend = backend if backend is not None else MemoryBackend()
        self.name = str(name)
        self._lock = threading.Lock()
        self._tags: dict[str, set[str]] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corruptions = 0
        self.bytes_written = 0
        self.bytes_read = 0

    @classmethod
    def in_memory(cls, max_entries: int = 4096, **kwargs) -> "ArtifactStore":
        """A process-local store (the fastest warm path)."""
        return cls(MemoryBackend(max_entries=max_entries), **kwargs)

    @classmethod
    def on_disk(cls, path: str, **kwargs) -> "ArtifactStore":
        """A store that survives the process (one JSON file per entry)."""
        return cls(JsonDirBackend(path), **kwargs)

    # -- raw get/put ---------------------------------------------------------

    def get(self, key: str, default=None):
        """The artifact stored under ``key``, or ``default``.

        Undecodable entries are deleted and reported as misses — a cache
        recomputes on corruption, it never crashes or replays garbage.
        """
        value, _ = self._replay(key)
        if value is _MISS:
            self._count("misses")
            return default
        return value

    def put(self, key: str, value, tags: tuple[str, ...] = (),
            extra: dict | None = None) -> str:
        """Store ``value`` under ``key`` (encoded exactly); returns ``key``.

        ``tags`` name the inputs the artifact depends on (e.g. a table);
        :meth:`invalidate_tag` later drops every dependent entry at once.
        """
        envelope = {"key": key, "tags": list(tags), "value": value}
        if extra:
            envelope.update(extra)
        text = codec.dumps(envelope)
        self.backend.put(key, text)
        with self._lock:
            for tag in tags:
                self._tags.setdefault(str(tag), set()).add(key)
        self._count("puts")
        self._count_bytes("bytes_written", len(text))
        return key

    def __contains__(self, key: str) -> bool:
        return self.backend.contains(key)

    def probe(self, *keys: str) -> bool:
        """Counted presence check of one artifact that never reads it.

        The spill path's hit test, over every entry of the artifact: if
        all ``keys`` are present it counts one hit, else one miss (at
        the first absent key) — the same accounting one :meth:`get`
        would produce — but the (possibly large) payloads stay on disk
        untouched.  Like a read, it refreshes each present entry's LRU
        recency: a probed partial is about to be resolved.
        """
        if all(self.backend.contains(key) for key in keys):
            self._count("hits")
            return True
        self._count("misses")
        return False

    def __len__(self) -> int:
        return len(self.backend)

    # -- memoization ---------------------------------------------------------

    def _replay(self, key: str):
        """``(value, rng_after)`` stored under ``key``, or ``(_MISS, None)``.

        Every read decodes here: a hit counts a hit and its bytes, and
        an undecodable entry is deleted and counts a corruption.  A miss
        is left to the caller — :meth:`get` and the memoize paths each
        count exactly one hit or one miss per lookup.
        """
        text = self.backend.get(key)
        if text is None:
            return _MISS, None
        try:
            envelope = codec.loads(text)
            value = envelope["value"]
            state_after = envelope.get("rng_after")
        except (DataError, KeyError, TypeError, ValueError):
            self.backend.delete(key)
            self._count("corruptions")
            return _MISS, None
        self._count("hits")
        self._count_bytes("bytes_read", len(text))
        return value, state_after

    def memoize(self, parts: dict, compute: Callable[[], object],
                rng: np.random.Generator | None = None,
                tags: tuple[str, ...] = ()):
        """Replay ``compute()``'s result for ``parts``, or run and store it.

        ``parts`` is the canonical identity of the computation — data
        fingerprints, parameters, a code fingerprint.  When ``rng`` is
        given its *pre-call* state joins the key, and its *post-call*
        state is stored and restored on hits, so code after a replayed
        stage draws exactly the stream it would have after a recompute.
        """
        key_parts = dict(parts)
        if rng is not None:
            key_parts["rng"] = rng_state(rng)
        value, _ = self._memoize(fingerprint(**key_parts), compute,
                                 rng=rng, tags=tags)
        return value

    def memoize_with_status(self, compute: Callable[[], object], *,
                            key: str,
                            rng: np.random.Generator | None = None,
                            tags=()):
        """:meth:`memoize` on a precomputed digest; reports hit or miss.

        The engine's entry point for shared-rng nodes: ``key`` is a full
        cache digest (e.g. :meth:`repro.engine.Node.key`).  ``tags`` may
        be a zero-argument callable, evaluated only on a miss.  When
        ``rng`` is given, its pre-call state is folded into the digest
        and its post-call state restored on hits, exactly as in
        :meth:`memoize`.

        Returns ``(value, "hit" | "miss")``.
        """
        if rng is not None:
            key = fingerprint(key=key, rng=rng_state(rng))
        return self._memoize(key, compute, rng=rng, tags=tags)

    def _memoize(self, key: str, compute: Callable[[], object],
                 rng: np.random.Generator | None = None, tags=()):
        value, state_after = self._replay(key)
        if value is not _MISS:
            if rng is not None and state_after is not None:
                set_rng_state(rng, state_after)
            return value, "hit"
        self._count("misses")
        value = compute()
        extra = {}
        if rng is not None:
            extra["rng_after"] = rng_state(rng)
        resolved_tags = tuple(tags() if callable(tags) else tags)
        self.put(key, value, tags=resolved_tags, extra=extra)
        return value, "miss"

    # -- invalidation --------------------------------------------------------

    def invalidate(self, key: str) -> None:
        """Drop one entry (a later ask recomputes)."""
        self.backend.delete(key)

    def invalidate_tag(self, tag: str) -> int:
        """Drop every artifact put with ``tag``; returns how many.

        This is how re-registering a table kills its dependent results:
        artifacts stored with ``tags=(f"table:{name}",)`` all vanish in
        one call, the store-side analogue of the planner folding the
        table version into every query fingerprint.
        """
        with self._lock:
            keys = self._tags.pop(str(tag), set())
        for key in keys:
            self.backend.delete(key)
        return len(keys)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self.backend.clear()
        with self._lock:
            self._tags.clear()

    # -- accounting ----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses), 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Counters for telemetry and bench tables."""
        return {
            "entries": len(self.backend),
            "bytes": self.backend.total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": getattr(self.backend, "evictions", 0),
            "corruptions": self.corruptions,
            "hit_rate": self.hit_rate,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
        }

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)
        telemetry = obs.get()
        if telemetry is not None:
            telemetry.metrics.counter(
                f"store.{counter}", store=self.name
            ).inc()

    def _count_bytes(self, counter: str, amount: int) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + int(amount))
        telemetry = obs.get()
        if telemetry is not None:
            telemetry.metrics.counter(
                f"store.{counter}", store=self.name
            ).inc(int(amount))
