"""Storage backends for the artifact store: in-memory and on-disk JSON.

Backends speak one tiny protocol — ``get``/``contains``/``put``/
``delete``/``keys``/``clear``/``__len__``/``total_bytes`` over *text*
payloads — so the :class:`~repro.store.store.ArtifactStore` owns all
semantics (encoding, corruption recovery, tag invalidation, telemetry)
and backends own only placement and eviction.

Both backends are size-bounded LRU: ``max_entries`` caps the key count
and ``max_bytes`` caps the summed payload size, and eviction only ever
costs a future recompute, never correctness — exactly the bargain the
serve layer's :class:`~repro.serve.cache.AnswerCache` already makes.
"""

from __future__ import annotations

import os
import tempfile
import threading
from collections import OrderedDict

from repro.exceptions import DataError

#: Default byte budget (64 MiB) — generous for report-sized artifacts,
#: small enough that a store never dominates a host's memory.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


class MemoryBackend:
    """Bounded in-process LRU of JSON payloads."""

    def __init__(self, max_entries: int = 4096,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        if max_entries < 1:
            raise DataError("max_entries must be at least 1")
        if max_bytes < 1:
            raise DataError("max_bytes must be at least 1")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, str] = OrderedDict()
        self._bytes = 0

    def get(self, key: str) -> str | None:
        with self._lock:
            text = self._entries.get(key)
            if text is not None:
                self._entries.move_to_end(key)
            return text

    def contains(self, key: str) -> bool:
        """Presence without the payload; refreshes recency like ``get``."""
        with self._lock:
            if key not in self._entries:
                return False
            self._entries.move_to_end(key)
            return True

    def put(self, key: str, text: str) -> None:
        size = len(text.encode("utf-8"))
        if size > self.max_bytes:
            return  # larger than the whole budget: never cacheable
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= len(old.encode("utf-8"))
            self._entries[key] = text
            self._bytes += size
            while (len(self._entries) > self.max_entries
                   or self._bytes > self.max_bytes):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted.encode("utf-8"))
                self.evictions += 1

    def delete(self, key: str) -> None:
        with self._lock:
            text = self._entries.pop(key, None)
            if text is not None:
                self._bytes -= len(text.encode("utf-8"))

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes


class JsonDirBackend:
    """One JSON file per artifact under ``path``; survives processes.

    Writes are atomic (temp file + ``os.replace``), so a crashed writer
    leaves either the old entry or the new one, never a torn file.  A
    *truncated or tampered* file can still appear out-of-band; the store
    treats any unreadable entry as a miss and deletes it — a cache must
    recompute on corruption, never crash (regression-tested).

    LRU order is tracked by file modification time: reads re-touch their
    entry, eviction removes the stalest files first.
    """

    def __init__(self, path: str, max_entries: int = 4096,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        if max_entries < 1:
            raise DataError("max_entries must be at least 1")
        if max_bytes < 1:
            raise DataError("max_bytes must be at least 1")
        self.path = str(path)
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.evictions = 0
        self._lock = threading.Lock()
        os.makedirs(self.path, exist_ok=True)

    def _file(self, key: str) -> str:
        safe = "".join(
            char if char.isalnum() or char in "-_" else "-" for char in key
        )
        return os.path.join(self.path, f"{safe}.json")

    def get(self, key: str) -> str | None:
        target = self._file(key)
        with self._lock:
            try:
                with open(target, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError:
                return None
            try:
                os.utime(target)  # refresh LRU recency
            except OSError:
                pass
            return text

    def contains(self, key: str) -> bool:
        """Presence without reading the file; refreshes recency like get."""
        with self._lock:
            try:
                os.utime(self._file(key))  # a missing entry raises
            except OSError:
                return False
            return True

    def put(self, key: str, text: str) -> None:
        if len(text.encode("utf-8")) > self.max_bytes:
            return
        with self._lock:
            descriptor, temp_path = tempfile.mkstemp(
                dir=self.path, suffix=".tmp"
            )
            try:
                with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(temp_path, self._file(key))
            except OSError:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
            self._evict_locked()

    def _entries_by_age(self) -> list[tuple[float, str, int]]:
        entries = []
        for name in os.listdir(self.path):
            if not name.endswith(".json"):
                continue
            target = os.path.join(self.path, name)
            try:
                stat = os.stat(target)
            except OSError:
                continue
            entries.append((stat.st_mtime, target, stat.st_size))
        entries.sort()
        return entries

    def _evict_locked(self) -> None:
        entries = self._entries_by_age()
        total = sum(size for _, _, size in entries)
        index = 0
        while entries[index:] and (
            len(entries) - index > self.max_entries
            or total > self.max_bytes
        ):
            _, target, size = entries[index]
            try:
                os.unlink(target)
                self.evictions += 1
            except OSError:
                pass
            total -= size
            index += 1

    def delete(self, key: str) -> None:
        with self._lock:
            try:
                os.unlink(self._file(key))
            except OSError:
                pass

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(
                name[:-len(".json")] for name in os.listdir(self.path)
                if name.endswith(".json")
            )

    def clear(self) -> None:
        with self._lock:
            for name in os.listdir(self.path):
                if name.endswith(".json"):
                    try:
                        os.unlink(os.path.join(self.path, name))
                    except OSError:
                        pass

    def __len__(self) -> int:
        return len(self.keys())

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(size for _, _, size in self._entries_by_age())
