"""Row-range partitioned tables: the out-of-core dataset substrate.

A :class:`PartitionedTable` is an ordered list of row-range shards of
one logical table.  Each shard is either a materialized
:class:`~repro.data.table.Table` or a zero-argument *source* callable
producing one on demand — the latter is what makes datasets larger than
memory workable: the coordinator never has to hold more than one shard
(plus combined partial statistics) at a time, and each shard-map node
(see :mod:`repro.engine.sharding`) loads its own shard where it runs.

Identity is compositional: every shard has its own content fingerprint
(:func:`~repro.store.table_fingerprint`), and the dataset fingerprint
hashes the schema signature plus the ordered shard fingerprints — so
editing one shard changes exactly that shard's fingerprint (and the
dataset's), which is what lets an incremental sharded re-audit recompute
only the touched shard.  ``partition`` / ``concat`` round-trip exactly:
``PartitionedTable.partition(t, n).concat()`` carries byte-identical
column content to ``t``.

The module also ships :func:`merge_counts`, the mergeable summary the
sharded confidentiality combine builds on: contingency-style integer
counts merge *exactly* (integer addition is associative).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from repro.data.table import Table
from repro.exceptions import DataError, SchemaError


def _signature(schema) -> list[tuple]:
    return [(spec.name, spec.ctype, spec.role) for spec in schema]


class PartitionedTable:
    """An ordered list of row-range shards of one logical table.

    Parameters
    ----------
    shards:
        Tables, or zero-argument callables returning a table (lazy
        sources for out-of-core datasets).  At least one is required.
    schema:
        The shared schema.  Optional when any shard is already a
        materialized table (its schema is adopted); required when every
        shard is lazy.
    shard_rows:
        Optional per-shard row counts, letting ``n_rows`` answer
        without loading lazy shards.

    Every shard must carry an identical schema *signature* (column
    names, types, and FACT roles) — materialized shards are validated
    at construction, lazy ones on first load.
    """

    def __init__(self, shards: Sequence[Table | Callable[[], Table]],
                 schema=None,
                 shard_rows: Sequence[int] | None = None):
        shards = tuple(shards)
        if not shards:
            raise DataError("a PartitionedTable needs at least one shard")
        for shard in shards:
            if not isinstance(shard, Table) and not callable(shard):
                raise DataError(
                    "shards must be Tables or zero-argument callables, "
                    f"got {type(shard).__name__}"
                )
        if schema is None:
            for shard in shards:
                if isinstance(shard, Table):
                    schema = shard.schema
                    break
            else:
                raise SchemaError(
                    "every shard is lazy; pass the shared schema explicitly"
                )
        self._shards = shards
        self._schema = schema
        self._sig = _signature(schema)
        self._rows: list[int | None] = (
            [int(n) for n in shard_rows] if shard_rows is not None
            else [None] * len(shards)
        )
        if len(self._rows) != len(shards):
            raise DataError(
                f"shard_rows has {len(self._rows)} entries for "
                f"{len(shards)} shards"
            )
        self._fps: list[str | None] = [None] * len(shards)
        for index, shard in enumerate(shards):
            if isinstance(shard, Table):
                self._validate(index, shard)
                self._rows[index] = shard.n_rows

    # -- construction --------------------------------------------------------

    @classmethod
    def partition(cls, table: Table, n_shards: int | None = None,
                  max_rows: int | None = None) -> "PartitionedTable":
        """Split ``table`` into contiguous row-range shards.

        Exactly one of ``n_shards`` (that many near-equal shards, the
        first ``n_rows % n_shards`` one row larger) or ``max_rows``
        (ceil(n/max) shards of at most ``max_rows`` rows) must be
        given.  Shards are zero-copy row-range views of the table's
        columns; ``concat()`` restores byte-identical content.
        """
        if (n_shards is None) == (max_rows is None):
            raise DataError("give exactly one of n_shards or max_rows")
        n = table.n_rows
        if n_shards is not None:
            n_shards = int(n_shards)
            if not 1 <= n_shards <= max(n, 1):
                raise DataError(
                    f"n_shards must be in [1, {max(n, 1)}], got {n_shards}"
                )
            base, remainder = divmod(n, n_shards)
            sizes = [base + (1 if i < remainder else 0)
                     for i in range(n_shards)]
        else:
            max_rows = int(max_rows)
            if max_rows < 1:
                raise DataError(f"max_rows must be >= 1, got {max_rows}")
            sizes = [max_rows] * (n // max_rows)
            if n % max_rows or not sizes:
                sizes.append(n % max_rows if n else 0)
        shards = []
        start = 0
        for size in sizes:
            shards.append(table.slice(start, start + size))
            start += size
        return cls(shards, schema=table.schema)

    @classmethod
    def from_sources(cls, sources: Sequence[Callable[[], Table]], schema, *,
                     shard_rows: Sequence[int] | None = None,
                     ) -> "PartitionedTable":
        """A fully lazy partitioned table (the out-of-core entry point).

        Each source is loaded on demand and must return a table with the
        declared ``schema`` signature.  Sources should be *pure*: loads
        must return identical content every time, or fingerprints (and
        cache keys derived from them) are meaningless.
        """
        return cls(tuple(sources), schema=schema, shard_rows=shard_rows)

    # -- shard access --------------------------------------------------------

    @property
    def schema(self):
        """The schema every shard shares."""
        return self._schema

    @property
    def n_shards(self) -> int:
        """How many row-range shards the dataset holds."""
        return len(self._shards)

    @property
    def n_rows(self) -> int:
        """Total rows across shards (loads lazy shards once to count)."""
        total = 0
        for index in range(self.n_shards):
            rows = self._rows[index]
            if rows is None:
                self.shard(index)  # load once; records the count
                rows = self._rows[index]
            total += rows
        return total

    def shard_n_rows(self, index: int) -> int:
        """Row count of one shard (loads a lazy shard once to count)."""
        if self._rows[index] is None:
            self.shard(index)
        return self._rows[index]

    def shard(self, index: int) -> Table:
        """Materialize shard ``index`` (validated against the schema).

        Lazy shards are loaded on every call — deliberately: caching
        materialized tables here would defeat the out-of-core memory
        bound.  Only metadata (row count, fingerprint) is remembered.
        """
        source = self._shards[index]
        table = source if isinstance(source, Table) else source()
        if not isinstance(table, Table):
            raise DataError(
                f"shard source {index} returned a "
                f"{type(table).__name__}, not a Table"
            )
        self._validate(index, table)
        self._rows[index] = table.n_rows
        return table

    def shards(self) -> Iterator[Table]:
        """Iterate the shards in order (one materialized at a time)."""
        for index in range(self.n_shards):
            yield self.shard(index)

    def concat(self) -> Table:
        """The whole logical table, materialized.

        Round-trips exactly: ``partition(t, n).concat()`` carries
        byte-identical column content (and hence the same
        ``table_fingerprint``) as ``t``.
        """
        return Table.concat(self.shards())

    def replaced(self, index: int, shard: Table | Callable[[], Table],
                 n_rows: int | None = None) -> "PartitionedTable":
        """A new dataset with shard ``index`` swapped out.

        The edited shard gets a fresh fingerprint; every other shard
        keeps its cached one — the incremental re-audit primitive.
        """
        if not 0 <= index < self.n_shards:
            raise DataError(
                f"shard index {index} out of range [0, {self.n_shards})"
            )
        shards = list(self._shards)
        shards[index] = shard
        replacement = PartitionedTable.__new__(PartitionedTable)
        replacement._shards = tuple(shards)
        replacement._schema = self._schema
        replacement._sig = self._sig
        replacement._rows = list(self._rows)
        replacement._rows[index] = n_rows
        replacement._fps = list(self._fps)
        replacement._fps[index] = None
        if isinstance(shard, Table):
            replacement._validate(index, shard)
            replacement._rows[index] = shard.n_rows
        return replacement

    # -- identity ------------------------------------------------------------

    def shard_fingerprints(self) -> tuple[str, ...]:
        """Per-shard content fingerprints, in shard order.

        Computed lazily (a lazy shard is loaded once, hashed, and
        released) and cached — the store/engine only ask when a cache
        key is actually needed.
        """
        from repro.store.fingerprint import table_fingerprint

        for index in range(self.n_shards):
            if self._fps[index] is None:
                self._fps[index] = table_fingerprint(self.shard(index))
        return tuple(self._fps)

    def shard_fingerprint(self, index: int) -> str:
        """The content fingerprint of one shard."""
        from repro.store.fingerprint import table_fingerprint

        if self._fps[index] is None:
            self._fps[index] = table_fingerprint(self.shard(index))
        return self._fps[index]

    def __content_fingerprint__(self) -> str:
        """Dataset fingerprint: schema signature + ordered shard prints.

        Composes per-shard content hashes, so the dataset identity is a
        pure function of (schema, shard contents, shard order) — the
        partition *layout* is part of the identity, which is what keys
        shard-level cache entries correctly.
        """
        from repro.store.fingerprint import fingerprint

        return fingerprint(
            kind="partitioned_table",
            schema=[(name, ctype.value, role.value)
                    for name, ctype, role in self._sig],
            shards=list(self.shard_fingerprints()),
        )

    # -- internals -----------------------------------------------------------

    def _validate(self, index: int, table: Table) -> None:
        if _signature(table.schema) != self._sig:
            raise SchemaError(
                f"shard {index} disagrees with the partition schema "
                f"(names, types, and FACT roles must all match): "
                f"{table.schema.names} vs {self._schema.names}"
            )
        known = self._rows[index]
        if known is not None and table.n_rows != known:
            raise DataError(
                f"shard {index} loaded {table.n_rows} rows, "
                f"declared {known}"
            )

    def __repr__(self) -> str:
        rows = sum(r for r in self._rows if r is not None)
        counted = all(r is not None for r in self._rows)
        return (f"PartitionedTable({self.n_shards} shards, "
                f"{rows if counted else f'>={rows}'} rows, "
                f"columns={self._schema.names})")


def partition(table: Table, n_shards: int | None = None,
              max_rows: int | None = None) -> PartitionedTable:
    """Module-level alias of :meth:`PartitionedTable.partition`."""
    return PartitionedTable.partition(table, n_shards=n_shards,
                                      max_rows=max_rows)


# -- mergeable summaries ------------------------------------------------------


def merge_counts(mappings) -> dict:
    """Sum contingency-style integer count mappings — an *exact* merge.

    The merged dict iterates in first-seen key order (shard order), but
    every statistic derived from class counts in this codebase (min,
    integer sums, exact integer means) is order-insensitive, so shard
    order never reaches the results.
    """
    merged: dict = {}
    for mapping in mappings:
        for key, count in mapping.items():
            merged[key] = merged.get(key, 0) + int(count)
    return merged
