"""Query planning: validate, normalize, canonicalize.

The planner owns the table registry and turns a raw
:class:`~repro.serve.protocol.QueryRequest` into an executable
:class:`QueryPlan` — or raises :class:`~repro.exceptions.DataError` with
a message the server converts into a structured rejection.  The planner
checks the request's shape against the registered schema; what makes a
release valid (ε, finite bounds, q, bins) is
:class:`~repro.confidentiality.queries.DPQuery`'s to decide.

Canonicalization matters because the answer cache is keyed on the plan's
**fingerprint**: two requests that mean the same release (same table
*version*, kind, column, parameters, ε) must hash identically, so bins
are sorted and deduplicated, floats are normalized through ``repr``, and
the registered table's version is folded in (re-registering a table
invalidates every cached answer computed from the old rows — replaying
those would be answering about data that no longer exists).

A plan's fingerprint is :func:`repro.store.fingerprint.fingerprint` of
the canonical query identity, the system-wide canonicalisation shared
with the artifact store.  The digests must never drift, so previously
cached answers keep replaying (pinned in ``tests/test_store.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.confidentiality.queries import BOUNDED_KINDS, DPQuery
from repro.data.schema import ColumnType
from repro.data.table import Table
from repro.exceptions import DataError
from repro.serve.protocol import KINDS, QueryRequest
from repro.store.fingerprint import fingerprint


@dataclass(frozen=True, kw_only=True)
class QueryPlan(DPQuery):
    """A validated, normalized, executable query.

    The release's :class:`~repro.confidentiality.queries.DPQuery` plus
    where its data lives and its fingerprint.
    """

    table: str
    table_version: int
    delta: float
    column: str | None
    fingerprint: str

    @property
    def group_key(self) -> tuple:
        """The batching compatibility key: queries that may coalesce.

        Two plans with equal group keys read the same table version
        through the same mechanism with the same clipping bounds — the
        data-plane work (scan, clip, bin counts, candidate utilities)
        is identical, so one vectorized pass can serve every member and
        only the per-member noise draw differs.  ε, δ, and tenant are
        deliberately *not* part of the key: they change the noise scale
        and the ledger charged, never the shared statistics.
        """
        return (self.table, self.table_version, self.kind, self.column,
                self.lower, self.upper, self.q, self.bins)


class QueryPlanner:
    """Registry of servable tables plus request validation/normalization.

    The registry itself is a :class:`repro.relational.SchemaRegistry`;
    passing ``store=`` makes re-registration invalidate the old rows'
    ``table:<fingerprint>`` artifacts alongside the version bump that
    already invalidates cached *answers*.
    """

    #: Bound on the memoized-plan LRU (distinct request shapes).
    PLAN_CACHE_ENTRIES = 4096

    def __init__(self, store=None):
        from repro.relational.registry import SchemaRegistry

        self._registry = SchemaRegistry(store=store)
        # Planning is pure given the registry state, so identical
        # request shapes reuse the validated plan (and its sha256
        # fingerprint) instead of re-hashing on every submission — the
        # serving hot path plans in one dict probe.  ``_generation``
        # bumps on any (re-)registration, invalidating every entry.
        self._plan_lock = threading.Lock()
        self._plan_cache: OrderedDict[tuple, QueryPlan] = OrderedDict()
        self._generation = 0

    # -- table registry -----------------------------------------------------

    @property
    def _tables(self) -> dict[str, Table]:
        return self._registry.tables

    @property
    def _versions(self) -> dict[str, int]:
        return self._registry.versions

    def register_table(self, name: str, table: Table) -> None:
        """Make ``table`` servable as ``name`` (re-registering bumps its version)."""
        self._registry.register_table(name, table)
        self._invalidate_plans()

    def register_dataset(self, dataset) -> list[str]:
        """Make every member table of a relational dataset servable."""
        names = self._registry.register_dataset(dataset)
        self._invalidate_plans()
        return names

    def _invalidate_plans(self) -> None:
        with self._plan_lock:
            self._generation += 1
            self._plan_cache.clear()

    @property
    def table_names(self) -> list[str]:
        """Registered table names, in registration order."""
        return self._registry.table_names

    def table(self, name: str) -> Table:
        """The registered table called ``name``."""
        return self._registry.table(name)

    def table_version(self, name: str) -> int:
        """How many times ``name`` has been (re-)registered."""
        return self._registry.version(name)

    # -- planning -----------------------------------------------------------

    def plan(self, request: QueryRequest) -> QueryPlan:
        """Validate and canonicalize one request into a :class:`QueryPlan`.

        Identical request shapes (tenant aside — plans are
        tenant-independent) replay the memoized plan; any table
        (re-)registration invalidates the memo wholesale.
        """
        if not str(request.tenant).strip():
            raise DataError("tenant must be non-empty")
        try:
            key = (request.kind, request.table, request.column,
                   request.lower, request.upper, request.q,
                   tuple(request.bins), request.epsilon, request.delta)
        except TypeError:  # unhashable field values: plan uncached
            key = None
        if key is not None:
            with self._plan_lock:
                generation = self._generation
                cached = self._plan_cache.get((generation, key))
                if cached is not None:
                    self._plan_cache.move_to_end((generation, key))
                    return cached
        plan = self._plan_uncached(request)
        if key is not None:
            with self._plan_lock:
                if generation == self._generation:
                    if len(self._plan_cache) >= self.PLAN_CACHE_ENTRIES:
                        self._plan_cache.popitem(last=False)
                    self._plan_cache[(generation, key)] = plan
        return plan

    def _plan_uncached(self, request: QueryRequest) -> QueryPlan:
        kind = str(request.kind).strip().lower()
        if kind not in KINDS:
            raise DataError(f"unknown query kind {request.kind!r}; one of {KINDS}")
        epsilon = float(request.epsilon)
        delta = float(request.delta or 0.0)
        if delta < 0:
            raise DataError(f"delta must be non-negative, got {request.delta}")

        table_name = self._resolve_table_name(request.table)
        table = self.table(table_name)

        column = request.column.strip() if request.column else None
        spec = None
        if kind != "count":
            if column is None:
                raise DataError(f"{kind} queries need a column")
            if column not in table.schema.names:
                raise DataError(
                    f"table {table_name!r} has no column {column!r}"
                )
            spec = table.schema[column]

        lower = upper = q = None
        bins: tuple = ()
        if kind in BOUNDED_KINDS:
            if spec.ctype is not ColumnType.NUMERIC:
                raise DataError(f"{kind} needs a numeric column, {column!r} is not")
            if request.lower is None or request.upper is None:
                raise DataError(
                    f"{kind} queries need declared lower/upper value bounds"
                )
            lower, upper = float(request.lower), float(request.upper)
        if kind == "quantile":
            if request.q is None:
                raise DataError("quantile queries need q in [0, 1]")
            q = float(request.q)
        if kind == "histogram":
            if not request.bins:
                raise DataError("histogram queries need explicit bins")
            coerce = float if spec.ctype is ColumnType.NUMERIC else str
            try:
                bins = tuple(sorted({coerce(value) for value in request.bins}))
            except (TypeError, ValueError) as error:
                raise DataError(f"bad histogram bins: {error}") from None

        version = self._versions[table_name]
        return QueryPlan(
            kind=kind, table=table_name, table_version=version,
            epsilon=epsilon, delta=delta, column=column,
            lower=lower, upper=upper, q=q, bins=bins,
            fingerprint=fingerprint(
                table=table_name, version=version, kind=kind,
                column=column, epsilon=epsilon, delta=delta,
                lower=lower, upper=upper, q=q, bins=bins,
            ),
        )

    def _resolve_table_name(self, name: str | None) -> str:
        if name:
            return str(name)
        if len(self._tables) == 1:
            return next(iter(self._tables))
        if not self._tables:
            raise DataError("no tables registered with the planner")
        raise DataError(
            f"request names no table and several are registered: {self.table_names}"
        )
