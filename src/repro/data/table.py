"""A small column-oriented table.

The toolkit needs a dataset substrate that carries FACT metadata (see
:mod:`repro.data.schema`) alongside the values.  ``Table`` stores each
column as a numpy array — ``float64`` for numeric columns, ``object``
(strings) for categorical ones — and is immutable: it owns its buffers
(caller arrays are copied on construction, and columns are handed out
read-only), and every operation returns a new table sharing column
arrays where possible.

Because a table's bytes never change, it caches two things about its
content.  Each categorical column gets a lazily built **content view**,
``(categories, codes)``: the column's distinct strings in
first-appearance order and an integer code per row.  The fingerprint
renders the column's bytes from it, the store codec writes it, and the
sorted factorization is derived from it.  And
:func:`~repro.store.table_fingerprint` stores the table's content
digest on the table the first time it runs.  ``select``, ``drop``,
``rename``, ``with_role`` and ``with_column`` share column buffers, so
the derived table inherits the views of every column it shares; row
operations (``take``, ``filter``, ``slice``, ``concat``) start without
views, and no derived table inherits a digest.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.data.schema import (
    ColumnRole,
    ColumnSpec,
    ColumnType,
    Schema,
)
from repro.exceptions import DataError, SchemaError


def _coerce(values: Sequence | np.ndarray, ctype: ColumnType) -> np.ndarray:
    """Coerce raw values into a canonical storage array the table owns.

    Numeric values are always copied, so a caller who later writes to
    the array it passed in cannot change the table.
    """
    if ctype is ColumnType.NUMERIC:
        array = np.array(values, dtype=np.float64)
    else:
        array = np.asarray(
            [value if isinstance(value, str) else str(value) for value in values],
            dtype=object,
        )
    if array.ndim != 1:
        raise DataError(f"columns must be 1-D, got shape {array.shape}")
    return array


def _infer_ctype(values: Sequence | np.ndarray) -> ColumnType:
    """Guess a column type from raw values: numbers → numeric, else categorical."""
    array = np.asarray(values)
    if array.dtype.kind in "ifub":
        return ColumnType.NUMERIC
    return ColumnType.CATEGORICAL


def _code_dtype(n_categories: int) -> np.dtype:
    """The smallest unsigned dtype that indexes ``n_categories``."""
    return np.min_scalar_type(max(n_categories - 1, 0))


def _categorize(items: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """``(categories, codes)`` of string ``items`` in one dict pass.

    ``categories`` are the distinct items in first-appearance order and
    ``codes`` index each item into them, read-only and in the smallest
    unsigned dtype that fits (one byte per row for up to 256 distinct
    values), since a table keeps its views as long as it lives.
    """
    index: dict[str, int] = {}
    add = index.setdefault
    codes = np.array([add(item, len(index)) for item in items],
                     dtype=np.intp).astype(_code_dtype(len(index)))
    codes.flags.writeable = False
    return tuple(index), codes


def _sorted_codes(uniques: np.ndarray, codes: np.ndarray,
                  missing: np.ndarray) -> tuple:
    """Both factorizations' tail: ``-1`` for missing rows, stable order."""
    codes = codes.astype(np.int64)
    codes[missing] = -1
    order = np.argsort(codes, kind="stable")
    return uniques, codes, order, int(missing.sum())


def _factorize(array: np.ndarray) -> tuple:
    """Factorize one numeric column into sorted-unique codes.

    Returns ``(uniques, codes, order, n_missing)``: ``uniques`` are the
    sorted distinct float64 values, ``codes`` index each row into them
    with NaN forced to ``-1``, and ``order`` stably sorts the rows by
    code — the ``n_missing`` missing rows first.  NaNs are pinned to one
    bucket before ``np.unique`` so older numpy (per-NaN uniques) and
    newer numpy (collapsed NaNs) produce identical codes; the bucket is
    unreachable through the ``-1`` codes anyway.
    """
    missing = np.isnan(array)
    uniques, codes = np.unique(np.where(missing, 0.0, array),
                               return_inverse=True)
    return _sorted_codes(uniques, codes, missing)


def _factorize_view(categories: tuple[str, ...], codes: np.ndarray) -> tuple:
    """:func:`_factorize`'s output for a categorical column, from its view.

    ``uniques`` are the sorted distinct ``<U`` strings (comparisons stay
    in C) and ``""`` is the missing key.  Sorting the k categories and
    gathering is the same as sorting the rendered rows: a row's ``<U``
    string is its category's, trailing NULs stripped alike.
    """
    labels = np.asarray(categories, dtype="U")
    uniques, inverse = np.unique(labels, return_inverse=True)
    return _sorted_codes(uniques, inverse[codes], (labels == "")[codes])


class Table:
    """Immutable column-oriented table with a FACT-annotated schema."""

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]):
        if set(schema.names) != set(columns):
            raise SchemaError(
                "schema and data disagree: "
                f"schema={sorted(schema.names)} data={sorted(columns)}"
            )
        arrays = {}
        n_rows = None
        for spec in schema:
            array = _coerce(columns[spec.name], spec.ctype)
            if n_rows is None:
                n_rows = len(array)
            elif len(array) != n_rows:
                raise DataError(
                    f"column {spec.name!r} has {len(array)} rows, expected {n_rows}"
                )
            arrays[spec.name] = array
        self._init(schema, arrays, 0 if n_rows is None else n_rows, {})

    def _init(self, schema: Schema, columns: dict[str, np.ndarray],
              n_rows: int, content: dict[str, tuple]) -> None:
        self._schema = schema
        self._columns = columns
        self._n_rows = n_rows
        self._content = content
        self._digest: str | None = None
        self._factor_cache: dict[str, tuple] = {}
        self._read_only: dict[str, np.ndarray] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def _from_canonical(cls, schema: Schema,
                        columns: Mapping[str, np.ndarray],
                        n_rows: int,
                        content: Mapping[str, tuple] | None = None) -> "Table":
        """Build a table from arrays already in canonical storage form.

        Internal fast path for operations whose outputs are gathers,
        slices, or concatenations of an existing table's columns (or
        freshly computed float64 arrays): those are canonical by
        construction, so re-running the per-element coercion in
        ``__init__`` — the dominant cost of large joins — is skipped.
        ``content`` seeds the content views of columns whose views are
        known.  The caller vouches for dtype, 1-D shape, row count, and
        the views.
        """
        table = cls.__new__(cls)
        table._init(schema, dict(columns), n_rows, dict(content or {}))
        return table

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence],
                  schema: Schema | None = None) -> "Table":
        """Build a table from ``{name: values}``, inferring types if needed."""
        if schema is None:
            schema = Schema(
                [ColumnSpec(name, _infer_ctype(values))
                 for name, values in data.items()]
            )
        return cls(schema, {name: np.asarray(values) for name, values in data.items()})

    @classmethod
    def empty_like(cls, other: "Table") -> "Table":
        """A zero-row table with the same schema as ``other``."""
        return cls(other.schema, {name: [] for name in other.schema.names})

    # -- basic properties ------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The table's schema."""
        return self._schema

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n_rows

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self._schema)

    @property
    def column_names(self) -> list[str]:
        """Column names in schema order."""
        return self._schema.names

    def __len__(self) -> int:
        return self._n_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names or self.n_rows != other.n_rows:
            return False
        for name in self.column_names:
            mine, theirs = self._columns[name], other._columns[name]
            if mine.dtype == object or theirs.dtype == object:
                if not np.array_equal(mine, theirs):
                    return False
            elif not np.allclose(mine, theirs, equal_nan=True):
                return False
        return True

    def __repr__(self) -> str:
        return f"Table({self.n_rows} rows x {self.n_columns} columns: {self.column_names})"

    # -- column access -----------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """The values of one column, as a read-only zero-copy view.

        Tables share column arrays freely across ``select``/``drop``/
        ``with_role``/``rename``, so the arrays handed out here are
        marked non-writeable — mutating one would silently corrupt every
        derived table (and any memoized plan artifact holding it).  Call
        ``np.array(...)`` on the result if you need a private mutable
        copy.
        """
        view = self._read_only.get(name)
        if view is None:
            if name not in self._columns:
                raise SchemaError(f"no column named {name!r}")
            view = self._columns[name].view()
            view.flags.writeable = False
            self._read_only[name] = view
        return view

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def columns(self, names: Iterable[str]) -> list[np.ndarray]:
        """The value arrays of several columns, in order."""
        return [self.column(name) for name in names]

    def _content_view(self, name: str) -> tuple[tuple[str, ...], np.ndarray]:
        """The cached ``(categories, codes)`` view of a categorical column.

        ``categories`` are the column's distinct strings in
        first-appearance order and ``codes`` (read-only, smallest
        unsigned dtype) index each row into them, so
        ``categories[codes[i]]`` is row ``i``.
        Built in one dict pass on first use, inherited by derived tables
        that share the column, and seeded by the store codec on decode.
        """
        view = self._content.get(name)
        if view is None:
            if self._schema[name].ctype is not ColumnType.CATEGORICAL:
                raise SchemaError(f"column {name!r} is not categorical")
            view = _categorize(self._columns[name].tolist())
            self._content[name] = view
        return view

    def _shared_content(self, names: Iterable[str],
                        renames: Mapping[str, str] | None = None) -> dict:
        """The built content views of ``names``, keyed by their new names."""
        renames = renames or {}
        return {
            renames.get(name, name): self._content[name]
            for name in names if name in self._content
        }

    def _factorized(self, name: str) -> tuple:
        """Cached sorted factorization ``(uniques, codes, order, n_missing)``.

        Columns are immutable, so the factorization is computed once per
        table and reused — repeated joins and aggregations against the
        same table (star-schema dimension tables, benchmark repeats) pay
        the sort only on first touch.  A categorical column's comes from
        its content view (:func:`_factorize_view`), a numeric one's from
        :func:`_factorize`.
        """
        cached = self._factor_cache.get(name)
        if cached is None:
            if self._schema[name].ctype is ColumnType.NUMERIC:
                cached = _factorize(self.column(name))
            else:
                cached = _factorize_view(*self._content_view(name))
            self._factor_cache[name] = cached
        return cached

    def __content_fingerprint__(self) -> str:
        """Content hash over schema + column bytes (see ``table_fingerprint``).

        Lets :func:`repro.store.object_fingerprint` hash a table nested
        inside another object by content — independent of incidental
        instance state such as the lazy content views.
        """
        from repro.store.fingerprint import table_fingerprint

        return table_fingerprint(self)

    def row(self, index: int) -> dict[str, object]:
        """One row as a ``{column: value}`` dict."""
        if not 0 <= index < self._n_rows:
            raise DataError(f"row index {index} out of range [0, {self._n_rows})")
        return {name: self._columns[name][index] for name in self.column_names}

    def iter_rows(self) -> Iterable[dict[str, object]]:
        """Iterate over rows as dicts (slow path; prefer column ops)."""
        for index in range(self._n_rows):
            yield self.row(index)

    # -- structural transforms ----------------------------------------------------

    def select(self, names: Sequence[str]) -> "Table":
        """Table restricted to the given columns, in the given order."""
        schema = self._schema.select(list(names))
        return Table._from_canonical(
            schema, {name: self._columns[name] for name in names},
            self._n_rows, self._shared_content(names),
        )

    def drop(self, names: Sequence[str]) -> "Table":
        """Table without the given columns."""
        schema = self._schema.drop(list(names))
        return Table._from_canonical(
            schema, {name: self._columns[name] for name in schema.names},
            self._n_rows, self._shared_content(schema.names),
        )

    def with_column(self, spec: ColumnSpec, values: Sequence) -> "Table":
        """Table with a column added or replaced."""
        array = _coerce(values, spec.ctype)
        if self.n_columns and len(array) != self._n_rows:
            raise DataError(
                f"new column {spec.name!r} has {len(array)} rows, expected {self._n_rows}"
            )
        schema = self._schema.with_column(spec)
        columns = dict(self._columns)
        columns[spec.name] = array
        kept = [name for name in self._columns if name != spec.name]
        return Table._from_canonical(
            schema, columns, len(array), self._shared_content(kept),
        )

    def with_role(self, name: str, role: ColumnRole) -> "Table":
        """Table with one column's FACT role changed."""
        return Table._from_canonical(
            self._schema.with_role(name, role), self._columns, self._n_rows,
            self._content,
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Table with columns renamed according to ``mapping``."""
        specs = []
        columns = {}
        for spec in self._schema:
            new_name = mapping.get(spec.name, spec.name)
            specs.append(ColumnSpec(new_name, spec.ctype, spec.role, spec.description))
            columns[new_name] = self._columns[spec.name]
        return Table._from_canonical(
            Schema(specs), columns, self._n_rows,
            self._shared_content(self._columns, mapping),
        )

    # -- row transforms ---------------------------------------------------------

    def take(self, indices: Sequence[int] | np.ndarray) -> "Table":
        """Table containing the rows at ``indices`` (with repetition allowed)."""
        idx = np.asarray(indices, dtype=np.intp)
        return Table._from_canonical(
            self._schema,
            {name: array[idx] for name, array in self._columns.items()},
            len(idx),
        )

    def filter(self, mask: Sequence[bool] | np.ndarray) -> "Table":
        """Table containing the rows where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._n_rows:
            raise DataError(
                f"mask has {len(mask)} entries, expected {self._n_rows}"
            )
        return Table._from_canonical(
            self._schema,
            {name: array[mask] for name, array in self._columns.items()},
            int(np.count_nonzero(mask)),
        )

    def slice(self, start: int, stop: int) -> "Table":
        """The contiguous row range ``[start, stop)``, zero-copy.

        Column arrays of the result are views into this table's arrays
        (contiguous slices never copy), which is what makes row-range
        partitioning (:mod:`repro.data.partition`) free: a thousand
        shards of a table cost a thousand array headers, not a second
        copy of the data.
        """
        start, stop = int(start), int(stop)
        if not 0 <= start <= stop <= self._n_rows:
            raise DataError(
                f"slice [{start}, {stop}) out of range "
                f"[0, {self._n_rows})"
            )
        return Table._from_canonical(
            self._schema,
            {name: array[start:stop]
             for name, array in self._columns.items()},
            stop - start,
        )

    def head(self, n: int = 5) -> "Table":
        """The first ``n`` rows."""
        return self.take(np.arange(min(n, self._n_rows)))

    def shuffle(self, rng: np.random.Generator) -> "Table":
        """Rows in a random order drawn from ``rng``."""
        return self.take(rng.permutation(self._n_rows))

    def sample(self, n: int, rng: np.random.Generator,
               replace: bool = False) -> "Table":
        """A random sample of ``n`` rows."""
        if not replace and n > self._n_rows:
            raise DataError(f"cannot sample {n} rows from {self._n_rows} without replacement")
        return self.take(rng.choice(self._n_rows, size=n, replace=replace))

    def sort_by(self, names: str | Sequence[str],
                descending: bool = False) -> "Table":
        """Rows sorted by one or several columns (stable).

        ``names`` may be one column name or a sequence — the first name
        is the primary key.  Ties keep their original relative order in
        both directions (stable descending is *not* a reversed ascending
        sort, which would reverse tie order), so sorted output is a
        deterministic function of the input rows — the property the
        relational join kernels build on.
        """
        if isinstance(names, str):
            names = [names]
        if not names:
            raise SchemaError("sort_by needs at least one column")
        keys = [self.column(name) for name in names]
        if descending:
            # Stable descending: ascending-sort the reversed rows, map
            # positions back, reverse — equal keys keep input order.
            order_rev = np.lexsort([key[::-1] for key in reversed(keys)])
            order = (self._n_rows - 1 - order_rev)[::-1]
        else:
            order = np.lexsort(list(reversed(keys)))
        return self.take(order)

    @classmethod
    def concat(cls, tables: Iterable["Table"]) -> "Table":
        """One table holding the rows of ``tables``, in order.

        Every table must carry an identical schema (names, types, and
        FACT roles) — concatenating tables that merely share column
        names would silently merge different declarations.  Callable on
        an instance too (``table.concat([a, b])`` ignores the instance).

        ``tables`` may be any iterable, including a generator: each
        table is validated as it streams past and only its column
        arrays are retained, so shard-sized chunks produced on the fly
        (a :class:`~repro.data.partition.PartitionedTable`'s lazy
        shards, a chunked join) never require the source tables to be
        alive simultaneously.
        """
        reference = None
        signature = None
        parts: dict[str, list[np.ndarray]] = {}
        total = 0
        for table in tables:
            if not isinstance(table, Table):
                raise DataError(
                    f"concat expects Tables, got {type(table).__name__}"
                )
            if reference is None:
                reference = table.schema
                signature = [(s.name, s.ctype, s.role) for s in reference]
                parts = {name: [] for name in reference.names}
            elif [(s.name, s.ctype, s.role)
                  for s in table.schema] != signature:
                raise SchemaError(
                    "cannot concat tables with different schemas: "
                    f"{reference.names} (roles/types included) vs "
                    f"{table.schema.names}"
                )
            for name in reference.names:
                parts[name].append(table._columns[name])
            total += table._n_rows
        if reference is None:
            raise DataError("concat needs at least one table")
        columns = {
            name: np.concatenate(arrays) for name, arrays in parts.items()
        }
        return cls._from_canonical(reference, columns, total)

    # -- grouping / summaries ------------------------------------------------------

    def unique(self, name: str) -> np.ndarray:
        """Sorted unique values of one column.

        A categorical column's are its content view's categories,
        sorted: ``np.unique``'s object array without sorting every row.
        """
        if self._schema[name].ctype is ColumnType.CATEGORICAL:
            categories, _ = self._content_view(name)
            return np.array(sorted(categories), dtype=object)
        return np.unique(self.column(name))

    def group_indices(self, name: str) -> dict[object, np.ndarray]:
        """Row indices of each distinct value of ``name``, ascending.

        Every row lands in exactly one group.  Rows join their key by
        ``np.unique``'s inverse, not by ``==``, which is never true for
        NaN: the NaN rows of a numeric column share ``np.unique``'s one
        NaN key, as they do in :meth:`value_counts`.
        """
        keys, codes = np.unique(self.column(name), return_inverse=True)
        order = np.argsort(codes, kind="stable")
        bounds = np.cumsum(np.bincount(codes, minlength=len(keys)))[:-1]
        return dict(zip(keys, np.split(order, bounds)))

    def group_by(self, name: str) -> dict[object, "Table"]:
        """Split the table into sub-tables per distinct value of ``name``."""
        return {
            value: self.take(indices)
            for value, indices in self.group_indices(name).items()
        }

    def value_counts(self, name: str) -> dict[object, int]:
        """Occurrence counts of each distinct value of ``name``."""
        values, counts = np.unique(self.column(name), return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))

    def describe(self) -> dict[str, dict[str, object]]:
        """Per-column summary used by datasheets and audit reports."""
        summary: dict[str, dict[str, object]] = {}
        for spec in self._schema:
            values = self._columns[spec.name]
            entry: dict[str, object] = {
                "type": spec.ctype.value,
                "role": spec.role.value,
                "n": int(self._n_rows),
            }
            if spec.ctype is ColumnType.NUMERIC and self._n_rows:
                entry.update(
                    mean=float(np.mean(values)),
                    std=float(np.std(values)),
                    min=float(np.min(values)),
                    max=float(np.max(values)),
                    missing=int(np.sum(np.isnan(values))),
                )
            elif self._n_rows:
                entry.update(
                    n_unique=int(len(np.unique(values))),
                    top=max(self.value_counts(spec.name).items(), key=lambda kv: kv[1])[0],
                )
            summary[spec.name] = entry
        return summary

    def to_dict(self) -> dict[str, list]:
        """Plain ``{name: list-of-values}`` copy of the data."""
        return {name: array.tolist() for name, array in self._columns.items()}

    # -- FACT-role conveniences -----------------------------------------------------

    @property
    def target_name(self) -> str | None:
        """Name of the declared target column, if any."""
        return self._schema.target_name

    def target(self) -> np.ndarray:
        """Values of the target column."""
        name = self.target_name
        if name is None:
            raise SchemaError("table declares no target column")
        return self.column(name)

    def feature_table(self, include_sensitive: bool = False) -> "Table":
        """The model-input view: FEATURE columns, optionally plus SENSITIVE.

        The default mirrors the paper's warning that omitting sensitive
        attributes does *not* guarantee fairness — models are trained
        without them, audits still see them via the full table.
        """
        names = list(self._schema.feature_names)
        if include_sensitive:
            names += self._schema.sensitive_names
        return self.select(names)

    def sensitive(self, name: str | None = None) -> np.ndarray:
        """Values of a sensitive column (the single one if unnamed)."""
        names = self._schema.sensitive_names
        if name is None:
            if len(names) != 1:
                raise SchemaError(
                    f"expected exactly one sensitive column, found {names}"
                )
            name = names[0]
        elif name not in names:
            raise SchemaError(f"{name!r} is not declared sensitive")
        return self.column(name)
