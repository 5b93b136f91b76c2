"""Canonical fingerprints: one hash for the planner, the store, and memos.

Every cached thing in this toolkit — a served DP answer, a memoised
bootstrap interval, a whole FACT report section — is keyed by a
**canonical fingerprint** of what produced it: the data content, the
parameters, and the code version.  Before this module existed the query
planner owned a private ``_fingerprint``; promoting it here is the API
redesign that lets the answer cache, the artifact store, and every
memoised stage agree on what "the same computation" means.

The canonicalisation rules (and why):

* floats go through ``repr`` — ``0.10`` and ``1e-1`` collide, as they
  should, and the shortest-round-trip repr is platform-stable;
* tuples and lists are interchangeable (JSON has only arrays);
* dict keys are sorted, so the digest is order-independent;
* NumPy scalars are canonicalised through their Python values and NumPy
  arrays through a dtype+shape+bytes digest — *content*, not identity;
* digests are truncated to 24 hex chars (96 bits): comfortably
  collision-free for cache keys while staying readable in logs.

:func:`fingerprint` is byte-for-byte compatible with the planner's
historical ``_fingerprint`` for every input the planner produces, so
cached serve answers survive the refactor — regression-tested in
``tests/test_store.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import types

import numpy as np

#: Truncated digest length, in hex characters (96 bits).
DIGEST_CHARS = 24


def canonical(value: object) -> object:
    """The canonical (JSON-ready) form of ``value`` for fingerprinting.

    Not a serialisation format — information is deliberately collapsed
    (tuples become lists, NumPy scalars become Python scalars) because a
    fingerprint should identify *content*, not container types.
    """
    if isinstance(value, np.ndarray):
        dtype, data = _array_content(value)
        return {
            "__ndarray__": dtype,
            "shape": list(value.shape),
            "digest": hash_bytes(data),
        }
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, np.random.Generator):
        return canonical(value.bit_generator.state)
    return value


def fingerprint(**parts: object) -> str:
    """Stable content hash of the canonical ``parts``.

    The successor of ``repro.serve.planner._fingerprint`` — identical
    digests for every input the planner has ever hashed, now shared by
    the answer cache, the artifact store, and every memoised result.
    """
    digest = hashlib.sha256(
        json.dumps(canonical(dict(parts)), sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()[:DIGEST_CHARS]


def hash_bytes(data: bytes) -> str:
    """Truncated sha256 of raw bytes."""
    return hashlib.sha256(data).hexdigest()[:DIGEST_CHARS]


def _array_content(values: np.ndarray) -> tuple[str, bytes]:
    """Deterministic (dtype, bytes) for an array's *content*.

    ``tobytes()`` on an object array would hash pointers; tables store
    categoricals that way, so object arrays are rendered through a
    fixed-width unicode view first.
    """
    values = np.ascontiguousarray(values)
    if values.dtype == object:
        values = np.asarray(
            [str(item) for item in values.ravel()], dtype="U"
        )
    return str(values.dtype), values.tobytes()


def array_fingerprint(values: np.ndarray) -> str:
    """Content hash of one array (dtype + shape + bytes)."""
    values = np.asarray(values)
    return fingerprint(array=values)


def table_fingerprint(table) -> str:
    """Full-content hash of a :class:`~repro.data.table.Table`.

    Hashes **every byte** of every column — a cache replaying results
    for "the same table" must not collide on tables that differ
    anywhere — and provenance records the same digest, so lineage and
    the store name a table alike.  A categorical column's bytes are
    rendered from the table's cached content view: its categories as
    one fixed-width unicode array, gathered by its codes, are exactly
    the per-row ``str()`` rendering :func:`canonical` hashes for object
    arrays (the width is the longest category, which is the longest
    row).  Tables are immutable, so the digest is stored on the table
    the first time it is computed and answered from there after.
    """
    digest = table._digest
    if digest is not None:
        return digest
    hasher = hashlib.sha256()
    hasher.update(repr([
        (spec.name, spec.ctype.value, spec.role.value)
        for spec in table.schema
    ]).encode())
    hasher.update(str(table.n_rows).encode())
    for name in table.column_names:
        values = table.column(name)
        if values.dtype == object:
            categories, codes = table._content_view(name)
            values = np.asarray(categories, dtype="U")[codes]
        dtype, data = _array_content(values)
        hasher.update(dtype.encode())
        hasher.update(data)
    digest = table._digest = hasher.hexdigest()[:DIGEST_CHARS]
    return digest


def dataset_fingerprint(dataset) -> str:
    """Content hash of a multi-table relational dataset.

    Composes the schema identity (table declarations, version, and the
    migration log — structural *history* is part of identity) with the
    full-content hash of every member table.  Duck-typed so the store
    stays import-free of :mod:`repro.relational`.
    """
    return fingerprint(
        schema=dataset.schema.identity(),
        tables={
            name: table_fingerprint(dataset.table(name))
            for name in dataset.schema.table_names
        },
    )


def code_fingerprint(fn) -> str:
    """Content hash of a callable's *code* (the "code version" key part).

    Hashing the compiled bytecode plus constants means editing a stage's
    implementation invalidates its cached results, while re-running the
    same code replays them — the heart of incremental re-audits.
    Builtins and callables without ``__code__`` fall back to their
    qualified name.
    """
    target = getattr(fn, "__func__", fn)
    code = getattr(target, "__code__", None)
    name = (
        f"{getattr(target, '__module__', '?')}."
        f"{getattr(target, '__qualname__', repr(target))}"
    )
    if code is None:
        return fingerprint(callable=name)
    return fingerprint(callable=name, code=_code_parts(code))


def _code_parts(code) -> dict:
    """Bytecode + primitive constants, recursing into nested functions."""
    consts = []
    nested = []
    for const in code.co_consts:
        if isinstance(const, (int, float, str, bytes, bool, type(None))):
            consts.append(const)
        elif isinstance(const, types.CodeType):
            nested.append(_code_parts(const))
    return {
        "bytecode": hash_bytes(code.co_code),
        "consts": canonical(consts),
        "nested": nested,
    }


def object_fingerprint(obj, _seen: set[int] | None = None) -> str:
    """Best-effort content hash of an arbitrary object.

    Used to key caches on models and encoders: two estimators with the
    same class and the same learned state (weights, thresholds, fitted
    statistics) fingerprint identically, regardless of object identity.
    Cycles are broken by id; unknown leaves fall back to ``repr``.
    """
    return fingerprint(object=_object_parts(obj, _seen or set()))


def _object_parts(obj, seen: set[int]) -> object:
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, (float, np.generic, np.ndarray)):
        return canonical(obj)
    if isinstance(obj, np.random.Generator):
        return canonical(obj.bit_generator.state)
    if id(obj) in seen:
        return f"<cycle:{type(obj).__name__}>"
    seen = seen | {id(obj)}
    if isinstance(obj, (tuple, list)):
        return [_object_parts(item, seen) for item in obj]
    if isinstance(obj, dict):
        return {
            str(key): _object_parts(value, seen)
            for key, value in obj.items()
        }
    if isinstance(obj, (types.FunctionType, types.BuiltinFunctionType,
                        types.MethodType)):
        return code_fingerprint(obj)
    if isinstance(obj, functools.partial):
        return {
            "__partial__": code_fingerprint(obj.func),
            "args": [_object_parts(item, seen) for item in obj.args],
            "kwargs": {
                str(key): _object_parts(value, seen)
                for key, value in obj.keywords.items()
            },
        }
    content = getattr(obj, "__content_fingerprint__", None)
    if callable(content):
        # Objects that know their own content hash (Table, a relational
        # Dataset) speak for themselves — incidental instance state such
        # as lazy caches never reaches the fingerprint.
        return {"__content__": content()}
    state = getattr(obj, "__dict__", None)
    if state is not None:
        return {
            "__class__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            **{
                str(key): _object_parts(value, seen)
                for key, value in state.items()
            },
        }
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        return {
            "__class__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            **{
                name: _object_parts(getattr(obj, name), seen)
                for name in slots if hasattr(obj, name)
            },
        }
    return repr(obj)
