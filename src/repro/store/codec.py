"""Exact JSON round-tripping for the artifact store.

The store's contract is *bit-identical replay*: a cached value read back
from disk must equal what recomputing would have produced, down to the
last float.  Plain JSON cannot carry NumPy arrays, tuples, dataclasses,
or non-string dict keys, so :func:`encode` wraps those in tagged
envelopes and :func:`decode` restores them precisely:

* floats ride as native JSON numbers — Python's shortest-round-trip
  repr guarantees ``json.loads(json.dumps(x)) == x`` bit-for-bit;
* NumPy arrays and scalars carry dtype + shape + raw bytes (hex), so
  ``float64`` comes back ``float64``, not "a number";
* string arrays (object arrays of ``str``, which is how tables store
  categoricals) carry their distinct strings once, as ``categories``,
  plus an integer array of ``codes`` in the smallest unsigned dtype
  that indexes them (the table's own content view, as it holds
  it) — a 20,000-row census column with 40 distinct
  values is 40 strings and 20,000 one-byte codes, not 20,000 strings;
* dataclasses carry their import path and field values, and are
  reconstructed through the class itself — restricted to classes
  defined inside :mod:`repro`, so a tampered cache file cannot name
  arbitrary constructors;
* tables carry their full schema (types, FACT roles, descriptions) and
  every column; a categorical column is written from the table's cached
  content view, and a decoded table comes back with those views seeded
  (never with a digest — keys downstream are recomputed from the
  decoded content, so a tampered entry cannot vouch for itself).

Anything the codec cannot represent raises
:class:`~repro.exceptions.DataError` at *encode* time — a cache that
silently stored an approximation would poison every replay.  Decoding
validates what it rebuilds (string categories, in-range integer codes,
columns that match their schema, resolvable ``repro`` classes) and
raises :class:`DataError` on anything else, which the store counts as
one corruption and recomputes.  The ``__strarray__`` envelope of older
entries (one JSON list of strings per array) is no longer written and
decodes as such a corruption, so a legacy entry misses once.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import json

import numpy as np

from repro.data.schema import ColumnRole, ColumnSpec, ColumnType, Schema
from repro.data.table import Table, _categorize, _code_dtype
from repro.exceptions import DataError, ReproError

#: Envelope tags: a dict holding any of these keys is an envelope, so
#: user dicts that do are escaped.  ``__strarray__`` (the legacy string
#: array) is no longer written but stays reserved, so such a user dict
#: is still escaped and a legacy envelope is refused, not replayed as a
#: plain dict.
_TAGS = (
    "__tuple__", "__ndarray__", "__strings__", "__strarray__",
    "__npscalar__", "__mapping__", "__dataclass__", "__enum__", "__table__",
    "__escaped__",
)


def encode(value: object) -> object:
    """``value`` as a JSON-serialisable structure (tagged where needed)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            # Tables store categoricals as object arrays of str; anything
            # else in an object array has no exact byte representation.
            items = value.ravel().tolist()
            if not all(isinstance(item, str) for item in items):
                raise DataError(
                    "cannot store non-string object-dtype arrays exactly"
                )
            categories, codes = _categorize(items)
            return _encode_strings(categories, codes.reshape(value.shape))
        return {
            "__ndarray__": {
                "dtype": str(value.dtype),
                "shape": list(value.shape),
                "data": np.ascontiguousarray(value).tobytes().hex(),
            }
        }
    if isinstance(value, np.generic):
        return {
            "__npscalar__": {
                "dtype": str(value.dtype),
                "data": value.tobytes().hex(),
            }
        }
    if isinstance(value, tuple):
        return {"__tuple__": [encode(item) for item in value]}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            if any(key in _TAGS for key in value):
                return {"__escaped__": {
                    key: encode(item) for key, item in value.items()
                }}
            return {key: encode(item) for key, item in value.items()}
        return {"__mapping__": [
            [encode(key), encode(item)] for key, item in value.items()
        ]}
    if isinstance(value, enum.Enum):
        return {"__enum__": {
            "class": _class_path(type(value)),
            "value": encode(value.value),
        }}
    if isinstance(value, Table):
        return {"__table__": {
            "schema": [
                [spec.name, spec.ctype.value, spec.role.value,
                 spec.description]
                for spec in value.schema
            ],
            "columns": {
                spec.name: _encode_strings(*value._content_view(spec.name))
                if spec.ctype is ColumnType.CATEGORICAL
                else encode(value.column(spec.name))
                for spec in value.schema
            },
        }}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": {
            "class": _class_path(type(value)),
            "fields": {
                field.name: encode(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }}
    raise DataError(
        f"cannot store a {type(value).__name__} exactly; "
        "store arrays, tables, primitives, or repro dataclasses"
    )


def decode(payload: object) -> object:
    """Invert :func:`encode` exactly."""
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, list):
        return [decode(item) for item in payload]
    if isinstance(payload, dict):
        if "__tuple__" in payload:
            return tuple(decode(item) for item in payload["__tuple__"])
        if "__strings__" in payload:
            return _gather(*_decode_strings(payload["__strings__"]))
        if "__strarray__" in payload:
            raise DataError(
                "legacy __strarray__ envelope; the entry is recomputed"
            )
        if "__ndarray__" in payload:
            spec = payload["__ndarray__"]
            flat = np.frombuffer(
                bytes.fromhex(spec["data"]), dtype=np.dtype(spec["dtype"])
            )
            return flat.reshape(spec["shape"]).copy()
        if "__npscalar__" in payload:
            spec = payload["__npscalar__"]
            return np.frombuffer(
                bytes.fromhex(spec["data"]), dtype=np.dtype(spec["dtype"])
            )[0]
        if "__mapping__" in payload:
            return {
                decode(key): decode(item)
                for key, item in payload["__mapping__"]
            }
        if "__enum__" in payload:
            spec = payload["__enum__"]
            return _resolve_class(spec["class"])(decode(spec["value"]))
        if "__table__" in payload:
            return _decode_table(payload["__table__"])
        if "__dataclass__" in payload:
            return _decode_dataclass(payload["__dataclass__"])
        if "__escaped__" in payload:
            return {
                key: decode(item)
                for key, item in payload["__escaped__"].items()
            }
        return {key: decode(item) for key, item in payload.items()}
    raise DataError(f"cannot decode a {type(payload).__name__}")


def dumps(value: object) -> str:
    """Encode ``value`` to its canonical JSON text."""
    return json.dumps(encode(value), sort_keys=True, separators=(",", ":"))


def loads(text: str) -> object:
    """Decode canonical JSON text back to the original value.

    Text that is not a well-formed encoding — truncated JSON, an
    envelope with missing or mistyped parts — raises :class:`DataError`,
    whatever the structural error it tripped.
    """
    try:
        return decode(json.loads(text))
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as error:
        raise DataError(f"undecodable entry: {error!r}") from error


def _encode_strings(categories: tuple[str, ...], codes: np.ndarray) -> dict:
    """The string-array envelope: categories once, plus integer codes."""
    return {"__strings__": {
        "categories": list(categories),
        "codes": encode(codes),
    }}


def _decode_strings(spec: object) -> tuple[tuple[str, ...], np.ndarray]:
    """``(categories, codes)`` of a string-array envelope, validated.

    Categories must be distinct strings, each used by some code, and
    codes integers within range — exactly what :func:`_encode_strings`
    writes and what a table's content view holds.  Anything else raises
    :class:`DataError` (an out-of-range code must not surface later as
    an ``IndexError``).
    """
    if not isinstance(spec, dict):
        raise DataError("malformed string-array envelope")
    categories = spec.get("categories")
    codes = decode(spec.get("codes"))
    if (not isinstance(categories, list)
            or not all(isinstance(item, str) for item in categories)
            or len(set(categories)) != len(categories)):
        raise DataError("string-array categories must be distinct strings")
    if not isinstance(codes, np.ndarray) or codes.dtype.kind not in "iu":
        raise DataError("string-array codes must be an integer array")
    if codes.size and (codes.min() < 0 or codes.max() >= len(categories)):
        raise DataError("string-array codes out of range")
    codes = codes.astype(_code_dtype(len(categories)), copy=False)
    used = np.bincount(codes.ravel(), minlength=len(categories))
    if not used.all():
        raise DataError("string-array categories without a row")
    codes.flags.writeable = False
    return tuple(categories), codes


def _gather(categories: tuple[str, ...], codes: np.ndarray) -> np.ndarray:
    """The object array of ``str`` a string-array envelope stands for."""
    values = np.asarray(categories, dtype=object)[codes.ravel()]
    return values.reshape(codes.shape)


def _class_path(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_class(path: str) -> type:
    module_name, _, qualname = path.partition(":")
    if module_name != "repro" and not module_name.startswith("repro."):
        raise DataError(
            f"refusing to reconstruct non-repro class {path!r} from a cache"
        )
    try:
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as error:
        raise DataError(f"cannot resolve class {path!r}: {error}") from error
    if not isinstance(target, type):
        raise DataError(f"{path!r} is not a class")
    return target


def _decode_dataclass(spec: dict) -> object:
    cls = _resolve_class(spec["class"])
    if not dataclasses.is_dataclass(cls):
        raise DataError(f"{spec['class']!r} is not a dataclass")
    values = {name: decode(item) for name, item in spec["fields"].items()}
    init_names = {
        field.name for field in dataclasses.fields(cls) if field.init
    }
    try:
        instance = cls(**{
            name: value for name, value in values.items()
            if name in init_names
        })
    except ReproError as error:
        raise DataError(
            f"cannot rebuild {spec['class']!r}: {error}"
        ) from error
    for name, value in values.items():
        if name not in init_names:
            object.__setattr__(instance, name, value)
    return instance


def _decode_table(spec: dict) -> Table:
    """A table from its envelope, validated against its own schema.

    Categorical columns must be string-array envelopes and numeric ones
    1-D float64 arrays, every schema column present and no other, all
    of one length.  The decoded views seed the table's content views.
    """
    try:
        schema = Schema([
            ColumnSpec(name, ColumnType(ctype), ColumnRole(role), description)
            for name, ctype, role, description in spec["schema"]
        ])
    except (ReproError, TypeError, ValueError) as error:
        raise DataError(f"malformed table schema: {error}") from error
    payloads = spec["columns"]
    if not isinstance(payloads, dict) or set(payloads) != set(schema.names):
        raise DataError("table columns do not match the table's schema")
    columns, content, lengths = {}, {}, set()
    for column in schema:
        payload = payloads[column.name]
        if column.ctype is ColumnType.CATEGORICAL:
            if not isinstance(payload, dict) or "__strings__" not in payload:
                raise DataError(f"column {column.name!r} is not strings")
            content[column.name] = _decode_strings(payload["__strings__"])
            array = _gather(*content[column.name])
        else:
            array = decode(payload)
            if (not isinstance(array, np.ndarray)
                    or array.dtype != np.float64):
                raise DataError(f"column {column.name!r} is not float64")
        if array.ndim != 1:
            raise DataError(f"column {column.name!r} is not 1-D")
        columns[column.name] = array
        lengths.add(len(array))
    if len(lengths) > 1:
        raise DataError(f"table columns have unequal lengths {sorted(lengths)}")
    return Table._from_canonical(
        schema, columns, lengths.pop() if lengths else 0, content
    )
