"""The serving wire protocol: requests in, structured results out.

A :class:`QueryRequest` is what a tenant submits — a declarative
description of one DP aggregate over a registered table.  A
:class:`QueryResult` is what always comes back: the server never lets an
exception escape its loop, so rejections (budget, rate, overload,
validation, protocol version) are *statuses* on the result, not stack
traces in the caller's lap.

Both sides round-trip through plain dicts / JSON lines, which is what
``python -m repro serve`` speaks.  The wire format is versioned: a
record carrying no ``version`` field is a v1 record (every line written
before versioning existed parses unchanged), a record carrying a version
the server does not speak is rejected with
:data:`STATUS_REJECTED_VERSION` instead of being misinterpreted, and
``to_dict`` omits ``version`` when it is 1 so old readers keep seeing
the exact shape they always did.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.confidentiality.queries import KINDS
from repro.exceptions import DataError

#: The protocol version this server speaks (and the implied version of
#: any wire record that does not carry one).
PROTOCOL_VERSION = 1

#: Versions the server accepts; anything else is a structured rejection.
SUPPORTED_VERSIONS = (1,)

#: Result statuses — one success, one per rejection reason, one catch-all.
STATUS_OK = "ok"
STATUS_REJECTED_INVALID = "rejected_invalid"
STATUS_REJECTED_BUDGET = "rejected_budget"
STATUS_REJECTED_RATE = "rejected_rate"
STATUS_REJECTED_OVERLOAD = "rejected_overload"
STATUS_REJECTED_VERSION = "rejected_version"
STATUS_ERROR = "error"

STATUSES = (
    STATUS_OK,
    STATUS_REJECTED_INVALID,
    STATUS_REJECTED_BUDGET,
    STATUS_REJECTED_RATE,
    STATUS_REJECTED_OVERLOAD,
    STATUS_REJECTED_VERSION,
    STATUS_ERROR,
)


@dataclass(frozen=True)
class QueryRequest:
    """One tenant's declarative DP query.

    ``table`` may be omitted when the server has exactly one registered
    table.  Numeric aggregates (``sum``/``mean``/``quantile``) require
    declared ``lower``/``upper`` bounds — sensitivity comes from the
    declaration, never from peeking at the data.

    ``deadline_ms`` is the tenant's latency budget: a request still
    waiting when it expires is shed with
    :data:`STATUS_REJECTED_OVERLOAD` instead of being answered late
    (and, being shed before execution, costs no ε).  ``version`` is the
    wire protocol version; omit it (or pass 1) for the current protocol.
    """

    tenant: str
    kind: str
    epsilon: float
    table: str | None = None
    column: str | None = None
    lower: float | None = None
    upper: float | None = None
    q: float | None = None
    bins: tuple = ()
    delta: float = 0.0
    request_id: str | None = None
    version: int = PROTOCOL_VERSION
    deadline_ms: float | None = None

    @classmethod
    def from_dict(cls, record: dict) -> "QueryRequest":
        """Build a request from one decoded JSONL record.

        A record with no ``version`` field is a v1 record — the format
        predating versioning parses unchanged.
        """
        if not isinstance(record, dict):
            raise DataError(f"request must be an object, got {type(record).__name__}")
        unknown = set(record) - {f.name for f in fields(cls)}
        if unknown:
            raise DataError(f"unknown request fields: {sorted(unknown)}")
        for required in ("tenant", "kind", "epsilon"):
            if required not in record:
                raise DataError(f"request is missing {required!r}")
        record = dict(record)
        record["bins"] = tuple(record.get("bins") or ())
        record.setdefault("version", PROTOCOL_VERSION)
        return cls(**record)

    def to_dict(self) -> dict:
        """JSON-ready record (omits unset optionals and ``version`` 1)."""
        record = asdict(self)
        record["bins"] = list(record["bins"])
        if record.get("version") == PROTOCOL_VERSION:
            del record["version"]  # wire back-compat: v1 is implied
        return {
            key: value for key, value in record.items()
            if value not in (None, []) or key in ("tenant", "kind", "epsilon")
        }


@dataclass
class QueryResult:
    """The server's answer to one request — success or structured rejection.

    ``epsilon_charged`` is what the tenant's ledger actually paid: the
    plan's ε on a fresh execution, ``0.0`` on a cache replay or any
    rejection.  ``value`` is a float for scalar queries, a ``{bin:
    count}`` dict for histograms, and ``None`` on rejection.
    """

    tenant: str
    status: str
    value: float | dict | None = None
    epsilon_charged: float = 0.0
    cached: bool = False
    fingerprint: str | None = None
    detail: str | None = None
    request_id: str | None = None
    duration: float | None = None
    version: int = PROTOCOL_VERSION

    @property
    def ok(self) -> bool:
        """Did the query produce an answer?"""
        return self.status == STATUS_OK

    def to_dict(self) -> dict:
        """JSON-ready record (the ``serve`` CLI's response line)."""
        record = {
            "tenant": self.tenant,
            "status": self.status,
            "value": self.value,
            "epsilon_charged": self.epsilon_charged,
            "cached": self.cached,
        }
        if self.version != PROTOCOL_VERSION:
            record["version"] = self.version
        if self.fingerprint is not None:
            record["fingerprint"] = self.fingerprint
        if self.detail is not None:
            record["detail"] = self.detail
        if self.request_id is not None:
            record["request_id"] = self.request_id
        if self.duration is not None:
            record["duration"] = self.duration
        return record
