"""Tracing: nested spans over a run of the FACT pipeline.

A :class:`Span` is one named, timed unit of work with attributes and a
parent; a :class:`Tracer` hands them out, keeps the open-span stack, and
remembers every finished span for export.  Usable three ways::

    with tracer.span("stage:train", n_rows=100) as span:
        span.set_attribute("converged", True)

    span = tracer.start_span("manual"); ...; tracer.end_span(span)

    @tracer.trace("hot_path")
    def hot_path(...): ...

Pool tasks record into their own :class:`SpanScope`, adopted in task
order (:meth:`Tracer.scope`), so completion order never reaches a trace.
"""

from __future__ import annotations

import functools
import itertools
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.exceptions import DataError
from repro.obs.clock import Clock, TickClock

#: Attribute values stored verbatim; everything else is ``repr``-ed.
_PLAIN_TYPES = (bool, int, float, str, type(None))


def safe_attribute(value: object) -> object:
    """A JSON-serialisable, *deterministic* rendering of an attribute.

    Plain scalars pass through; containers are ``repr``-ed; anything
    else becomes its type name — the default ``repr`` of arbitrary
    objects embeds a memory address, which would make otherwise
    byte-reproducible telemetry differ between runs.
    """
    if isinstance(value, _PLAIN_TYPES):
        return value
    if isinstance(value, (list, tuple, dict, set, frozenset, bytes)):
        return repr(value)
    return f"<{type(value).__qualname__}>"


@dataclass
class Span:
    """One named, timed, attributed unit of work."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attributes: dict[str, object] = field(default_factory=dict)

    def set_attribute(self, key: str, value: object) -> "Span":
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = safe_attribute(value)
        return self

    @property
    def finished(self) -> bool:
        """Has :meth:`Tracer.end_span` run for this span?"""
        return self.end is not None

    @property
    def duration(self) -> float:
        """``end - start`` (raises if the span is still open)."""
        if self.end is None:
            raise DataError(f"span {self.name!r} is still open")
        return self.end - self.start

    def to_dict(self) -> dict[str, object]:
        """JSON-ready record (``record="span"``, sortable on ``t``)."""
        return {
            "record": "span",
            "t": self.start,
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": None if self.end is None else self.duration,
            "attributes": dict(self.attributes),
        }


#: The span scope of the pool task running in this context, if any.
#: One module-level variable: variables created per object are never
#: freed.
_SCOPE: ContextVar[SpanScope | None] = ContextVar("repro_obs_scope",
                                                  default=None)


class SpanScope:
    """Where spans go: a tracer's root, or one pool task's own scope.

    A task scope keeps its own open-span stack, span ids (negative until
    adopted) and, under a :class:`TickClock`, a tick clock from zero, so
    what a task records never depends on the tasks beside it.  ``parent``
    is the submitting thread's innermost open span.
    """

    def __init__(self, tracer: Tracer, parent: Span | None, clock: Clock,
                 ids: itertools.count):
        self.tracer = tracer
        self.parent = parent
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._ids = ids

    def run(self, fn, *args):
        """Call ``fn(*args)`` with this scope current (in a pool worker)."""
        token = _SCOPE.set(self)
        try:
            return fn(*args)
        finally:
            _SCOPE.reset(token)

    def allocate_id(self) -> int:
        # record_span is documented safe for concurrent callers; span
        # ids must stay unique under that contract.
        with self.tracer._id_lock:
            return next(self._ids)


class Tracer:
    """Produces nested spans, timed by an injectable clock."""

    def __init__(self, clock: Clock | None = None):
        self.clock = clock if clock is not None else TickClock()
        self._id_lock = threading.Lock()
        # Shared by every task scope, so a local id names one span even
        # across nested scopes.
        self._local_ids = itertools.count(-1, -1)
        self._root = SpanScope(self, None, self.clock, itertools.count(1))

    def _current(self) -> SpanScope:
        scope = _SCOPE.get()
        if scope is None or scope.tracer is not self:
            return self._root
        return scope

    # -- span lifecycle -----------------------------------------------------

    def start_span(self, name: str, **attributes: object) -> Span:
        """Open a span as a child of the innermost open span."""
        scope = self._current()
        parent = scope.stack[-1] if scope.stack else scope.parent
        span = Span(
            name=name,
            span_id=scope.allocate_id(),
            parent_id=None if parent is None else parent.span_id,
            start=scope.clock.now(),
            attributes={
                key: safe_attribute(value)
                for key, value in attributes.items()
            },
        )
        scope.spans.append(span)
        scope.stack.append(span)
        return span

    def end_span(self, span: Span | None = None) -> Span:
        """Close ``span`` (default: the innermost), and any open children."""
        scope = self._current()
        stack = scope.stack
        if not stack:
            raise DataError("no open span to end")
        target = span if span is not None else stack[-1]
        if target not in stack:
            raise DataError(f"span {target.name!r} is not open")
        while stack:
            closing = stack.pop()
            closing.end = scope.clock.now()
            if closing is target:
                break
        return target

    @contextmanager
    def span(self, name: str, **attributes: object):
        """Context manager: open on entry, close on exit (even on error)."""
        span = self.start_span(name, **attributes)
        try:
            yield span
        except BaseException as error:
            span.set_attribute("error", type(error).__name__)
            raise
        finally:
            if not span.finished:
                self.end_span(span)

    def record_span(self, name: str, start: float, end: float,
                    parent_id: int | None = None,
                    **attributes: object) -> Span:
        """Append an already-finished span without touching the stack.

        For concurrent code outside the pools (e.g. the :mod:`repro.serve`
        workers), which has no scope of its own: it times the work itself
        and records the finished span afterwards, so interleaved queries
        can never close each other's spans.
        """
        if end < start:
            raise DataError(
                f"span {name!r} ends before it starts ({end} < {start})"
            )
        scope = self._current()
        span = Span(
            name=name,
            span_id=scope.allocate_id(),
            parent_id=parent_id,
            start=float(start),
            end=float(end),
            attributes={
                key: safe_attribute(value)
                for key, value in attributes.items()
            },
        )
        scope.spans.append(span)
        return span

    # -- pool task scopes ---------------------------------------------------

    def scope(self) -> SpanScope:
        """A span scope for one pool task, opened on the submitting thread.

        Run the task under :meth:`SpanScope.run`, then :meth:`adopt` the
        scope on this thread, in task order.
        """
        clock = TickClock() if isinstance(self.clock, TickClock) \
            else self.clock
        return SpanScope(self, self.active_span, clock, self._local_ids)

    def adopt(self, scope: SpanScope) -> None:
        """Move a finished task's spans into the current context.

        Ids are renumbered from the adopting context (parent links
        follow), and under a :class:`TickClock` the task's ticks move
        onto ticks the adopting clock skips — so adopting in task order
        records what running the tasks inline would have.
        """
        target = self._current()
        ticks = None
        if scope.clock is not self.clock:
            # The task's clock counts from zero, so the tick it would
            # read next is the number of ticks it read.
            ticks = target.clock.advance(int(scope.clock.now()))
        renumbered: dict[int, int] = {}
        for span in scope.spans:
            new_id = target.allocate_id()
            renumbered[span.span_id] = new_id
            span.span_id = new_id
            span.parent_id = renumbered.get(span.parent_id, span.parent_id)
            if ticks is not None:
                span.start = ticks.start + span.start * ticks.step
                if span.end is not None:
                    span.end = ticks.start + span.end * ticks.step
        target.spans.extend(scope.spans)

    def trace(self, name: str | None = None, **attributes: object):
        """Decorator: run the function inside a span."""
        def decorator(fn):
            span_name = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(span_name, **attributes):
                    return fn(*args, **kwargs)

            return wrapper

        return decorator

    # -- introspection ------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Every span started so far, in start order."""
        return list(self._root.spans)

    @property
    def active_span(self) -> Span | None:
        """The innermost open span, if any."""
        scope = self._current()
        return scope.stack[-1] if scope.stack else scope.parent

    def root_spans(self) -> list[Span]:
        """Spans with no parent."""
        return [span for span in self._root.spans if span.parent_id is None]

    def children(self, span: Span) -> list[Span]:
        """Direct children of ``span``, in start order."""
        return [s for s in self._root.spans if s.parent_id == span.span_id]

    def to_dicts(self) -> list[dict[str, object]]:
        """All spans as JSON-ready records."""
        return [span.to_dict() for span in self._root.spans]
