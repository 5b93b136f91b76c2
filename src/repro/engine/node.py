"""``Node``: one named pure computation inside a dataflow plan.

A node declares everything the :class:`~repro.engine.executor.Executor`
needs to run it responsibly:

* **identity** — a ``name`` unique within its plan and a display
  ``label`` used for spans and provenance steps;
* **computation** — ``fn(inputs, rng)``, a pure function of the resolved
  input values (a dict keyed by the node's declared ``inputs``) and an
  optional generator;
* **cache key** — derived automatically from the *code* of ``fn`` (via
  :func:`repro.store.code_fingerprint`), the node's ``params``, and
  content fingerprints of every resolved input, so an unchanged node
  replays from the store and a changed one recomputes.  ``params`` may
  be a zero-argument callable; it is only evaluated when a store
  needs the key, so plans running without caching never pay for
  fingerprinting.
* **randomness** — ``rng="spawn"`` gives the node its own
  ``SeedSequence``-spawned generator (one child per node, assigned in
  deterministic plan order, so results are bit-identical for every
  ``n_jobs`` and a change to one node can never shift another
  node's stream); ``rng="shared"`` threads the caller's generator
  through sequentially (pipeline semantics, with the store's rng
  continuity on replays); ``None`` means the node draws no randomness.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.exceptions import PlanError
from repro.store.fingerprint import (
    array_fingerprint,
    canonical,
    code_fingerprint,
    fingerprint,
    object_fingerprint,
    table_fingerprint,
)

#: Valid values of ``Node.rng``.
RNG_MODES = (None, "spawn", "shared")


def value_fingerprint(value: object) -> str:
    """Content fingerprint of a resolved node input, by type.

    Tables hash every byte of every column, arrays hash dtype + shape +
    bytes, scalars hash their canonical form, and everything else goes
    through :func:`~repro.store.object_fingerprint` — two values with the
    same content key identically regardless of object identity.
    """
    from repro.data.table import Table

    if isinstance(value, Table):
        return table_fingerprint(value)
    if isinstance(value, np.ndarray):
        return array_fingerprint(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return fingerprint(value=canonical(value))
    content = getattr(value, "__content_fingerprint__", None)
    if callable(content):
        # Containers that know their own content hash (e.g. a relational
        # Dataset composing per-table fingerprints) speak for themselves.
        return content()
    return object_fingerprint(value)


def seed_identity(seed: np.random.SeedSequence) -> dict:
    """The canonical cache-key identity of a spawned seed sequence.

    Entropy plus spawn key pin the child stream exactly: two audits of
    the same root seed replay, a different root seed recomputes.
    """
    entropy = seed.entropy
    if isinstance(entropy, (list, tuple)):
        entropy = [int(word) for word in entropy]
    elif entropy is not None:
        entropy = int(entropy)
    return {
        "entropy": entropy,
        "spawn_key": [int(word) for word in seed.spawn_key],
    }


class Node:
    """A named pure computation with declared inputs and an auto cache key.

    Parameters
    ----------
    name:
        Identifier, unique within the plan.
    fn:
        ``fn(inputs, rng) -> value`` where ``inputs`` is a dict of the
        resolved upstream values.
    inputs:
        Names of upstream nodes (or plan inputs) this node consumes.
    params:
        Dict of key parts identifying external data and parameters the
        computation depends on, or a zero-argument callable returning
        one (evaluated lazily, only when a store needs the key).
    code:
        Callable whose compiled code joins the key (default: ``fn``).
        Pass the underlying section/stage function when ``fn`` is a
        closure wrapper, so edits to the real implementation invalidate.
    cacheable:
        Whether an :class:`~repro.store.ArtifactStore` may replay this
        node.  Impure nodes (training, context mutation) must say False.
    rng:
        ``None``, ``"spawn"`` (own deterministic child stream), or
        ``"shared"`` (the caller's generator, threaded sequentially).
    label:
        Display name for spans and provenance steps (default ``name``).
    span_attrs:
        Static attributes attached to the node's telemetry span.
    record_params:
        Parameters recorded on the node's provenance step.
    tags:
        Store tags for the node's cached artifact — a tuple, or a
        callable receiving the dict of input fingerprints (evaluated
        only when the artifact is actually stored).
    annotate:
        ``annotate(value, inputs) -> dict`` of extra span attributes
        derived from the node's result (e.g. row counts).  Called on the
        coordinator after the node completes, never inside a worker.
    spill:
        The field names of a node whose value is a dict of exactly
        those keys.  With a store, each field is committed as its own
        entry and a :class:`~repro.store.Spilled` reference travels
        downstream instead of the value (requires ``cacheable``; the
        value's keys are checked on every schedule).  Consumers resolve
        references one at a time and read only the fields they
        declare, so the coordinator never holds every partial at once.
        Empty (the default): the node does not spill.
    """

    def __init__(self, name: str, fn: Callable, *,
                 inputs: tuple[str, ...] | list[str] = (),
                 params: dict | Callable[[], dict] | None = None,
                 code: Callable | None = None,
                 cacheable: bool = True,
                 rng: str | None = None,
                 label: str | None = None,
                 span_attrs: dict | None = None,
                 record_params: dict | None = None,
                 tags: tuple[str, ...] | Callable = (),
                 annotate: Callable | None = None,
                 spill: tuple[str, ...] | list[str] = ()):
        if not name or not isinstance(name, str):
            raise PlanError("node name must be a non-empty string")
        if not callable(fn):
            raise PlanError(f"node {name!r}: fn must be callable")
        if rng not in RNG_MODES:
            raise PlanError(
                f"node {name!r}: rng must be one of {RNG_MODES}, got {rng!r}"
            )
        self.name = name
        self.fn = fn
        self.inputs = tuple(str(item) for item in inputs)
        if len(set(self.inputs)) != len(self.inputs):
            raise PlanError(f"node {name!r} declares a duplicate input")
        self.params = params
        self.code = code
        self.cacheable = bool(cacheable)
        self.rng = rng
        self.label = label if label is not None else name
        self.span_attrs = dict(span_attrs or {})
        self.record_params = dict(record_params or {})
        self.tags = tags
        if annotate is not None and not callable(annotate):
            raise PlanError(f"node {name!r}: annotate must be callable")
        self.annotate = annotate
        if not isinstance(spill, (tuple, list)) or not all(
                isinstance(field, str) and field for field in spill):
            raise PlanError(
                f"node {name!r}: spill names the fields of the node's "
                f"dict value as non-empty strings, got {spill!r}"
            )
        self.spill = tuple(spill)
        if len(set(self.spill)) != len(self.spill):
            raise PlanError(f"node {name!r} declares a duplicate field")
        if self.spill and not self.cacheable:
            raise PlanError(
                f"node {name!r}: spill requires a cacheable node "
                "(the reference points at its store entries)"
            )

    # -- identity ------------------------------------------------------------

    def resolved_params(self) -> dict:
        """The node's key params, evaluating a lazy callable if needed."""
        if callable(self.params):
            return dict(self.params())
        return dict(self.params or {})

    def key(self, input_fingerprints: Mapping[str, str] | None = None,
            rng_identity: dict | None = None) -> str:
        """The node's cache key: code + params + input content (+ rng)."""
        parts: dict = {
            "node": self.label,
            "code": code_fingerprint(
                self.code if self.code is not None else self.fn
            ),
            "params": canonical(self.resolved_params()),
        }
        if input_fingerprints:
            parts["inputs"] = dict(input_fingerprints)
        if rng_identity is not None:
            parts["rng"] = rng_identity
        return fingerprint(**parts)

    def resolved_tags(self,
                      input_fingerprints: Mapping[str, str]) -> tuple:
        """The store tags for this node's artifact (lazy-evaluated)."""
        if callable(self.tags):
            return tuple(self.tags(dict(input_fingerprints)))
        return tuple(self.tags)

    # -- execution -----------------------------------------------------------

    def run(self, inputs: Mapping[str, object],
            rng: np.random.Generator | None = None):
        """Execute the node's computation on resolved inputs."""
        return self.fn(dict(inputs), rng)

    def __repr__(self) -> str:
        flags = []
        if not self.cacheable:
            flags.append("uncacheable")
        if self.rng:
            flags.append(f"rng={self.rng}")
        rendered = f", {', '.join(flags)}" if flags else ""
        return (f"Node({self.name!r}, inputs={list(self.inputs)}"
                f"{rendered})")
