"""Shard maps: per-shard map nodes + declared coordinator combines.

The node template behind out-of-core plans: given a
:class:`~repro.data.partition.PartitionedTable`, ``shard_map_nodes``
builds one :class:`~repro.engine.Node` per shard, each of which

* runs a **pure per-shard function** ``map_fn(shard)`` on the shard it
  materializes, on the executor's thread pool like every other node,
  and returns a dict of the map's declared ``fields``;
* owns a **per-shard cache key** (its params fold the shard's content
  fingerprint), so editing one shard re-keys exactly that node — the
  incremental sharded re-audit;
* **spills** whenever the plan runs with a store: each field is
  committed as its own store entry tagged ``shard:<fp>``, and a
  :class:`~repro.store.Spilled` reference travels the plan instead of
  the value, bounding coordinator memory by one shard plus the
  combined partials.  A shard replays only if every field's entry is
  present.

``combine_node`` declares a merge step and the fields it reads: it
receives the partials as a :class:`ShardPartials` sequence that
resolves each shard to a dict of exactly those fields, one shard at a
time, **in shard order** — so a combine decodes only what it reads, a
combine that concatenates or folds sequentially is deterministic by
construction, and it is byte-identical to the unsharded computation
whenever the per-shard function is row-wise pure and the merged
statistics are exact (counts, contingencies, concatenated arrays; see
:func:`repro.data.partition.merge_counts`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.data.partition import PartitionedTable
from repro.engine.node import Node
from repro.exceptions import PlanError
from repro.store.store import resolve_spilled


class ShardPartials(Sequence):
    """The per-shard partials, resolved lazily in shard order.

    Each item is a dict of exactly ``fields`` (default: every field
    the partial has), whether the partial was held, spilled to a store
    (one entry read per field, as the combine iterates — the
    coordinator holds the partial it is folding, not all of them) or
    passed raw without a store.  A field left undeclared is absent on
    every schedule.  Indexing re-fetches; iterate once and fold.
    """

    def __init__(self, values: Sequence,
                 fields: Sequence[str] | None = None):
        self._values = list(values)
        self.fields = None if fields is None else tuple(fields)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index):
        return resolve_spilled(self._values[index], self.fields)

    def __iter__(self):
        for value in self._values:
            yield resolve_spilled(value, self.fields)


def shard_map_nodes(name: str, data: PartitionedTable,
                    map_fn: Callable, *,
                    fields: Sequence[str],
                    params: dict | Callable[[], dict] | None = None,
                    code: Callable | None = None,
                    label: str | None = None) -> tuple[Node, ...]:
    """One map node per shard of ``data`` (names ``{name}.shard{i}``).

    ``map_fn(shard)`` must be pure and return a dict of exactly
    ``fields``; any other value fails when the node's value is
    committed, naming the node and the field.  ``params`` joins every
    node's cache key alongside the shard fingerprint; ``code`` defaults
    to ``map_fn`` so edits invalidate.  Every map node spills, one store
    entry per field (inert when the plan runs without a store).
    """
    if not isinstance(data, PartitionedTable):
        raise PlanError(
            f"shard_map_nodes needs a PartitionedTable, got "
            f"{type(data).__name__}"
        )
    fields = tuple(fields)
    if not fields:
        raise PlanError(f"shard map {name!r} must declare its fields")
    nodes = []
    for index in range(data.n_shards):
        def node_fn(inputs, rng, index=index):
            return map_fn(data.shard(index))

        def node_params(index=index) -> dict:
            # Lazy all the way down: a callable ``params`` is only
            # evaluated when a store actually needs the key.
            resolved = dict(params()) if callable(params) else dict(params or {})
            resolved["shard"] = data.shard_fingerprint(index)
            return resolved

        def node_tags(input_fps, index=index) -> tuple:
            return (f"shard:{data.shard_fingerprint(index)}",)

        prefix = label if label is not None else name
        nodes.append(Node(
            f"{name}.shard{index}", node_fn,
            params=node_params,
            code=code if code is not None else map_fn,
            label=f"{prefix}.shard{index}",
            span_attrs={"shard": index, "n_shards": data.n_shards},
            tags=node_tags,
            spill=fields,
        ))
    return tuple(nodes)


def combine_node(name: str, over: Sequence[Node], fn: Callable, *,
                 fields: Sequence[str] | None = None,
                 params: dict | Callable[[], dict] | None = None,
                 code: Callable | None = None,
                 rng: str | None = None,
                 inputs: Sequence[str] = (),
                 tags: tuple[str, ...] | Callable = (),
                 label: str | None = None,
                 annotate: Callable | None = None) -> Node:
    """The declared combine step over shard map nodes' partials.

    ``fn(partials, extras, rng)`` receives the partials as a
    :class:`ShardPartials` (shard order, lazy resolution, each partial
    a dict of exactly ``fields``) and any additional declared
    ``inputs`` as the ``extras`` dict.  ``fields`` defaults to every
    field of the first map; a field some map does not return fails
    here, when the plan is built.  The node's cache key folds every
    partial's fingerprint, so a changed shard re-keys the combine
    automatically.
    """
    maps = tuple(over)
    for member in maps:
        if not isinstance(member, Node) or not member.spill:
            raise PlanError(
                f"combine {name!r} runs over shard map nodes; {member!r} "
                "declares no fields"
            )
    if fields is None:
        fields = maps[0].spill if maps else ()
    fields = tuple(fields)
    for member in maps:
        for field in fields:
            if field not in member.spill:
                raise PlanError(
                    f"combine {name!r} reads the field {field!r}, which "
                    f"map node {member.name!r} does not return (it "
                    f"returns {list(member.spill)})"
                )
    over_names = tuple(member.name for member in maps)
    extra_names = tuple(str(item) for item in inputs)

    def combine_fn(input_values, node_rng):
        partials = ShardPartials(
            [input_values[member] for member in over_names], fields
        )
        extras = {member: input_values[member] for member in extra_names}
        return fn(partials, extras, node_rng)

    return Node(
        name, combine_fn,
        inputs=over_names + extra_names,
        params=params,
        code=code if code is not None else fn,
        rng=rng,
        label=label,
        tags=tags,
        annotate=annotate,
    )
