"""Relational kernels as engine :class:`~repro.engine.Node` factories.

Wrapping a join or aggregate as a node buys exactly what every other
engine computation gets for free: an automatic cache key (kernel code +
join parameters + full-content fingerprints of both input tables), spans
and provenance, bit-identical results at any ``n_jobs``, and
store memoisation.  The cached artifact is tagged ``table:<fp>`` for
each input table's fingerprint — the same tag idiom the pipeline uses —
so re-registering a table through
:class:`~repro.relational.SchemaRegistry` invalidates every join that
consumed the old rows.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.engine import Node
from repro.exceptions import PlanError
from repro.relational.kernels import group_aggregate, inner_join, left_join

_JOIN_KERNELS = {"inner": inner_join, "left": left_join}


def join_node(name: str, *, left: str, right: str, on,
              how: str = "inner", right_on=None, suffix: str = "_r",
              label: str | None = None) -> Node:
    """A join as a cacheable engine node.

    ``left`` and ``right`` name the upstream nodes (or plan inputs)
    producing the two tables; the remaining arguments are those of
    :func:`repro.relational.inner_join` /
    :func:`repro.relational.left_join`.  The node is deterministic and
    draws no randomness, so it memoizes in any attached store.
    """
    if how not in _JOIN_KERNELS:
        raise PlanError(
            f"join node {name!r}: how must be one of "
            f"{sorted(_JOIN_KERNELS)}, got {how!r}"
        )
    if left == right:
        raise PlanError(
            f"join node {name!r}: left and right inputs must differ"
        )
    kernel = _JOIN_KERNELS[how]
    on_list = [on] if isinstance(on, str) else list(on)
    right_on_list = (None if right_on is None
                     else [right_on] if isinstance(right_on, str)
                     else list(right_on))

    def fn(inputs, rng):
        return kernel(inputs[left], inputs[right], on_list,
                      right_on=right_on_list, suffix=suffix)

    return Node(
        name, fn,
        inputs=(left, right),
        params={"how": how, "on": on_list, "right_on": right_on_list,
                "suffix": suffix},
        code=kernel,
        label=label or f"{how}_join:{name}",
        tags=lambda fps: (f"table:{fps[left]}", f"table:{fps[right]}"),
        annotate=lambda value, inputs: {"rows": value.n_rows},
    )


def aggregate_node(name: str, *, source: str, by, aggregations,
                   label: str | None = None) -> Node:
    """A grouped aggregation as a cacheable engine node.

    ``source`` names the upstream node (or plan input) producing the
    table; ``by``/``aggregations`` are those of
    :func:`repro.relational.group_aggregate`.
    """
    by_list = [by] if isinstance(by, str) else list(by)
    if isinstance(aggregations, Mapping):
        agg_param = {str(key): list(value) if not isinstance(value, str)
                     else value for key, value in aggregations.items()}
        agg_value: object = dict(aggregations)
    else:
        agg_param = [list(entry) if not isinstance(entry, str) else entry
                     for entry in aggregations]
        agg_value = list(aggregations)

    def fn(inputs, rng):
        return group_aggregate(inputs[source], by_list, agg_value)

    return Node(
        name, fn,
        inputs=(source,),
        params={"by": by_list, "aggregations": agg_param},
        code=group_aggregate,
        label=label or f"aggregate:{name}",
        tags=lambda fps: (f"table:{fps[source]}",),
        annotate=lambda value, inputs: {"groups": value.n_rows},
    )
