"""``Plan``: a validated DAG of nodes with a deterministic schedule.

A plan is the *representation* half of the engine: it owns the node
graph, rejects malformed wiring at construction time (duplicate names,
missing inputs, cycles), and derives the two orders the executor needs —
a stable topological order (for spawning per-node rng streams and
committing results) and a level decomposition (each level's nodes have
all dependencies satisfied by earlier levels, so they may run
concurrently).  Both orders depend only on the plan's structure and the
declaration order of its nodes, never on ``n_jobs``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.engine.node import Node
from repro.exceptions import PlanError
from repro.store.fingerprint import fingerprint


class Plan:
    """A dependency-aware dataflow plan over :class:`Node` objects.

    Parameters
    ----------
    nodes:
        The computations.  Order matters only as a tiebreak: the
        topological schedule processes ready nodes in declaration order.
    inputs:
        Names of external inputs supplied at execution time via
        ``Executor.run(plan, inputs={...})``; node inputs may reference
        these exactly like upstream node names.
    """

    def __init__(self, nodes: Sequence[Node], inputs: Iterable[str] = ()):
        declared = list(nodes)
        if not declared:
            raise PlanError("a plan needs at least one node")
        for node in declared:
            if not isinstance(node, Node):
                raise PlanError(
                    f"plans are built from Node objects, got "
                    f"{type(node).__name__}"
                )
        self.input_names = tuple(str(name) for name in inputs)
        names = [node.name for node in declared]
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise PlanError(f"duplicate node name {name!r}")
            seen.add(name)
        clash = seen.intersection(self.input_names)
        if clash:
            raise PlanError(
                f"plan input names collide with node names: {sorted(clash)}"
            )
        known = seen.union(self.input_names)
        for node in declared:
            for dependency in node.inputs:
                if dependency not in known:
                    raise PlanError(
                        f"node {node.name!r} consumes {dependency!r}, which "
                        f"is neither a node nor a declared plan input"
                    )
        self._by_name = {node.name: node for node in declared}
        self._levels = self._schedule(declared)
        self._nodes = tuple(
            node for level in self._levels for node in level
        )

    def _schedule(self, declared: list[Node]) -> tuple[tuple[Node, ...], ...]:
        """Level decomposition (Kahn's algorithm, declaration-order stable)."""
        satisfied = set(self.input_names)
        remaining = list(declared)
        levels: list[tuple[Node, ...]] = []
        while remaining:
            ready = [
                node for node in remaining
                if all(dep in satisfied for dep in node.inputs)
            ]
            if not ready:
                cycle = ", ".join(sorted(node.name for node in remaining))
                raise PlanError(f"plan has a cycle through: {cycle}")
            levels.append(tuple(ready))
            satisfied.update(node.name for node in ready)
            remaining = [node for node in remaining if node not in ready]
        return tuple(levels)

    # -- structure -----------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        """Every node, in deterministic topological order."""
        return self._nodes

    def levels(self) -> tuple[tuple[Node, ...], ...]:
        """Nodes grouped by dependency depth; levels run in order,
        nodes within a level may run concurrently."""
        return self._levels

    def node(self, name: str) -> Node:
        """The node called ``name``."""
        if name not in self._by_name:
            raise PlanError(
                f"unknown node {name!r}; plan has {sorted(self._by_name)}"
            )
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def sinks(self) -> tuple[Node, ...]:
        """Nodes no other node consumes — the plan's results."""
        consumed = {
            dependency for node in self._nodes for dependency in node.inputs
        }
        return tuple(
            node for node in self._nodes if node.name not in consumed
        )

    # -- identity / rendering ------------------------------------------------

    def fingerprint(self) -> str:
        """Structural hash of the plan's wiring (not of its data)."""
        return fingerprint(plan=[
            {
                "name": node.name,
                "label": node.label,
                "inputs": list(node.inputs),
                "cacheable": node.cacheable,
                "rng": node.rng,
            }
            for node in self._nodes
        ], inputs=list(self.input_names))

    def describe(self) -> str:
        """The schedule as text: one line per node, grouped by level."""
        lines = [f"plan: {len(self._nodes)} nodes, "
                 f"{len(self._levels)} levels"]
        for index, level in enumerate(self._levels):
            for node in level:
                wiring = (f" <- {', '.join(node.inputs)}"
                          if node.inputs else "")
                flags = []
                if not node.cacheable:
                    flags.append("uncacheable")
                if node.rng:
                    flags.append(f"rng={node.rng}")
                suffix = f"  [{', '.join(flags)}]" if flags else ""
                lines.append(
                    f"  L{index} {node.label}{wiring}{suffix}"
                )
        return "\n".join(lines)
