"""Provenance (lineage) graphs (Q4, experiment E10).

§2-Q4: "The journey from raw data to meaningful inferences involves
multiple steps and actors, thus accountability and comprehensibility are
essential for transparency."  The provenance graph is the accountability
half: a bipartite DAG of *artefacts* (datasets, models, reports) and
*steps* (operations with parameters), from which the full lineage of any
result can be reconstructed and rendered.

A table artefact's fingerprint is
:func:`~repro.store.fingerprint.table_fingerprint`, the full-content
digest the artifact store keys on, so lineage and the cache name a
table the same way and two tables differing in any byte get different
artefacts.  Tables cache that digest, so registering the same table
object again (a stage that returns its input) costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.data.table import Table
from repro.exceptions import ProvenanceError
from repro.store.fingerprint import table_fingerprint


@dataclass(frozen=True)
class Artifact:
    """A node representing data/model/report state at a point in time."""

    artifact_id: str
    kind: str
    fingerprint: str
    description: str = ""


@dataclass(frozen=True)
class Step:
    """A node representing one executed operation."""

    step_id: str
    name: str
    params: tuple[tuple[str, str], ...]

    def params_dict(self) -> dict[str, str]:
        """Parameters as a plain dict."""
        return dict(self.params)


class ProvenanceGraph:
    """Append-only bipartite lineage DAG of artefacts and steps."""

    def __init__(self):
        self._graph = nx.DiGraph()
        self._counter = 0

    def _next_id(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter:04d}"

    # -- recording ---------------------------------------------------------

    def add_artifact(self, kind: str, fingerprint: str,
                     description: str = "") -> Artifact:
        """Register a new artefact node."""
        artifact = Artifact(
            artifact_id=self._next_id(kind), kind=kind,
            fingerprint=fingerprint, description=description,
        )
        self._graph.add_node(artifact.artifact_id, node=artifact, bipartite="artifact")
        return artifact

    def add_table(self, table: Table, description: str = "") -> Artifact:
        """Register a table artefact, fingerprinted by its full content."""
        return self.add_artifact("table", table_fingerprint(table), description)

    def record_step(self, name: str, inputs: list[Artifact],
                    outputs: list[Artifact],
                    params: dict[str, object] | None = None) -> Step:
        """Record an operation connecting input and output artefacts."""
        for artifact in (*inputs, *outputs):
            if artifact.artifact_id not in self._graph:
                raise ProvenanceError(
                    f"unknown artefact {artifact.artifact_id!r}; register it first"
                )
        step = Step(
            step_id=self._next_id("step"), name=name,
            params=tuple(sorted(
                (key, repr(value)) for key, value in (params or {}).items()
            )),
        )
        self._graph.add_node(step.step_id, node=step, bipartite="step")
        for artifact in inputs:
            self._graph.add_edge(artifact.artifact_id, step.step_id)
        for artifact in outputs:
            self._graph.add_edge(step.step_id, artifact.artifact_id)
        return step

    # -- queries ---------------------------------------------------------------

    def _require(self, node_id: str) -> None:
        if node_id not in self._graph:
            raise ProvenanceError(f"unknown node {node_id!r}")

    @property
    def n_artifacts(self) -> int:
        """Number of artefact nodes."""
        return sum(
            1 for _, data in self._graph.nodes(data=True)
            if data["bipartite"] == "artifact"
        )

    @property
    def n_steps(self) -> int:
        """Number of step nodes."""
        return sum(
            1 for _, data in self._graph.nodes(data=True)
            if data["bipartite"] == "step"
        )

    def lineage(self, artifact: Artifact) -> list[Step]:
        """Every step upstream of ``artifact``, topologically ordered.

        This is the answer to "how was this number produced?" — the
        chain of operations with their parameters.
        """
        self._require(artifact.artifact_id)
        ancestors = nx.ancestors(self._graph, artifact.artifact_id)
        ordered = [
            node for node in nx.topological_sort(self._graph)
            if node in ancestors
        ]
        return [
            self._graph.nodes[node]["node"] for node in ordered
            if self._graph.nodes[node]["bipartite"] == "step"
        ]

    def downstream(self, artifact: Artifact) -> list[Artifact]:
        """Every artefact derived (transitively) from ``artifact``.

        The GDPR question: if this input was tainted or must be erased,
        what else is affected?
        """
        self._require(artifact.artifact_id)
        descendants = nx.descendants(self._graph, artifact.artifact_id)
        return [
            self._graph.nodes[node]["node"] for node in descendants
            if self._graph.nodes[node]["bipartite"] == "artifact"
        ]

    def render_lineage(self, artifact: Artifact) -> str:
        """Human-readable lineage trace for one artefact."""
        lines = [f"lineage of {artifact.artifact_id} "
                 f"({artifact.kind}, {artifact.fingerprint})"]
        for step in self.lineage(artifact):
            rendered = ", ".join(f"{k}={v}" for k, v in step.params)
            lines.append(f"  <- {step.name}({rendered})")
        return "\n".join(lines)

    def to_networkx(self) -> nx.DiGraph:
        """A copy of the underlying graph (for visualisation)."""
        return self._graph.copy()
