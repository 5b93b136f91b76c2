"""The FACT auditor: one call, four pillars (S10).

``FACTAuditor.audit`` takes a trained table model, held-out data, and
(optionally) the pipeline trail and privacy accountant, and produces the
full :class:`~repro.core.report.FACTReport`:

* **Fairness** — the complete group audit of the model's decisions.
* **Accuracy** — bootstrap intervals, calibration error, and (with a
  calibration split) a conformal coverage check.
* **Confidentiality** — disclosure-risk profile of the evaluation data,
  leaked-column warnings, privacy-ledger summary.
* **Transparency** — a distilled surrogate with its fidelity, the top
  permutation-importance drivers, and the provenance/audit counts.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from repro import obs
from repro.accuracy.bootstrap import bootstrap_paired_ci
from repro.accuracy.conformal import SplitConformalClassifier
from repro.confidentiality.accountant import PrivacyAccountant
from repro.confidentiality.risk import qi_class_counts, risk_from_counts
from repro.core.report import (
    AccuracySection,
    ConfidentialitySection,
    FACTReport,
    TransparencySection,
)
from repro.data.partition import PartitionedTable, merge_counts
from repro.data.schema import ColumnRole
from repro.data.table import Table
from repro.engine import Executor, Plan, value_fingerprint
from repro.engine.sharding import combine_node, shard_map_nodes
from repro.exceptions import DataError, FairnessError
from repro.fairness.metrics import _group_rows
from repro.fairness.report import audit_decisions
from repro.learn.calibration import expected_calibration_error
from repro.learn.metrics import accuracy as accuracy_metric
from repro.learn.metrics import roc_auc
from repro.learn.table_model import TableClassifier
from repro.pipeline.pipeline import PipelineResult
from repro.store import resolve_store
from repro.transparency.importance import permutation_importance
from repro.transparency.surrogate import fit_surrogate


def _audit_shard_partial(model: TableClassifier, qi_names: tuple,
                         shard: Table) -> dict:
    """One shard's contribution to every pillar (the map node's body).

    Row-wise pure: each returned array is exactly the corresponding rows
    of the whole-table computation (the encoder's statistics and the
    estimator's weights are frozen at fit time), so concatenating the
    partials in shard order reproduces the unsharded arrays *bitwise* —
    which is what makes the sharded sections byte-identical by
    construction.
    """
    labels = model.labels(shard)
    probabilities = model.predict_proba(shard)
    decisions = (probabilities >= model.threshold).astype(np.float64)
    partial = {
        "n_rows": shard.n_rows,
        "labels": labels,
        "probabilities": probabilities,
        "decisions": decisions,
        "X": model.encoder.transform(shard),
        "sensitive": {
            name: shard.column(name)
            for name in shard.schema.sensitive_names
        },
    }
    if qi_names:
        counts, nan_singletons = qi_class_counts(shard, list(qi_names))
        partial["qi"] = counts
        partial["qi_nan"] = nan_singletons
    return partial


def _gather(partials, keys: tuple[str, ...],
            sensitive: tuple[str, ...] = ()) -> dict:
    """Concatenate the named partial arrays in shard order — one pass.

    A single iteration over ``partials`` (each shard's declared fields
    are decoded exactly once), returning ``{key: concatenated array}``
    plus a ``"sensitive"`` dict when sensitive column names are
    requested.
    """
    parts: dict[str, list] = {key: [] for key in keys}
    groups: dict[str, list] = {name: [] for name in sensitive}
    for partial in partials:
        for key in keys:
            parts[key].append(partial[key])
        for name in sensitive:
            groups[name].append(partial["sensitive"][name])
    gathered: dict = {
        key: np.concatenate(values) for key, values in parts.items()
    }
    if sensitive:
        gathered["sensitive"] = {
            name: np.concatenate(values) for name, values in groups.items()
        }
    return gathered


class FACTAuditor:
    """Audits a model + dataset against all four FACT questions.

    Parameters
    ----------
    conformal_alpha:
        Miscoverage level for the conformal check (needs ``calibration``
        data at audit time).
    surrogate_depth:
        Depth of the transparency surrogate tree.
    n_bootstrap:
        Resamples behind each accuracy interval.
    top_features:
        How many importance-ranked drivers the report lists.
    n_jobs:
        Threads for the audit's plan nodes and its resampling-heavy
        internals (the bootstrap intervals and permutation importances)
        via :mod:`repro.parallel`; ``1`` runs inline, ``None`` defers
        to ``$REPRO_N_JOBS``.  The report is bit-identical for every
        setting.
    backend:
        Kept for callers that name a schedule: ``"serial"`` runs inline
        whatever ``n_jobs`` says, while ``"thread"`` (the default) and
        ``"process"`` both mean ``n_jobs`` threads.  Any other name
        raises :class:`~repro.exceptions.DataError`.
    store:
        An :class:`~repro.store.ArtifactStore` memoising the audit
        **per pillar section**; ``None`` defers to ``$REPRO_STORE``
        (unset: no caching).  Each section is keyed on exactly the
        inputs, parameters, and code it depends on, so a re-audit
        after one change recomputes only the invalidated sections and
        replays the rest bit-identically.  The stochastic sections own
        ``SeedSequence``-spawned generators (assigned in plan order,
        independent of scheduling and caching), so the sections that
        *do* recompute draw the same stream they would have in a cold
        run — and a change to one section can never shift another's
        results.
    shards:
        Partition a plain ``Table`` into this many row-range shards at
        audit time (unset: the table is one shard).  Every audit runs
        the same map/combine plan (see :meth:`build_plan`), and the
        report is byte-identical at every shard count.
    """

    def __init__(self, conformal_alpha: float = 0.1,
                 surrogate_depth: int = 4,
                 n_bootstrap: int = 500,
                 top_features: int = 5,
                 n_jobs: int | None = None,
                 backend: str = "thread",
                 store=None,
                 shards: int | None = None):
        self.conformal_alpha = conformal_alpha
        self.surrogate_depth = surrogate_depth
        self.n_bootstrap = n_bootstrap
        self.top_features = top_features
        if backend not in ("serial", "thread", "process"):
            raise DataError(
                f"unknown backend {backend!r}; choose from 'serial', "
                "'thread' or 'process'"
            )
        self.n_jobs = 1 if backend == "serial" else n_jobs
        self.store = store
        self.shards = shards

    def build_plan(self, model: TableClassifier,
                   data: Table | PartitionedTable,
                   calibration: Table | None = None,
                   accountant: PrivacyAccountant | None = None,
                   pipeline_result: PipelineResult | None = None) -> Plan:
        """The audit as a map/combine plan over ``data``'s shards.

        A plain ``Table`` is the one-shard case.  Level 0 is one map
        node per shard (``partial.shard{i}``), each computing that
        shard's row-wise-pure arrays and exact contingency counts on
        the executor's threads; with a store the partials *spill*, one
        entry per field (tagged ``shard:<fp>``), so references rather
        than values travel to level 1.  Level 1 is the four pillar
        sections as combine nodes: each declares the fields it reads,
        decodes only those, and gathers them in shard order in one pass
        — reproducing the whole-table arrays bitwise — so the report is
        **byte-identical** at every shard count and ``n_jobs``.  The
        fairness combine also writes the report's power and
        intersectional notes, so nothing reads partials after the run.
        The stochastic sections (accuracy, then transparency)
        declare ``rng="spawn"``: each owns its own seed stream, so a
        change to one can never shift the other's results.  Per-shard
        cache keys fold each shard's content fingerprint: editing one
        shard re-runs one map node plus the combines.  Sections are
        tagged ``table:<fp>`` with the plain table's fingerprint, or
        the partitioned dataset's.
        """
        if isinstance(data, Table):
            data = PartitionedTable([data])
            dataset_fp = functools.partial(data.shard_fingerprint, 0)
        else:
            dataset_fp = data.__content_fingerprint__
        schema = data.schema
        qi_names = tuple(schema.quasi_identifier_names)
        sensitive_names = tuple(schema.sensitive_names)
        map_fn = functools.partial(_audit_shard_partial, model, qi_names)
        qi_fields = ("qi", "qi_nan") if qi_names else ()
        # Every map node's key folds the model's fingerprint: hash the
        # model once per plan, not once per shard.
        model_fp = functools.cache(lambda: value_fingerprint(model))
        maps = shard_map_nodes(
            "partial", data, map_fn,
            fields=("n_rows", "labels", "probabilities", "decisions", "X",
                    "sensitive") + qi_fields,
            params=lambda: {"model": model_fp()},
            code=_audit_shard_partial,
        )
        predictions = ("labels", "probabilities", "decisions")
        tags = lambda fps: (f"table:{dataset_fp()}",)  # noqa: E731

        def fairness_fn(partials, extras, rng):
            return self._fairness(partials, sensitive_names)

        def accuracy_fn(partials, extras, rng):
            return self._accuracy(model, partials, sensitive_names,
                                  calibration, rng)

        def confidentiality_fn(partials, extras, rng):
            return self._confidentiality(partials, schema, accountant)

        def transparency_fn(partials, extras, rng):
            return self._transparency(model, partials, rng,
                                      pipeline_result)

        sections = [
            combine_node("fairness", maps, fairness_fn,
                         fields=predictions + ("sensitive",),
                         code=FACTAuditor._fairness, tags=tags),
            combine_node("accuracy", maps, accuracy_fn,
                         fields=predictions + (
                             () if calibration is None else ("X", "sensitive")
                         ),
                         params=lambda: {
                             "conformal_alpha": self.conformal_alpha,
                             "n_bootstrap": self.n_bootstrap,
                             "calibration": (
                                 None if calibration is None
                                 else value_fingerprint(calibration)
                             ),
                         },
                         code=FACTAuditor._accuracy,
                         rng="spawn", tags=tags),
            combine_node("confidentiality", maps, confidentiality_fn,
                         fields=(qi_fields + ("n_rows",)) if qi_names else (),
                         params={"accountant": None if accountant is None
                                 else {
                                     "epsilon_spent": accountant.epsilon_spent,
                                     "epsilon_budget": accountant.epsilon_budget,
                                     "ledger_entries": len(accountant.ledger),
                                 }},
                         code=FACTAuditor._confidentiality,
                         tags=tags),
            combine_node("transparency", maps, transparency_fn,
                         fields=("X", "labels"),
                         params={"surrogate_depth": self.surrogate_depth,
                                 "top_features": self.top_features,
                                 "pipeline": None if pipeline_result is None
                                 else {
                                     "provenance_steps": (
                                         pipeline_result.context.provenance.n_steps
                                         if pipeline_result.context.provenance
                                         else 0
                                     ),
                                     "audit_events": len(
                                         pipeline_result.context.audit
                                     ),
                                 }},
                         code=FACTAuditor._transparency,
                         rng="spawn", tags=tags),
        ]
        return Plan([*maps, *sections])

    def audit(self, model: TableClassifier,
              test: Table | PartitionedTable,
              rng: np.random.Generator,
              calibration: Table | None = None,
              accountant: PrivacyAccountant | None = None,
              pipeline_result: PipelineResult | None = None,
              subject: str = "model") -> FACTReport:
        """Produce the full FACT report.

        Runs the map/combine plan of :meth:`build_plan`: a plain table
        is one shard (or ``shards`` of them when the auditor was built
        with ``shards=N``), a :class:`~repro.data.PartitionedTable`
        keeps its own shards.  The sections run concurrently when the
        auditor has workers, and are memoised per section when a store
        is available (explicit or via ``$REPRO_STORE``) — unchanged
        sections replay byte-identically, changed ones recompute, the
        incremental re-audit.  A run without a store differs only in
        that nothing is looked up.
        """
        if isinstance(test, Table) and self.shards is not None \
                and self.shards > 1:
            test = PartitionedTable.partition(test, n_shards=self.shards)
        if test.n_rows < 10:
            raise DataError("need at least 10 evaluation rows for an audit")
        store = resolve_store(self.store)
        plan = self.build_plan(
            model, test, calibration, accountant, pipeline_result
        )
        executor = Executor(n_jobs=self.n_jobs, name="audit")
        telemetry = obs.get()
        span = contextlib.nullcontext() if telemetry is None else (
            telemetry.tracer.span(
                "audit.run", subject=subject, n_rows=test.n_rows,
                n_shards=(test.n_shards
                          if isinstance(test, PartitionedTable) else 1),
                n_jobs=executor.n_jobs,
            )
        )
        with span:
            result = executor.run(plan, store=store, rng=rng)
        fairness, fairness_notes = result["fairness"]
        notes = []
        if calibration is None:
            notes.append(
                "no calibration split supplied: conformal guarantee not checked"
            )
        return FACTReport(
            subject=subject,
            fairness=fairness,
            accuracy=result["accuracy"],
            confidentiality=result["confidentiality"],
            transparency=result["transparency"],
            notes=[*notes, *fairness_notes],
        )

    # -- sections -----------------------------------------------------------

    @classmethod
    def _fairness(cls, partials, sensitive_names: tuple) -> tuple:
        """The fairness section and its caveat notes, from the partials.

        Audits the first declared sensitive attribute, then adds the
        underpowered-audit note and, with several sensitive attributes,
        the intersectional note — both read the very arrays the section
        does, so they cost no second pass over the partials.
        """
        if not sensitive_names:
            raise FairnessError("table declares no sensitive column")
        arrays = _gather(partials, ("labels", "probabilities", "decisions"),
                         sensitive=sensitive_names)
        audited = sensitive_names[0]
        fairness = audit_decisions(
            arrays["labels"], arrays["decisions"],
            arrays["sensitive"][audited],
            sensitive=audited,
            probabilities=arrays["probabilities"],
        )
        notes = (
            cls._audit_power_note(fairness, arrays["sensitive"][audited]),
            cls._intersectional_note(arrays["sensitive"],
                                     arrays["decisions"], fairness),
        )
        return fairness, [note for note in notes if note]

    @staticmethod
    def _intersectional_note(sensitive_columns: dict[str, np.ndarray],
                             decisions: np.ndarray,
                             fairness) -> str | None:
        """Cross several sensitive attributes when the schema declares them.

        The headline fairness section audits one attribute; if more are
        declared, the worst *intersection* may be worse than any
        marginal — the report should say so rather than average it away.
        Takes the sensitive columns as a ``{name: values}`` dict.
        """
        if len(sensitive_columns) < 2:
            return None
        from repro.fairness.intersectional import intersectional_audit

        try:
            report = intersectional_audit(decisions, dict(sensitive_columns))
        except FairnessError:
            return None
        worst = report.worst_cell
        if report.max_gap > fairness.statistical_parity_difference + 0.02:
            return (
                f"intersectional gap exceeds the marginal one: worst cell "
                f"{worst.describe()} selects at {worst.selection_rate:.2f} "
                f"(gap {report.max_gap:.3f} vs marginal "
                f"{fairness.statistical_parity_difference:.3f})"
            )
        return None

    @staticmethod
    def _audit_power_note(fairness, group: np.ndarray) -> str | None:
        """Flag an underpowered fairness audit (Q2 applied to Q1).

        A small test set can only *detect* large selection gaps; when the
        minimum detectable gap exceeds what the four-fifths rule needs to
        see, a "pass" is statistically meaningless and the report says so.
        ``group`` is the audited sensitive column's values, concatenated
        from the shard partials.
        """
        from repro.accuracy.power import minimum_detectable_gap

        sizes = [int((group == value).sum()) for value in fairness.groups]
        smallest = min(sizes)
        baseline = max(fairness.selection_rates.values())
        if not 0.0 < baseline < 1.0 or smallest < 2:
            return None
        detectable = minimum_detectable_gap(smallest, baseline)
        if np.isnan(detectable):
            return (f"fairness audit severely underpowered: smallest group "
                    f"has {smallest} rows")
        # The gap the 4/5 rule cares about at this baseline rate.
        material_gap = 0.2 * baseline
        if detectable > material_gap:
            return (
                f"fairness audit underpowered: smallest group n={smallest} "
                f"can only detect selection gaps >= {detectable:.3f}, but "
                f"a four-fifths violation here is a gap of "
                f"{material_gap:.3f}"
            )
        return None

    def _accuracy(self, model, partials, sensitive_names: tuple,
                  calibration, rng) -> AccuracySection:
        """The accuracy section, gathering the partials in one pass.

        The encoded test matrix and the audited sensitive column join
        the gather only when a conformal check needs them (calibration
        data exists).
        """
        conformal_check = calibration is not None
        arrays = _gather(
            partials,
            ("labels", "probabilities", "decisions")
            + (("X",) if conformal_check else ()),
            sensitive=sensitive_names[:1] if conformal_check else (),
        )
        labels = arrays["labels"]
        probabilities = arrays["probabilities"]
        acc_ci = bootstrap_paired_ci(
            labels, arrays["decisions"], accuracy_metric, rng,
            n_resamples=self.n_bootstrap, n_jobs=self.n_jobs,
        )
        auc_ci = bootstrap_paired_ci(
            labels, probabilities, roc_auc, rng,
            n_resamples=self.n_bootstrap, n_jobs=self.n_jobs,
        )
        coverage = set_size = None
        by_group: dict[object, float] = {}
        if conformal_check:
            conformal = SplitConformalClassifier(
                model.estimator, alpha=self.conformal_alpha
            )
            X_cal = model.encoder.transform(calibration)
            conformal.calibrate(X_cal, model.labels(calibration))
            X_test = arrays["X"]
            covered = conformal.covered(X_test, labels)
            coverage = float(np.mean(covered))
            set_size = conformal.mean_set_size(X_test)
            # The E4b check: does the (marginal) guarantee hold within
            # each protected group, or only on average?
            if sensitive_names:
                groups = _group_rows(
                    arrays["sensitive"][sensitive_names[0]],
                    f"sensitive attribute {sensitive_names[0]!r}",
                )
                by_group = {
                    value: float(part.mean())
                    for value, part in zip(groups.keys, groups.split(covered))
                    if len(part) >= 10
                }
        return AccuracySection(
            accuracy=acc_ci,
            auc=auc_ci,
            expected_calibration_error=expected_calibration_error(
                labels, probabilities
            ),
            conformal_alpha=self.conformal_alpha if coverage is not None else None,
            conformal_coverage=coverage,
            conformal_mean_set_size=set_size,
            conformal_coverage_by_group=by_group,
            n_test_rows=int(labels.size),
        )

    @staticmethod
    def _confidentiality(partials, schema,
                         accountant) -> ConfidentialitySection:
        """The section from exactly merged equivalence-class counts.

        Merging the per-shard counts (:func:`repro.data.merge_counts` +
        :func:`repro.confidentiality.risk_from_counts`) reproduces
        :func:`~repro.confidentiality.assess_risk` on the whole table;
        everything else is schema- and accountant-derived.
        """
        qi_names = tuple(schema.quasi_identifier_names)
        risk = None
        if qi_names:
            nan_singletons = n_rows = 0

            def shard_counts():
                # One pass, one partial resident: the fold reads each
                # shard's class counts while the tallies ride along.
                nonlocal nan_singletons, n_rows
                for partial in partials:
                    nan_singletons += partial["qi_nan"]
                    n_rows += partial["n_rows"]
                    yield partial["qi"]

            counts = merge_counts(shard_counts())
            risk = risk_from_counts(
                qi_names, counts, nan_singletons, n_rows=n_rows
            )
        metadata = [
            spec.name for spec in schema
            if spec.role is ColumnRole.METADATA
        ]
        section = ConfidentialitySection(
            risk=risk,
            identifiers_present=schema.identifier_names,
            metadata_present=metadata,
        )
        if accountant is not None:
            section.epsilon_spent = accountant.epsilon_spent
            section.epsilon_budget = accountant.epsilon_budget
            section.ledger_entries = len(accountant.ledger)
        return section

    def _transparency(self, model, partials, rng,
                      pipeline_result) -> TransparencySection:
        """The transparency section from the encoded matrix + labels."""
        arrays = _gather(partials, ("X", "labels"))
        X = arrays["X"]
        fidelity = leaves = None
        try:
            surrogate = fit_surrogate(
                model.estimator, X, max_depth=self.surrogate_depth
            )
            fidelity, leaves = surrogate.fidelity, surrogate.n_leaves
        except DataError:
            pass  # constant model: surrogate vacuous, reported as absent
        importance = permutation_importance(
            model.estimator, X, arrays["labels"], rng, n_repeats=3,
            feature_names=model.feature_names, n_jobs=self.n_jobs,
        )
        section = TransparencySection(
            model_type=type(model.estimator).__name__,
            surrogate_fidelity=fidelity,
            surrogate_leaves=leaves,
            top_features=importance.ranked()[:self.top_features],
        )
        if pipeline_result is not None:
            graph = pipeline_result.context.provenance
            section.provenance_steps = graph.n_steps if graph else 0
            section.audit_events = len(pipeline_result.context.audit)
        return section
