"""Threshold sweeps, per-message classification, and report rendering.

A message is classified into every taxonomy class whose score reaches the
threshold (inclusive), so one anomaly can be e.g. both a template and a
contextual anomaly, or fall outside the taxonomy entirely when no score
reaches it. Thresholds are exact rationals: "0.7" means 7/10, and a sweep at
1.0 keeps only scores that are exactly one.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .model import AnomalyKind
from .scoring import CountTable, ScoreTriple

REPORT_SCHEMA_VERSION = 1


def _as_threshold(value: float | str | int | Fraction) -> Fraction:
    """The value as an exact rational, checked to lie within (0, 1]."""
    # Fraction(str(0.7)) == 7/10, while Fraction(0.7) would be the binary float.
    try:
        t = Fraction(str(value) if isinstance(value, float) else value)
    except (ValueError, ZeroDivisionError):  # "1/0" raises the latter
        raise ValueError(f"bad threshold {value!r}") from None
    if not 0 < t <= 1:
        raise ValueError(f"threshold {t} outside (0, 1]")
    return t


DEFAULT_THRESHOLDS: tuple[Fraction, ...] = tuple(Fraction(n, 10) for n in range(6, 11))


@dataclass(frozen=True)
class ThresholdSweep:
    """A strictly increasing series of thresholds, each within (0, 1]."""

    thresholds: tuple[Fraction, ...] = DEFAULT_THRESHOLDS

    def __post_init__(self) -> None:
        values = tuple(map(_as_threshold, self.thresholds))
        object.__setattr__(self, "thresholds", values)
        if not values:
            raise ValueError("at least one threshold is required")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("thresholds must be strictly increasing")

    @classmethod
    def parse(cls, text: str) -> "ThresholdSweep":
        """Parse a comma-separated threshold list like "0.6,0.7,1"."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("no thresholds given")
        return cls(tuple(parts))


def classify(score: ScoreTriple, threshold: Fraction | float | str) -> frozenset[AnomalyKind]:
    """Taxonomy classes whose score reaches the threshold; empty set = outside taxonomy."""
    t = _as_threshold(threshold)
    kinds = set()
    if score.template_score >= t:
        kinds.add(AnomalyKind.TEMPLATE)
    if score.attribute_score is not None and score.attribute_score >= t:
        kinds.add(AnomalyKind.ATTRIBUTE)
    if score.context_score >= t:
        kinds.add(AnomalyKind.CONTEXTUAL)
    return frozenset(kinds)


@dataclass(frozen=True, slots=True)
class DatasetStats:
    """Message and template counts split by label.

    A template is "anomalous" when at least one anomalous message matched it;
    templates matched by both label classes are counted on both sides and
    also reported as the intersection.
    """

    normal_messages: int
    anomalous_messages: int
    normal_templates: int
    anomalous_templates: int
    intersection_templates: int


def dataset_statistics(table: CountTable) -> DatasetStats:
    """Message and template counts by label, read off the table's template tally."""
    pairs = table.template_counts.values()
    return DatasetStats(
        normal_messages=sum(n for _, n in pairs),
        anomalous_messages=sum(a for a, _ in pairs),
        normal_templates=sum(1 for _, n in pairs if n),
        anomalous_templates=sum(1 for a, _ in pairs if a),
        intersection_templates=sum(1 for a, n in pairs if a and n),
    )


@dataclass(frozen=True)
class ThresholdRow:
    """Classification tallies at one threshold, over the anomalous messages."""

    threshold: Fraction
    counts: Mapping[AnomalyKind, int]
    classified: int
    unclassified: int


def _shares(row: ThresholdRow, total: int) -> tuple[float, ...]:
    """Percent of `total` messages per AnomalyKind, in declaration order, then unclassified."""
    parts = [row.counts.get(kind, 0) for kind in AnomalyKind] + [row.unclassified]
    return tuple(100.0 * part / total if total else 0.0 for part in parts)


@dataclass(frozen=True)
class TaxonomyReport:
    """Full sweep result: dataset statistics plus one row per threshold."""

    stats: DatasetStats
    rows: tuple[ThresholdRow, ...]
    config: Mapping[str, object] = field(default_factory=dict)
    source: Mapping[str, object] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        total = self.stats.anomalous_messages
        thresholds = []
        for row in self.rows:
            *kind_shares, unclassified_share = _shares(row, total)
            thresholds.append(
                {
                    "threshold": str(row.threshold),
                    "thresholdValue": float(row.threshold),
                    "counts": {kind.value: row.counts.get(kind, 0) for kind in AnomalyKind},
                    "percentages": dict(zip((kind.value for kind in AnomalyKind), kind_shares)),
                    "classified": row.classified,
                    "unclassified": row.unclassified,
                    "unclassifiedPercentage": unclassified_share,
                }
            )
        return {
            "schemaVersion": REPORT_SCHEMA_VERSION,
            "source": dict(self.source),
            "config": dict(self.config),
            "dataset": {
                "normalMessages": self.stats.normal_messages,
                "anomalousMessages": self.stats.anomalous_messages,
                "normalTemplates": self.stats.normal_templates,
                "anomalousTemplates": self.stats.anomalous_templates,
                "intersectionTemplates": self.stats.intersection_templates,
            },
            "thresholds": thresholds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        """Percentage matrix, one row per threshold — plots straight into a figure."""
        # No field holds a comma, a quote or a line break: nothing to quote.
        kinds = [f"{kind.value}_pct" for kind in AnomalyKind]
        lines = [",".join(["threshold", *kinds, "unclassified_pct"])]
        total = self.stats.anomalous_messages
        for row in self.rows:
            shares = _shares(row, total)
            lines.append(",".join([f"{float(row.threshold):g}", *(f"{p:.6f}" for p in shares)]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Human-readable summary table."""
        s = self.stats
        lines = [
            f"messages: {s.normal_messages + s.anomalous_messages} "
            f"({s.normal_messages} normal, {s.anomalous_messages} anomalous)",
            f"templates: {s.normal_templates} normal, {s.anomalous_templates} anomalous, "
            f"{s.intersection_templates} shared",
            "",
            f"{'threshold':>9}  "
            + "".join(f"{kind.value:>10}  " for kind in AnomalyKind)
            + f"{'unclassified':>12}",
        ]
        total = s.anomalous_messages
        for row in self.rows:
            *kind_shares, unclassified_share = _shares(row, total)
            lines.append(
                f"{float(row.threshold):>9g}  "
                + "".join(f"{p:>9.2f}%  " for p in kind_shares)
                + f"{unclassified_share:>11.2f}%"
            )
        return "\n".join(lines) + "\n"


def sweep_report(
    scores: Mapping[int, ScoreTriple],
    sweep: ThresholdSweep,
    stats: DatasetStats,
    config: Mapping[str, object] | None = None,
    source: Mapping[str, object] | None = None,
) -> TaxonomyReport:
    """Classify every scored message at every threshold and tally the outcome.

    `stats` is the report's dataset block, as dataset_statistics computes it.
    score_corpus gives equal scores one ScoreTriple, so each distinct object
    is counted by identity, hashing no Fraction, and classified once. Equal
    but distinct objects from other callers stay separate (triple, weight)
    pairs and keep both weights.
    """
    triples = tuple(scores.values())
    by_id = dict(zip(map(id, triples), triples))
    distinct = [(by_id[key], weight) for key, weight in Counter(map(id, triples)).items()]
    rows = []
    for t in sweep.thresholds:
        counts: dict[AnomalyKind, int] = {kind: 0 for kind in AnomalyKind}
        classified = 0
        for triple, weight in distinct:
            kinds = classify(triple, t)
            if kinds:
                classified += weight
                for kind in kinds:
                    counts[kind] += weight
        rows.append(ThresholdRow(t, counts, classified, len(scores) - classified))
    return TaxonomyReport(stats, tuple(rows), dict(config or {}), dict(source or {}))
