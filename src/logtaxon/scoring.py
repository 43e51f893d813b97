"""Exact-fraction anomaly scores over templates, attributes, and contexts.

Every score is the anomalous share of some observation count, kept as a
`fractions.Fraction` so threshold comparisons are exact — a score of 1 means
literally every occurrence was anomalous, with no float rounding involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Literal, Mapping, Sequence

from .context import ContextSignature
from .model import Label, LogRecord, TokenSequence

# (anomalous, normal) observation counts.
CountPair = tuple[int, int]

AttributeScope = Literal["global", "per-position"]


@dataclass(frozen=True, slots=True)
class ScoreTriple:
    """The three scores of one message.

    attribute_score is None ("absent") when the message's template has no
    wildcard positions, i.e. there is nothing variable to score.
    """

    template_score: Fraction
    attribute_score: Fraction | None
    context_score: Fraction

    def as_floats(self) -> tuple[float, float | None, float]:
        """The scores as plain reals in [0, 1]; absent attribute stays None."""
        return (
            float(self.template_score),
            None if self.attribute_score is None else float(self.attribute_score),
            float(self.context_score),
        )


@dataclass(frozen=True)
class CountTable:
    """Per-label occurrence counts for templates, attribute tokens, and signatures.

    Attribute keys depend on the scope: "global" pools a token's occurrences
    across all templates and positions, "per-position" keys them by
    (template id, wildcard slot, token) so the same token can score
    differently in different holes.
    """

    template_counts: Mapping[int, CountPair]
    attribute_counts: Mapping[object, CountPair]
    context_counts: Mapping[ContextSignature, CountPair]
    attribute_scope: AttributeScope = "global"

    def attribute_key(self, template_id: int, slot: int, token: str) -> object:
        if self.attribute_scope == "global":
            return token
        return (template_id, slot, token)


def _bump(counts: dict, key: object, anomalous: bool) -> None:
    a, n = counts.get(key, (0, 0))
    counts[key] = (a + 1, n) if anomalous else (a, n + 1)


def build_count_table(
    corpus: Sequence[LogRecord],
    assignment: Sequence[int],
    attribute_sets: Sequence[TokenSequence],
    signatures: Sequence[ContextSignature],
    attribute_scope: AttributeScope = "global",
) -> CountTable:
    """Count every template, attribute-token, and signature occurrence by label.

    Counting is per occurrence: a token repeated in one message's attribute
    set contributes once per repetition, and every message contributes one
    observation of its template and of its signature. Raises ValueError when
    the four sequences differ in length.
    """
    if attribute_scope not in ("global", "per-position"):
        raise ValueError(f"unknown attribute scope {attribute_scope!r}")

    template_counts: dict[int, CountPair] = {}
    attribute_counts: dict[object, CountPair] = {}
    context_counts: dict[ContextSignature, CountPair] = {}
    table = CountTable(template_counts, attribute_counts, context_counts, attribute_scope)
    for rec, tid, attrs, sig in zip(corpus, assignment, attribute_sets, signatures, strict=True):
        anomalous = rec.label is Label.ANOMALOUS
        _bump(template_counts, tid, anomalous)
        _bump(context_counts, sig, anomalous)
        for slot, token in enumerate(attrs):
            _bump(attribute_counts, table.attribute_key(tid, slot, token), anomalous)
    return table


def score_corpus(
    corpus: Sequence[LogRecord],
    table: CountTable,
    assignment: Sequence[int],
    attribute_sets: Sequence[TokenSequence],
    signatures: Sequence[ContextSignature],
    include_normal: bool = False,
) -> dict[int, ScoreTriple]:
    """Score triple per 1-based corpus position, anomalous records only by default.

    Each score is the anomalous share of its key's occurrences in the table;
    the attribute score is the maximum over the message's attribute tokens,
    or None when it has none. Raises ValueError when the four sequences
    differ in length. Keys repeat heavily and share few distinct count
    pairs, so each pair maps to the one Fraction of its value, and each
    distinct trio of those objects to one ScoreTriple, found by identity.
    """
    values: dict[Fraction, Fraction] = {}

    @cache
    def fraction(pair: CountPair) -> Fraction:
        a, n = pair
        value = Fraction(a, a + n)
        return values.setdefault(value, value)

    @cache
    def attribute_score(tid: int, attrs: TokenSequence) -> Fraction | None:
        keys = (table.attribute_key(tid, slot, token) for slot, token in enumerate(attrs))
        return max((fraction(table.attribute_counts[key]) for key in keys), default=None)

    triples: dict[tuple[int, int, int], ScoreTriple] = {}

    def triple(a: Fraction, b: Fraction | None, c: Fraction) -> ScoreTriple:
        key = (id(a), id(b), id(c))
        if key not in triples:
            triples[key] = ScoreTriple(a, b, c)
        return triples[key]

    rows = zip(corpus, assignment, attribute_sets, signatures, strict=True)
    return {
        index: triple(
            fraction(table.template_counts[tid]),
            attribute_score(tid, attrs),
            fraction(table.context_counts[sig]),
        )
        for index, (rec, tid, attrs, sig) in enumerate(rows, start=1)
        if include_normal or rec.label is Label.ANOMALOUS
    }
