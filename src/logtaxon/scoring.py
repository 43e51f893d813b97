"""Exact-fraction anomaly scores over templates, attributes, and contexts.

Every score is the anomalous share of some observation count, kept as a
`fractions.Fraction` so threshold comparisons are exact — a score of 1 means
literally every occurrence was anomalous, with no float rounding involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    observation of its template and of its signature.
    """
    if attribute_scope not in ("global", "per-position"):
        raise ValueError(f"unknown attribute scope {attribute_scope!r}")
    n = len(corpus)
    if not (len(assignment) == len(attribute_sets) == len(signatures) == n):
        raise ValueError("assignment, attribute sets, and signatures must align with the corpus")

    template_counts: dict[int, CountPair] = {}
    attribute_counts: dict[object, CountPair] = {}
    context_counts: dict[ContextSignature, CountPair] = {}
    table = CountTable(template_counts, attribute_counts, context_counts, attribute_scope)
    for rec, tid, attrs, sig in zip(corpus, assignment, attribute_sets, signatures):
        anomalous = rec.label is Label.ANOMALOUS
        _bump(template_counts, tid, anomalous)
        _bump(context_counts, sig, anomalous)
        for slot, token in enumerate(attrs):
            _bump(attribute_counts, table.attribute_key(tid, slot, token), anomalous)
    return table


def _fraction(pair: CountPair) -> Fraction:
    a, n = pair
    return Fraction(a, a + n)


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
    or None when it has none. Inputs repeat heavily (few templates, few
    signatures, recurring attribute sets), so each distinct key is scored
    once and reused.
    """
    per_position = table.attribute_scope == "per-position"
    tpl_cache: dict[int, Fraction] = {}
    ctx_cache: dict[ContextSignature, Fraction] = {}
    attr_cache: dict[object, Fraction | None] = {}
    scores: dict[int, ScoreTriple] = {}
    rows = zip(corpus, assignment, attribute_sets, signatures)
    for index, (rec, tid, attrs, sig) in enumerate(rows, start=1):
        if not include_normal and rec.label is not Label.ANOMALOUS:
            continue
        t_score = tpl_cache.get(tid)
        if t_score is None:
            t_score = tpl_cache[tid] = _fraction(table.template_counts[tid])
        attr_key = (tid, attrs) if per_position else attrs
        if attr_key in attr_cache:
            a_score = attr_cache[attr_key]
        else:
            a_score = attr_cache[attr_key] = max(
                (
                    _fraction(table.attribute_counts[table.attribute_key(tid, slot, token)])
                    for slot, token in enumerate(attrs)
                ),
                default=None,
            )
        c_score = ctx_cache.get(sig)
        if c_score is None:
            c_score = ctx_cache[sig] = _fraction(table.context_counts[sig])
        scores[index] = ScoreTriple(t_score, a_score, c_score)
    return scores
