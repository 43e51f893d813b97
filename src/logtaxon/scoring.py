"""Exact-fraction anomaly scores over templates, attributes, and contexts.

Every score is the anomalous share of some observation count, kept as a
`fractions.Fraction` so threshold comparisons are exact — a score of 1 means
literally every occurrence was anomalous, with no float rounding involved.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, compress, count, repeat
from operator import mul
from typing import Iterable, Literal, Mapping, Sequence

from .context import ContextSignature
from .model import TokenSequence
from .templating import MiningResult

# (anomalous, normal) observation counts.
CountPair = tuple[int, int]

AttributeScope = Literal["global", "per-position"]
_SPLIT = 1 << 62  # more occurrences of one key than any corpus holds


@dataclass(frozen=True, slots=True)
class ScoreTriple:
    """The three scores of one message.

    attribute_score is None ("absent") when the message's template has no
    wildcard positions, i.e. there is nothing variable to score.
    """

    template_score: Fraction
    attribute_score: Fraction | None
    context_score: Fraction


@dataclass(frozen=True)
class CountTable:
    """Per-label occurrence counts for templates, attribute tokens, and signatures.

    Attribute keys depend on the scope: "global" pools a token's occurrences
    across all templates and positions, "per-position" keys them by
    (template id, wildcard slot, token) so the same token can score
    differently in different holes. `build_count_table` fills Counters.
    """

    template_counts: Mapping[int, CountPair]
    attribute_counts: Mapping[object, CountPair]
    context_counts: Mapping[ContextSignature, CountPair]
    attribute_scope: AttributeScope = "global"


def _check_aligned(anomalous: bytes, mining: MiningResult, attrs: Sequence, sigs: Sequence) -> None:
    if any(len(c) != len(anomalous) for c in (mining.assignment, mining.sequence_ids, sigs)):
        raise ValueError("the label column and the other per-line columns differ in length")
    if len(attrs) != mining.sequence_count:
        raise ValueError("the attribute table does not hold one entry per sequence id")


def _tally(anomalous: Iterable, normal: Iterable) -> Counter:
    """{key: (anomalous, normal)} of two key streams in one Counter: anomalous occurrences count
    _SPLIT, normal ones 1; divmod splits each sum into one pair per distinct sum, adding no key."""
    counts = Counter(anomalous)
    dict.update(counts, zip(counts, map(mul, counts.values(), repeat(_SPLIT))))
    counts.update(normal)
    dict.update(counts, zip(counts, map(cache(divmod), counts.values(), repeat(_SPLIT))))
    return counts


def build_count_table(
    anomalous: bytes,
    mining: MiningResult,
    attribute_sets: Sequence[TokenSequence],
    signatures: Sequence[ContextSignature],
    attribute_scope: AttributeScope = "global",
) -> CountTable:
    """Count every template, attribute-token, and signature occurrence by label.

    `anomalous` holds one byte per line, 1 for an anomalous one, and `attribute_sets`
    a tuple per sequence id. Counting is per occurrence: a token repeated in one
    message's attribute set contributes once per repetition, and every message
    contributes one observation of its template and of its signature. Raises
    ValueError when the columns do not align, or a label byte is neither 0 nor 1.
    """
    if attribute_scope not in ("global", "per-position"):
        raise ValueError(f"unknown attribute scope {attribute_scope!r}")
    _check_aligned(anomalous, mining, attribute_sets, signatures)
    if anomalous.translate(None, b"\0\1"):  # else a line would count as both
        raise ValueError("the label column holds a byte other than 0 and 1")
    normal = anomalous.translate(bytes.maketrans(b"\0\1", b"\1\0"))

    def attribute_keys(kept: bytes) -> Iterable:
        """The attribute-table key of every token of the kept lines."""
        attrs = map(attribute_sets.__getitem__, compress(mining.sequence_ids, kept))
        if attribute_scope == "global":
            return chain.from_iterable(attrs)
        tids = map(repeat, compress(mining.assignment, kept))
        return chain.from_iterable(map(zip, tids, map(count, repeat(0)), attrs))

    return CountTable(
        _tally(compress(mining.assignment, anomalous), compress(mining.assignment, normal)),
        _tally(attribute_keys(anomalous), attribute_keys(normal)),
        _tally(compress(signatures, anomalous), compress(signatures, normal)),
        attribute_scope,
    )


def score_corpus(
    anomalous: bytes,
    table: CountTable,
    mining: MiningResult,
    attribute_sets: Sequence[TokenSequence],
    signatures: Sequence[ContextSignature],
    include_normal: bool = False,
) -> dict[int, ScoreTriple]:
    """Score triple per 1-based line position, anomalous lines only by default.

    Each score is the anomalous share of its key's occurrences in the table;
    the attribute score is the maximum over the message's attribute tokens,
    or None when it has none. Takes and checks the columns as `build_count_table`
    does. Keys repeat heavily and share few distinct count pairs, so each pair
    maps to one Fraction, and each distinct trio of score values to one ScoreTriple.
    """
    _check_aligned(anomalous, mining, attribute_sets, signatures)

    @cache
    def fraction(pair: CountPair) -> Fraction:
        a, n = pair
        return Fraction(a, a + n)

    # (template score, attribute score, {context count pair: triple}) per
    # distinct pair of scores; keyed by value, so that equal scores from
    # different count pairs still share one triple.
    shared_head, triple = cache(lambda t, a: (t, a, {})), cache(ScoreTriple)

    def head(sid: int, tid: int) -> tuple[Fraction, Fraction | None, dict]:
        attrs = attribute_sets[sid]
        keys = attrs if table.attribute_scope == "global" else zip(repeat(tid), count(), attrs)
        a = max((fraction(table.attribute_counts[key]) for key in keys), default=None)
        return by_row.setdefault(sid, shared_head(fraction(table.template_counts[tid]), a))

    # Only scored lines are visited, with no call once their sequence and pair were seen.
    rows = zip(count(1), mining.sequence_ids, mining.assignment, signatures)
    by_row, contexts, scores = {}, table.context_counts, {}
    for index, sid, tid, sig in rows if include_normal else compress(rows, anomalous):
        t, a, by_pair = by_row.get(sid) or head(sid, tid)
        pair = contexts[sig]
        scores[index] = by_pair.get(pair) or by_pair.setdefault(pair, triple(t, a, fraction(pair)))
    return scores
