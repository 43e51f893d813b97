"""Exact-fraction anomaly scores over templates, attributes, and contexts.

Every score is the anomalous share of some observation count, kept as a
`fractions.Fraction` so threshold comparisons are exact — a score of 1 means
literally every occurrence was anomalous, with no float rounding involved.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import ItemsView, Iterable, Iterator, Mapping, Sequence, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partialmethod
from itertools import chain, compress, count, repeat
from operator import mul

from .context import ContextSignature
from .templating import MiningResult

# (anomalous, normal) observation counts.
CountPair = tuple[int, int]
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
    """Per-label occurrence counts for templates, attribute keys, and signatures.

    The attribute keys are those of the attribute table, as `attributes_for_corpus`
    made them under its scope: tokens, or (template id, wildcard slot, token)
    tuples. `build_count_table` fills Counters.
    """

    template_counts: Mapping[int, CountPair]
    attribute_counts: Mapping[object, CountPair]
    context_counts: Mapping[ContextSignature, CountPair]


@dataclass(frozen=True, eq=False, slots=True)
class ScoreColumn(Mapping[int, ScoreTriple]):
    """A read-only {1-based line index: ScoreTriple}, held as one triple id per scored line."""

    class _Values(ValuesView):  # views walk the columns as often as asked, with no lookup per key
        def __iter__(self) -> Iterator[ScoreTriple]:
            return map(self._mapping.triples.__getitem__, self._mapping.ids)

    class _Items(ItemsView):
        def __iter__(self) -> Iterator[tuple[int, ScoreTriple]]:
            return zip(self._mapping.indices, self._mapping.values())

    triples: tuple[ScoreTriple, ...]  # the distinct triples, by triple id
    indices: Sequence[int]  # the scored lines', ascending: a range when every line is scored
    ids: array  # one triple id per scored line
    values, items = partialmethod(_Values), partialmethod(_Items)

    def __getitem__(self, index: int) -> ScoreTriple:
        at = bisect_left(self.indices, index) if isinstance(index, int) else len(self.ids)
        if at == len(self.ids) or self.indices[at] != index:
            raise KeyError(index)
        return self.triples[self.ids[at]]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)


def _check_aligned(anomalous: bytes, mining: MiningResult, attrs: Sequence, sigs: Sequence) -> None:
    if any(len(c) != len(anomalous) for c in (mining.assignment, mining.sequence_ids, sigs)):
        raise ValueError("the label column and the other per-line columns differ in length")
    if len(attrs) != len(mining.parameters):
        raise ValueError("the attribute table does not hold one entry per sequence id")
    if anomalous.translate(None, b"\0\1"):  # else a line would count or score as both
        raise ValueError("the label column holds a byte other than 0 and 1")


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
    attribute_sets: Sequence[tuple],
    signatures: Sequence[ContextSignature],
) -> CountTable:
    """Count every template, attribute-key, and signature occurrence by label.

    `anomalous` holds one byte per line, 1 for an anomalous one, and `attribute_sets`
    the tuple of attribute keys per sequence id that `attributes_for_corpus` made; the
    table's keys are those very objects. Counting is per occurrence: a key repeated in
    one message's attribute set contributes once per repetition, and every message
    contributes one observation of its template and of its signature. Raises
    ValueError when the columns do not align, or a label byte is neither 0 nor 1.
    """
    _check_aligned(anomalous, mining, attribute_sets, signatures)
    normal = anomalous.translate(bytes.maketrans(b"\0\1", b"\1\0"))

    def attribute_keys(kept: bytes) -> Iterable:
        """Every attribute key of the kept lines."""
        return chain.from_iterable(map(attribute_sets.__getitem__, compress(mining.sequence_ids, kept)))

    return CountTable(
        _tally(compress(mining.assignment, anomalous), compress(mining.assignment, normal)),
        _tally(attribute_keys(anomalous), attribute_keys(normal)),
        _tally(compress(signatures, anomalous), compress(signatures, normal)),
    )


def score_corpus(
    anomalous: bytes,
    table: CountTable,
    mining: MiningResult,
    attribute_sets: Sequence[tuple],
    signatures: Sequence[ContextSignature],
    include_normal: bool = False,
) -> ScoreColumn:
    """Score triple per 1-based line position, anomalous lines only by default, in a ScoreColumn.

    Each score is the anomalous share of its key's occurrences in the table;
    the attribute score is the maximum over the message's attribute keys,
    or None when it has none. Takes and checks the columns as `build_count_table`
    does. Keys repeat heavily and share few distinct count pairs, so each pair
    maps to one Fraction, and each distinct trio of score values to one ScoreTriple and one id.
    """
    _check_aligned(anomalous, mining, attribute_sets, signatures)

    @cache
    def fraction(pair: CountPair) -> Fraction:
        a, n = pair
        return Fraction(a, a + n)

    # (template score, attribute score, {context count pair: triple id}) per distinct pair
    # of scores; ids are keyed by value, so equal scores from different pairs share one.
    shared_head, id_of = cache(lambda t, a: (t, a, {})), {}
    new_id = lambda t, a, pair: id_of.setdefault(ScoreTriple(t, a, fraction(pair)), len(id_of))

    def head(sid: int) -> tuple[Fraction, Fraction | None, dict]:
        t = fraction(table.template_counts[mining.sequence_tids[sid]])
        a = max((fraction(table.attribute_counts[key]) for key in attribute_sets[sid]), default=None)
        return by_row.setdefault(sid, shared_head(t, a))

    # Only scored lines are visited, with no call once their sequence and pair were seen.
    rows, contexts = zip(count(1), mining.sequence_ids, signatures), table.context_counts
    by_row, ids, indices = {}, array("I"), range(1, len(anomalous) + 1) if include_normal else array("I")
    for index, sid, sig in rows if include_normal else compress(rows, anomalous):
        t, a, by_pair = by_row.get(sid) or head(sid)
        pair = contexts[sig]
        ids.append(by_pair[pair] if pair in by_pair else by_pair.setdefault(pair, new_id(t, a, pair)))
        include_normal or indices.append(index)
    return ScoreColumn(tuple(id_of), indices, ids)
