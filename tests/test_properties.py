"""Randomized invariants over the whole pipeline."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import brute_force_scores
from logtaxon.context import ContextBounds, build_all_contexts, build_context
from logtaxon.model import Label, LogRecord, split_corpus
from logtaxon.pipeline import analyze_corpus
from logtaxon.report import ThresholdSweep, classify, sweep_report
from logtaxon.scoring import CountTable, ScoreTriple, score_template
from logtaxon.templating import MinerConfig, mine_templates, tokenize, tokenize_corpus

WORDS = ["alpha", "beta", "gamma", "fetch", "send", "17", "409", "0xbeef", "node7x", "10.0.0.9"]

contents = st.lists(st.sampled_from(WORDS), min_size=0, max_size=6).map(" ".join)
labeled_lines = st.lists(st.tuples(st.booleans(), contents), min_size=1, max_size=60)
fractions = st.integers(0, 40).flatmap(
    lambda a: st.integers(a, 60).map(lambda b: Fraction(a, b) if b else Fraction(0))
)
triples = st.tuples(fractions, st.none() | fractions, fractions).map(
    lambda t: ScoreTriple(*t)
)
thresholds = st.integers(1, 100).map(lambda n: Fraction(n, 100))
# Few distinct tokens, one of them digit-bearing (routed to the wildcard
# child), and enough lines that deep trees grow literal and wildcard
# branches side by side.
tree_contents = st.lists(st.sampled_from(["a", "b", "x1"]), min_size=2, max_size=4).map(" ".join)
tree_lines = st.lists(st.tuples(st.booleans(), tree_contents), min_size=20, max_size=60)


def corpus_from(lines):
    records = [
        LogRecord(i, Label.ANOMALOUS if anom else Label.NORMAL, text)
        for i, (anom, text) in enumerate(lines, start=1)
    ]
    return tokenize_corpus(split_corpus(records))


@given(labeled_lines)
def test_corpus_counts_partition(lines):
    corpus = corpus_from(lines)
    assert corpus.normal_count + corpus.anomalous_count == len(corpus)
    assert corpus.anomalous_count == sum(1 for _ in corpus.anomalous_records())


@given(contents)
def test_tokenize_yields_whitespace_free_tokens(text):
    toks = tokenize(text)
    assert all(t and not t.isspace() for t in toks)
    assert all(" " not in t for t in toks)


@given(labeled_lines)
def test_mining_assigns_every_record_a_valid_template(lines):
    corpus = corpus_from(lines)
    mining = mine_templates(corpus)
    assert len(mining.assignment) == len(corpus)
    ids = {t.id for t in mining.templates}
    assert set(mining.assignment) <= ids
    for rec, tid in zip(corpus.records, mining.assignment):
        assert len(mining.template(tid).tokens) == len(rec.tokens)


@settings(max_examples=200, deadline=None)
@given(tree_lines, st.integers(2, 6), st.integers(2, 5))
def test_mining_never_raises_at_any_tree_shape(lines, depth, max_children):
    corpus = corpus_from(lines)
    mining = mine_templates(corpus, MinerConfig(tree_depth=depth, max_children=max_children))
    for rec, tid in zip(corpus.records, mining.assignment):
        assert len(mining.template(tid).tokens) == len(rec.tokens)


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=40),
    st.integers(0, 6),
    st.integers(0, 6),
)
def test_context_window_subset_and_exclusion(assignment, before, after):
    bounds = ContextBounds(before, after)
    sigs = build_all_contexts(assignment, bounds)
    n = len(assignment)
    for i in range(1, n + 1):
        sig = sigs[i - 1]
        window = [
            assignment[j - 1]
            for j in range(max(1, i - before), min(n, i + after) + 1)
            if j != i
        ]
        assert sig == frozenset(window)
        assert sig == build_context(assignment, i, bounds)


@given(st.integers(0, 50), st.integers(0, 50))
def test_template_score_is_exact_fraction(anomalous, normal):
    if anomalous + normal == 0:
        return
    table = CountTable({1: (anomalous, normal)}, {}, {})
    score = score_template(table, 1)
    assert score == Fraction(anomalous, anomalous + normal)
    assert 0 <= score <= 1


@given(triples, thresholds, thresholds)
def test_classification_shrinks_as_threshold_rises(triple, t1, t2):
    lo, hi = sorted([t1, t2])
    assert classify(triple, hi) <= classify(triple, lo)


@given(st.dictionaries(st.integers(1, 30), triples, max_size=20))
def test_report_rows_partition_the_scored_set(scores):
    report = sweep_report(scores, ThresholdSweep((Fraction(1, 2), Fraction(1))))
    for row in report.rows:
        assert row.classified + row.unclassified == len(scores)
        for kind_count in row.counts.values():
            assert 0 <= kind_count <= len(scores)


@settings(max_examples=40, deadline=None)
@given(labeled_lines, st.integers(0, 4), st.integers(0, 3))
def test_pipeline_scores_match_brute_force(lines, before, after):
    corpus = corpus_from(lines)
    analysis = analyze_corpus(corpus, bounds=ContextBounds(before, after))
    expected = brute_force_scores(
        analysis.corpus, analysis.mining.templates, analysis.mining.assignment, before, after
    )
    got = {
        i: (s.template_score, s.attribute_score, s.context_score)
        for i, s in analysis.scores.items()
    }
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(labeled_lines)
def test_scores_always_in_unit_interval(lines):
    analysis = analyze_corpus(corpus_from(lines))
    for s in analysis.scores.values():
        assert 0 <= s.template_score <= 1
        assert s.attribute_score is None or 0 <= s.attribute_score <= 1
        assert 0 <= s.context_score <= 1
