"""Randomized invariants over the whole pipeline."""

import os
import re
import tempfile
from array import array
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (
    brute_force_counts,
    brute_force_scores,
    naive_attributes,
    naive_mine,
    naive_signature,
    reference_parse,
)
from logtaxon import templating
from logtaxon.context import ContextBounds, build_all_contexts
from logtaxon.ingest import DatasetFormat, read_dataset
from logtaxon.model import AnomalyKind, LogRecord
from logtaxon.pipeline import analyze_corpus
from logtaxon.report import DatasetStats, ThresholdSweep, classify, sweep_report
from logtaxon.scoring import CountTable, ScoreTriple, score_corpus
from logtaxon.templating import (
    DEFAULT_MASK_RULES,
    MaskRule,
    MinerConfig,
    MiningResult,
    attributes_for_corpus,
    mine_templates,
    tokenize,
    tokenize_corpus,
)

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
# Token sequences fed to the miner as they are: literal, digit-bearing and
# wildcard-looking tokens, lengths 0-5, so every tree level and every
# insertion branch is reachable.
miner_inputs = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "x1", "7", "*"]), max_size=5).map(tuple),
    min_size=1,
    max_size=60,
)
# A few base sequences repeated many times, so pass 1 meets most sequences
# again, sometimes after the forest changed and sometimes not.
repetitive_inputs = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "x1", "7", "*"]), max_size=5).map(tuple),
    min_size=1,
    max_size=6,
).flatmap(lambda bases: st.lists(st.sampled_from(bases), min_size=20, max_size=80))
tree_shapes = st.tuples(
    st.integers(2, 6), st.sampled_from([0.2, 0.4, 0.5, 0.75, 1.0]), st.integers(2, 5)
).map(lambda t: MinerConfig(tree_depth=t[0], similarity_threshold=t[1], max_children=t[2]))


def corpus_from(lines):
    records = [LogRecord(anom, text) for anom, text in lines]
    return tokenize_corpus(records)


@given(labeled_lines)
def test_corpus_counts_partition(lines):
    corpus = corpus_from(lines)
    normal = sum(rec.anomalous is False for rec in corpus)
    anomalous = sum(rec.anomalous is True for rec in corpus)
    assert normal + anomalous == len(corpus)
    assert anomalous == sum(1 for anom, _ in lines if anom)


# Few distinct contents, several of them masking to one sequence, so labels
# and contents repeat in runs and interleave.
few_contents = st.sampled_from(["a 1", "a 2", "a  1", "b 0xbeef", "b", ""])


@given(st.lists(st.tuples(st.booleans(), few_contents), max_size=40))
def test_tokenize_corpus_shares_records_without_changing_them(lines):
    corpus = tuple(LogRecord(anomalous, text) for anomalous, text in lines)
    tokenized = tokenize_corpus(corpus)
    assert tuple(tokenized) == tuple(LogRecord(r.anomalous, r.content, tokenize(r.content)) for r in corpus)
    sequences = {}
    for rec in tokenized:
        assert sequences.setdefault(rec.tokens, rec.tokens) is rec.tokens
    for a, b in zip(tokenized, tokenized[1:]):
        assert (a is b) == ((a.anomalous, a.content) == (b.anomalous, b.content))


# Tokens over digits, hex letters and the separators the default rules know,
# mostly glued from pieces that the default rules and the random rules below
# match, so that many tokens match a rule whole.
raw_tokens = st.text("0123456789abcdefxX.=_-+q", min_size=1, max_size=10) | st.lists(
    st.sampled_from(["ab=", "c=", "12", "7", "x", "f", "0x", "1f", ".", "-", "q"]),
    min_size=1,
    max_size=4,
).map("".join)


@st.composite
def mask_rules(draw):
    """A rule of one to three groups, each named or numbered and each optional
    or not, then an ungrouped tail; its replacement mixes literal text with
    references to any of the groups, the whole match included. The pattern
    may start with an inline flag: (?i), or (?x) with a trailing comment."""
    pattern, references = "", ["0"]
    groups = st.tuples(
        st.booleans(), st.sampled_from(["[a-f]+=", r"\d+", "[a-f0-9]", "x"]), st.booleans()
    )
    drawn = draw(st.lists(groups, min_size=1, max_size=3))
    for number, (named, body, optional) in enumerate(drawn, start=1):
        name = f"g{number}"
        pattern += (f"(?P<{name}>{body})" if named else f"({body})") + ("?" if optional else "")
        references += [str(number), name] if named else [str(number)]
    pattern += draw(st.sampled_from(["", "[a-f]*", r"\.\d"]))
    flag = draw(st.sampled_from(["", "(?i)", "(?x)"]))
    pattern = flag + pattern + ("  # a comment" if flag == "(?x)" else "")
    literals = st.sampled_from(["<:M:>", "=", "{}", "%s", "<"])
    references = st.sampled_from(references).map(lambda ref: rf"\g<{ref}>")
    replacement = "".join(draw(st.lists(literals | references, min_size=1, max_size=4)))
    return MaskRule("M", pattern, replacement)


def re_mask(rules, token):
    """The token rewritten by `re` under the first rule that matches it whole."""
    for rule in rules:
        match = re.fullmatch(rule.pattern, token)
        if match:
            return match.expand(rule.replacement)
    return token


@settings(max_examples=300, deadline=None)
@given(
    st.just(DEFAULT_MASK_RULES) | st.lists(mask_rules(), min_size=1, max_size=3),
    st.lists(raw_tokens, max_size=20),
)
def test_masking_matches_re_substitution(rules, tokens):
    mask = templating._masker(rules)
    assert [mask(token) for token in tokens] == [re_mask(rules, token) for token in tokens]


@given(contents)
def test_tokenize_yields_whitespace_free_tokens(text):
    toks = tokenize(text)
    assert all(t and not t.isspace() for t in toks)
    assert all(" " not in t for t in toks)


@given(labeled_lines)
def test_mining_assigns_every_record_a_valid_template(lines):
    sequences = [rec.tokens for rec in corpus_from(lines)]
    mining = mine_templates(sequences)
    assert len(mining.assignment) == len(sequences)
    assert set(mining.assignment) <= set(range(1, len(mining.templates) + 1))
    for tokens, tid in zip(sequences, mining.assignment):
        assert len(mining.templates[tid - 1].tokens) == len(tokens)


@settings(max_examples=200, deadline=None)
@given(tree_lines, st.integers(2, 6), st.integers(2, 5))
def test_mining_never_raises_at_any_tree_shape(lines, depth, max_children):
    sequences = [rec.tokens for rec in corpus_from(lines)]
    mining = mine_templates(sequences, MinerConfig(tree_depth=depth, max_children=max_children))
    for tokens, tid in zip(sequences, mining.assignment):
        assert len(mining.templates[tid - 1].tokens) == len(tokens)


@settings(max_examples=1000, deadline=None)
@given(miner_inputs, tree_shapes)
def test_mining_matches_the_naive_reference_miner(token_lists, config):
    mining = mine_templates(token_lists, config)
    templates, assignment = naive_mine(
        token_lists, config.tree_depth, config.similarity_threshold, config.max_children
    )
    assert [t.tokens for t in mining.templates] == templates
    assert tuple(mining.assignment) == assignment


@settings(max_examples=500, deadline=None)
@given(repetitive_inputs, tree_shapes)
def test_mining_repeated_sequences_matches_the_naive_reference_miner(token_lists, config):
    mining = mine_templates(token_lists, config)
    templates, assignment = naive_mine(
        token_lists, config.tree_depth, config.similarity_threshold, config.max_children
    )
    assert [t.tokens for t in mining.templates] == templates
    assert tuple(mining.assignment) == assignment


@settings(max_examples=500, deadline=None)
@given(miner_inputs | repetitive_inputs, tree_shapes)
def test_pass_1_ids_at_the_final_epoch_are_what_pass_2_assigns(token_lists, config):
    # Every line is learned, settled or not: learning a sequence settled at the
    # current epoch must pick its settled id and leave the forest as it was.
    forest = templating._Forest(config)
    settled = {}  # sequence: (epoch, template id) of its last settling
    for tokens in token_lists:
        epoch, seen = forest.epoch, settled.get(tokens)
        tid, ok = forest.learn(tokens)
        if seen is not None and seen[0] == epoch:
            assert (tid, ok, forest.epoch) == (seen[1], True, epoch)
        if ok:
            settled[tokens] = (forest.epoch, tid)
    for tokens, (epoch, tid) in settled.items():
        if epoch == forest.epoch:
            assert forest.assign(tokens) == tid


@settings(max_examples=500, deadline=None)
@given(miner_inputs | repetitive_inputs, tree_shapes)
def test_best_match_is_a_brute_force_scan_of_the_leaf(token_lists, config):
    # Every match of both passes, against a recount of each leaf template's
    # literal hits and wildcards from its tokens, the first made on ties.
    best_match = templating._Forest._best_match

    def checked(forest, leaf, tokens):
        def hits(tid):
            template = forest.templates[tid - 1]
            return sum(t == w != templating.WILDCARD for t, w in zip(template, tokens))

        def rank(tid):
            return hits(tid), forest.templates[tid - 1].count(templating.WILDCARD), -tid

        expected = max(leaf.ids, key=rank)
        found = best_match(forest, leaf, tokens)
        assert found == (expected, hits(expected))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(templating._Forest, "_best_match", checked)
        mine_templates(token_lists, config)


@settings(max_examples=500, deadline=None)
@given(miner_inputs | repetitive_inputs, tree_shapes)
def test_per_sequence_tables_hold_each_lines_template_and_parameters(token_lists, config):
    # The miner's per-sequence tables, against every line that holds the
    # sequence: its template id, and its tokens under the template's "*"
    # positions by direct scan, literal "*" tokens included.
    mining = mine_templates(token_lists, config)
    tids, parameters = mining.sequence_tids, mining.parameters
    assert len(parameters) == len(tids) == max(mining.sequence_ids) + 1
    for tokens, sid, tid in zip(token_lists, mining.sequence_ids, mining.assignment, strict=True):
        assert tid == tids[sid]
        assert parameters[sid] == naive_attributes(tokens, mining.templates[tid - 1].tokens)
    assert attributes_for_corpus(mining, "per-position") == tuple(
        tuple((tid, slot, token) for slot, token in enumerate(attrs))
        for tid, attrs in zip(tids, parameters)
    )


# Random ids, or one id through the whole corpus; bounds up to past either end.
assignments = st.lists(st.integers(1, 5), max_size=40) | st.integers(1, 5).flatmap(
    lambda tid: st.lists(st.just(tid), max_size=40)
)


@example([], 3, 3)
@example([2] * 12, 4, 4)
@example([1, 2, 3, 1], 0, 0)
@example([1, 2, 1, 3], 0, 50)
@example([1, 2, 1, 3], 50, 0)
@given(assignments, st.integers(0, 50), st.integers(0, 50))
def test_context_window_subset_and_exclusion(assignment, before, after):
    sigs = build_all_contexts(assignment, ContextBounds(before, after))
    assert tuple(sigs) == tuple(
        naive_signature(assignment, i, before, after) for i in range(1, len(assignment) + 1)
    )


@given(st.integers(0, 50), st.integers(0, 50))
def test_template_score_is_exact_fraction(anomalous, normal):
    if anomalous + normal == 0:
        return
    table = CountTable({1: (anomalous, normal)}, {}, {(): (1, 0)})
    one_line = MiningResult((), (1,), array("I", [0]), array("I", [1]), ((),))
    score = score_corpus(b"\1", table, one_line, ((),), ((),))[1].template_score
    assert score == Fraction(anomalous, anomalous + normal)
    assert 0 <= score <= 1


@given(triples, thresholds, thresholds)
def test_classification_shrinks_as_threshold_rises(triple, t1, t2):
    lo, hi = sorted([t1, t2])
    assert classify(triple, hi) <= classify(triple, lo)


def _copy(triple):
    """An equal-valued ScoreTriple that shares none of `triple`'s objects."""
    parts = (triple.template_score, triple.attribute_score, triple.context_score)
    return ScoreTriple(*(None if f is None else Fraction(f.numerator, f.denominator) for f in parts))


@given(
    st.lists(triples, min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=30),
    st.lists(thresholds, min_size=1, max_size=4, unique=True).map(sorted),
)
def test_sweep_matches_a_per_line_tally(shared, picks, ts):
    # Each line holds one of a few shared triples or an equal-valued copy, so
    # equal values arrive both as one object and as distinct objects.
    scores = {}
    for index, (pick, copy) in enumerate(picks, start=1):
        triple = shared[pick % len(shared)]
        scores[index] = _copy(triple) if copy else triple
    report = sweep_report(scores, ThresholdSweep(tuple(ts)), DatasetStats(0, len(scores), 0, 0, 0))
    for row, t in zip(report.rows, ts, strict=True):
        kinds = [classify(triple, t) for triple in scores.values()]
        assert row.counts == {kind: sum(kind in k for k in kinds) for kind in AnomalyKind}
        assert row.classified == sum(1 for k in kinds if k)
        assert row.unclassified == len(scores) - row.classified


@given(st.dictionaries(st.integers(1, 30), triples, max_size=20))
def test_report_rows_partition_the_scored_set(scores):
    stats = DatasetStats(0, len(scores), 0, 0, 0)
    report = sweep_report(scores, ThresholdSweep((Fraction(1, 2), Fraction(1))), stats)
    for row in report.rows:
        assert row.classified + row.unclassified == len(scores)
        for kind_count in row.counts.values():
            assert 0 <= kind_count <= len(scores)


@settings(max_examples=80, deadline=None)
@given(
    labeled_lines,
    st.integers(0, 4),
    st.integers(0, 3),
    st.sampled_from(["global", "per-position"]),
    st.booleans(),
)
def test_pipeline_scores_match_brute_force(lines, before, after, scope, include_normal):
    corpus = corpus_from(lines)
    analysis = analyze_corpus(
        corpus,
        bounds=ContextBounds(before, after),
        attribute_scope=scope,
        include_normal_scores=include_normal,
    )
    mined = (corpus, analysis.mining.templates, analysis.mining.assignment, before, after)
    expected = brute_force_scores(*mined, scope, include_normal)
    got = {
        i: (s.template_score, s.attribute_score, s.context_score)
        for i, s in analysis.scores.items()
    }
    assert got == expected
    # The report filter: of a map over every line, the scores of anomalous lines.
    anomalous = bytes([rec.anomalous for rec in corpus])
    everything = brute_force_scores(*mined, scope, True)
    assert dict(compress(everything.items(), anomalous)) == brute_force_scores(*mined, scope)
    table = analysis.table
    counts = (table.template_counts, table.attribute_counts, table.context_counts)
    assert counts == brute_force_counts(*mined, scope)


@settings(max_examples=80, deadline=None)
@example([(False, "a b"), (False, "send 17")], False)
@example([(False, "a b"), (False, "send 17")], True)
@given(labeled_lines, st.booleans())
def test_score_column_reads_as_the_dict_it_replaces(lines, include_normal):
    corpus = corpus_from(lines)
    bounds = ContextBounds(2, 1)
    analysis = analyze_corpus(corpus, bounds=bounds, include_normal_scores=include_normal)
    mined = (corpus, analysis.mining.templates, analysis.mining.assignment, bounds.before, bounds.after)
    expected = {i: ScoreTriple(*t) for i, t in brute_force_scores(*mined, "global", include_normal).items()}
    scores = analysis.scores
    assert scores == expected and expected == scores
    assert (scores == {}) == (not expected)
    assert len(scores) == len(expected)
    assert list(scores) == list(expected)  # ascending line order
    assert all(scores[i] == triple and i in scores for i, triple in expected.items())
    unscored = [0, len(corpus) + 1, "1", None, *(i for i in range(1, len(corpus) + 1) if i not in expected)]
    for index in unscored:
        assert index not in scores
        with pytest.raises(KeyError):
            scores[index]
    # The views walk the columns afresh on every pass.
    values, items = scores.values(), scores.items()
    assert list(values) == list(values) == list(expected.values())
    assert list(items) == list(items) == list(expected.items())
    assert len(values) == len(items) == len(expected)


# Header fields, labels and content words, whitespace that str.split breaks
# on (tab, vertical tab, ideographic space and a lone carriage return), and
# byte-order marks, in any order: blank, header-only and short lines arise.
line_pieces = st.sampled_from(
    ["-", "ANOM", "a", "b7", "h1 h2 h3 h4 ", " ", "  ", "\t", "\x0b", "\u3000", "\r", "\ufeff"]
)
dataset_texts = st.tuples(
    st.lists(st.lists(line_pieces, max_size=16).map("".join), max_size=12).map("\n".join),
    st.sampled_from(["", "\n", "\r\n"]),
).map("".join)


layouts = st.sampled_from([1, 2, 8]).flatmap(lambda w: st.tuples(st.just(w), st.integers(0, w - 1)))
normal_tokens = st.sampled_from(["-", "a"])
limits = st.none() | st.integers(1, 6)


def written(tmp, text):
    path = os.path.join(tmp, "data.log")
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    return path


@settings(max_examples=300, deadline=None)
@given(dataset_texts, layouts, normal_tokens, limits)
def test_read_dataset_matches_the_reference_parser(text, layout, normal, limit):
    width, label_field = layout
    expected, lines_read, malformed = reference_parse(text, width, label_field, normal, limit)
    fmt = DatasetFormat(header_fields=width, label_field=label_field, normal_token=normal)
    with tempfile.TemporaryDirectory() as tmp:
        path = written(tmp, text)
        if not expected:
            with pytest.raises(ValueError, match="empty corpus"):
                read_dataset(path, fmt, limit)
            return
        corpus, summary = read_dataset(path, fmt, limit)
    assert [(rec.anomalous, rec.content) for rec in corpus] == expected
    assert (summary.lines_read, summary.malformed_skipped) == (lines_read, malformed)


def outcome_of_reading(path, fmt, limit, **kwargs):
    """`read_dataset`'s records and summary, or the error it raised."""
    try:
        return read_dataset(path, fmt, limit, **kwargs)
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None)
@given(
    dataset_texts,
    layouts,
    normal_tokens,
    limits,
    st.just(DEFAULT_MASK_RULES) | st.lists(mask_rules(), max_size=3).map(tuple),
)
def test_read_dataset_with_mask_rules_is_read_then_tokenize_corpus(text, layout, normal, limit, rules):
    width, label_field = layout
    fmt = DatasetFormat(header_fields=width, label_field=label_field, normal_token=normal)
    with tempfile.TemporaryDirectory() as tmp:
        path = written(tmp, text)
        raw, expected_summary = outcome_of_reading(path, fmt, limit)
        corpus, summary = outcome_of_reading(path, fmt, limit, mask_rules=rules)
    assert summary == expected_summary  # the same IngestSummary, or the same error
    if raw is None:
        assert corpus is None
        return
    expected = tokenize_corpus(raw, rules)
    assert corpus == expected
    for i, a in enumerate(corpus):  # records are shared exactly where tokenize_corpus shares them
        assert [a is b for b in corpus[i:]] == [expected[i] is b for b in expected[i:]]
    sequences = {}
    for rec in corpus:
        assert sequences.setdefault(rec.tokens, rec.tokens) is rec.tokens


@settings(max_examples=25, deadline=None)
@given(labeled_lines)
def test_scores_always_in_unit_interval(lines):
    analysis = analyze_corpus(corpus_from(lines))
    for s in analysis.scores.values():
        assert 0 <= s.template_score <= 1
        assert s.attribute_score is None or 0 <= s.attribute_score <= 1
        assert 0 <= s.context_score <= 1
