from array import array
from fractions import Fraction

import pytest

from oracle import mask_ids
from logtaxon.context import ContextBounds, build_all_contexts
from logtaxon.scoring import CountTable, ScoreTriple, build_count_table, score_corpus
from logtaxon.templating import MiningResult, Template, attributes_for_corpus

NO_CONTEXT = 0  # the empty signature


def labeled(*labels):
    """The label column of lines labeled 'A' (anomalous) or 'N' (normal)."""
    return bytes(ch == "A" for ch in labels)


def per_position(tid, attrs):
    """The per-position attribute keys of one sequence of template `tid`."""
    return tuple((tid, slot, token) for slot, token in enumerate(attrs))


def columns(assignment, attribute_sets=None, scope="global"):
    """A mining result of lines with these template ids and attribute tuples, and
    its attribute table by sequence id, keyed under `scope`; lines equal in both
    share a sequence."""
    rows = {}
    lines = zip(assignment, attribute_sets or ((),) * len(assignment))
    sequence_ids = array("I", [rows.setdefault(row, len(rows)) for row in lines])
    sequence_tids = array("I", [tid for tid, _ in rows])
    parameters = tuple(attrs for _, attrs in rows)
    table = (attrs if scope == "global" else per_position(tid, attrs) for tid, attrs in rows)
    return MiningResult((), tuple(assignment), sequence_ids, sequence_tids, parameters), tuple(table)


def table_for(labels, assignment, attribute_sets=None, bounds=ContextBounds(2, 1), scope="global"):
    signatures = build_all_contexts(assignment, bounds)
    mining, attrs = columns(assignment, attribute_sets, scope)
    return build_count_table(labels, mining, attrs, signatures), signatures


def score_one(table, template_id=1, attributes=(), signature=NO_CONTEXT):
    """Score triple of a single anomalous message with these keys, through score_corpus."""
    return score_corpus(labeled("A"), table, *columns([template_id], [attributes]), (signature,))[1]


def scores_for(labels, assignment, attribute_sets=None, bounds=ContextBounds(2, 1), scope="global"):
    """Counts and scores every line, normal ones included."""
    table, sigs = table_for(labels, assignment, attribute_sets, bounds, scope)
    mining, attrs = columns(assignment, attribute_sets, scope)
    scores = score_corpus(labels, table, mining, attrs, sigs, include_normal=True)
    return table, sigs, scores


# --- template score ----------------------------------------------------------


def test_template_score_all_anomalous_is_exactly_one():
    table = CountTable({7: (5, 0)}, {}, {NO_CONTEXT: (5, 0)})
    assert score_one(table, template_id=7).template_score == Fraction(1)


def test_template_score_mixed():
    table = CountTable({1: (3, 1)}, {}, {NO_CONTEXT: (3, 1)})
    assert score_one(table, template_id=1).template_score == Fraction(3, 4)


def test_template_score_counts_from_corpus():
    labels = labeled("A", "A", "N")
    table, _, scores = scores_for(labels, [4, 4, 4])
    assert table.template_counts[4] == (2, 1)
    assert scores[1].template_score == Fraction(2, 3)


def test_template_score_unknown_id():
    table = CountTable({}, {}, {NO_CONTEXT: (1, 0)})
    with pytest.raises(KeyError):
        score_one(table, template_id=1)


# --- attribute score ---------------------------------------------------------


def test_attribute_score_is_max_over_tokens():
    table = CountTable({1: (1, 0)}, {"a": (3, 7), "b": (9, 1)}, {NO_CONTEXT: (1, 0)})
    assert score_one(table, attributes=("a", "b")).attribute_score == Fraction(9, 10)


def test_attribute_score_single_token():
    table = CountTable({1: (1, 0)}, {"x": (2, 8)}, {NO_CONTEXT: (1, 0)})
    assert score_one(table, attributes=("x",)).attribute_score == Fraction(1, 5)


def test_attribute_score_absent_without_attributes():
    table = CountTable({1: (1, 0)}, {}, {NO_CONTEXT: (1, 0)})
    assert score_one(table, attributes=()).attribute_score is None


def test_attribute_counting_is_per_occurrence():
    # 'x' twice in one anomalous message and once in a normal one: 2/3, not 1/2.
    labels = labeled("A", "N")
    table, _, scores = scores_for(labels, [1, 1], attribute_sets=(("x", "x"), ("x", "y")))
    assert table.attribute_counts["x"] == (2, 1)
    assert scores[1].attribute_score == Fraction(2, 3)


def test_attribute_scope_global_pools_across_templates():
    labels = labeled("A", "N", "N")
    _, _, scores = scores_for(labels, [1, 1, 2], attribute_sets=(("x",), ("x",), ("x",)))
    assert scores[1].attribute_score == Fraction(1, 3)
    assert scores[3].attribute_score == Fraction(1, 3)


def test_attribute_scope_per_position_separates_slots():
    labels = labeled("A", "N", "N")
    table, _, scores = scores_for(
        labels,
        [1, 1, 2],
        attribute_sets=(("x",), ("x",), ("x",)),
        scope="per-position",
    )
    assert table.attribute_counts[(1, 0, "x")] == (1, 1)
    assert scores[1].attribute_score == Fraction(1, 2)  # template 1
    assert scores[3].attribute_score == Fraction(0)  # template 2


def test_attribute_keys_are_made_once_per_sequence_and_counted_as_made():
    mining = MiningResult(
        (Template(("start", "*", "at", "*")),),
        (1, 1, 1),
        array("I", [0, 1, 0]),
        array("I", [1, 1]),
        (("mail", "n1"), ("lp", "n1")),
    )
    assert attributes_for_corpus(mining) is mining.parameters
    keys = attributes_for_corpus(mining, "per-position")
    assert keys == (((1, 0, "mail"), (1, 1, "n1")), ((1, 0, "lp"), (1, 1, "n1")))
    table = build_count_table(labeled("A", "N", "N"), mining, keys, [NO_CONTEXT] * 3)
    assert table.attribute_counts == {(1, 0, "mail"): (1, 1), (1, 1, "n1"): (1, 2), (1, 0, "lp"): (0, 1)}
    # Counting builds no key tuple of its own: every table key is one the attribute table holds.
    made = [key for attrs in keys for key in attrs]
    assert all(any(key is k for k in made) for key in table.attribute_counts)


# --- context score -----------------------------------------------------------


def test_context_score_all_anomalous():
    sig = 0b110  # ids 1 and 2
    table = CountTable({1: (4, 0)}, {}, {sig: (4, 0)})
    assert score_one(table, signature=sig).context_score == Fraction(1)


def test_context_score_mixed():
    sig = 0b1000  # id 3
    table = CountTable({1: (1, 3)}, {}, {sig: (1, 3)})
    assert score_one(table, signature=sig).context_score == Fraction(1, 4)


def test_inserted_message_gets_unique_context():
    # Templates cycle 1,2,3; one extra message (template 4) lands at
    # position 5 and is the only record seeing {1,2,3} around itself.
    assignment = [1, 2, 3, 1, 4, 2, 3, 1, 2, 3]
    labels = labeled("N", "N", "N", "N", "A", "N", "N", "N", "N", "N")
    table, sigs, scores = scores_for(labels, assignment, bounds=ContextBounds(before=2, after=1))
    expected = [
        (2,),
        (1, 3),
        (1, 2),
        (2, 3, 4),
        (1, 2, 3),
        (1, 3, 4),
        (1, 2, 4),
        (2, 3),
        (1, 3),
        (1, 2),
    ]
    assert list(map(mask_ids, sigs)) == expected
    assert scores[5].context_score == Fraction(1)
    # The repeated rhythm signatures stay fully normal.
    assert scores[3].context_score == Fraction(0)
    assert table.context_counts[0b110] == (0, 2)  # ids 1 and 2


def test_context_score_unknown_signature():
    table = CountTable({1: (1, 0)}, {}, {})
    with pytest.raises(KeyError):
        score_one(table, signature=0b10)


# --- whole-column scoring ------------------------------------------------------


def test_score_corpus_covers_anomalous_records_only():
    labels = labeled("N", "A", "N", "A")
    table, sigs = table_for(labels, [1, 1, 2, 2])
    scores = score_corpus(labels, table, *columns([1, 1, 2, 2]), sigs)
    assert sorted(scores) == [2, 4]
    assert scores[2].template_score == Fraction(1, 2)
    assert scores[2].attribute_score is None


def test_score_corpus_include_normal():
    labels = labeled("N", "A")
    table, sigs = table_for(labels, [1, 1])
    scores = score_corpus(labels, table, *columns([1, 1]), sigs, include_normal=True)
    assert sorted(scores) == [1, 2]


def test_equal_triples_from_equal_count_pairs_are_one_object():
    # Every signature is empty, so every record scores 1/2, absent, 1/2.
    # First templates 1 and 2 both count (1, 1); then template 2 counts
    # (2, 2), so 1/2 comes from two different count pairs.
    for labels, assignment in [("ANAN", [1, 1, 2, 2]), ("ANANAN", [1, 1, 2, 2, 2, 2])]:
        _, _, scores = scores_for(labeled(*labels), assignment, bounds=ContextBounds(0, 0))
        first = scores[1]
        assert first == ScoreTriple(Fraction(1, 2), None, Fraction(1, 2))
        assert all(triple is first for triple in scores.values())


def test_count_conservation():
    labels = labeled("A", "N", "A", "N", "N")
    assignment = [1, 2, 1, 2, 1]
    attrs = (("p",), ("q",), ("p",), ("p",), ("q",))
    table, sigs = table_for(labels, assignment, attribute_sets=attrs)
    for counts, total in [
        (table.template_counts, 5),
        (table.context_counts, 5),
        (table.attribute_counts, 5),  # one token per record here
    ]:
        assert sum(a + n for a, n in counts.values()) == total
    anom = sum(a for a, _ in table.template_counts.values())
    assert anom == sum(labels)


# Each stage is given two lines but a mining result of one.
@pytest.mark.parametrize(
    "stage",
    [
        lambda labels: build_count_table(labels, *columns([1]), ((), ())),
        lambda labels: score_corpus(
            labels, CountTable({1: (1, 1)}, {}, {(): (1, 1)}), *columns([1]), ((), ())
        ),
    ],
    ids=["build_count_table", "score_corpus"],
)
def test_stages_check_alignment(stage):
    with pytest.raises(ValueError):
        stage(labeled("A", "N"))


LABELED_TABLE = CountTable({1: (1, 1)}, {}, {0: (1, 1)})


@pytest.mark.parametrize(
    "stage",
    [
        lambda labels: build_count_table(labels, *columns([1, 1]), (0, 0)),
        lambda labels: score_corpus(labels, LABELED_TABLE, *columns([1, 1]), (0, 0)),
        lambda labels: score_corpus(labels, LABELED_TABLE, *columns([1, 1]), (0, 0), include_normal=True),
    ],
    ids=["build_count_table", "score_corpus", "score_corpus-every-line"],
)
def test_stages_reject_a_label_byte_other_than_0_and_1(stage):
    # A byte of 2 is truthy: scoring would score its line as anomalous, and
    # counting would count it as both anomalous and normal.
    with pytest.raises(ValueError, match="other than 0 and 1"):
        stage(b"\2\0")


ALIGNED_TABLE = CountTable({1: (2, 1)}, {"x": (2, 1)}, {(): (2, 1)})
MISALIGNED_STAGES = {
    "count-global": lambda c, m, s, g: build_count_table(c, m, s, g),
    # An attribute table of per-position keys, as `attributes_for_corpus` makes it.
    "count-per-position": lambda c, m, s, g: build_count_table(
        c, m, tuple(per_position(1, attrs) for attrs in s), g
    ),
    "score-anomalous": lambda c, m, s, g: score_corpus(c, ALIGNED_TABLE, m, s, g),
    "score-all": lambda c, m, s, g: score_corpus(c, ALIGNED_TABLE, m, s, g, include_normal=True),
}


@pytest.mark.parametrize("stage", MISALIGNED_STAGES)
@pytest.mark.parametrize(
    "which", ["anomalous", "assignment", "sequence_ids", "attribute_sets", "signatures"]
)
@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
def test_count_and_score_reject_every_misaligned_input(stage, which, change):
    # The last line is anomalous, so a loop that stopped at the shortest
    # input would still count or score something rather than fail. The
    # attribute table holds one entry per sequence id, here the one id 0.
    inputs = {
        "anomalous": labeled("N", "A", "A"),
        "assignment": (1, 1, 1),
        "sequence_ids": array("I", [0, 0, 0]),
        "attribute_sets": (("x",),),
        "signatures": [0] * 3,
    }
    inputs[which] = inputs[which][:change] if change < 0 else inputs[which] + inputs[which][:1]
    mining = MiningResult((), inputs["assignment"], inputs["sequence_ids"], array("I", [1]), (("x",),))
    with pytest.raises(ValueError):
        MISALIGNED_STAGES[stage](
            inputs["anomalous"], mining, inputs["attribute_sets"], inputs["signatures"]
        )


def test_attributes_reject_an_unknown_scope():
    mining = MiningResult((Template(("*",)),), (1,), array("I", [0]), array("I", [1]), (("x",),))
    assert attributes_for_corpus(mining, "per-position") == (((1, 0, "x"),),)
    with pytest.raises(ValueError):
        attributes_for_corpus(mining, "per-template")
