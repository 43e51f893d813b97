import pytest

from logtaxon.model import (
    AnomalyKind,
    LabeledCorpus,
    Label,
    LogRecord,
    split_corpus,
)


def rec(i, label, content):
    return LogRecord(index=i, label=label, content=content)


def test_split_corpus_counts_labels():
    corpus = split_corpus(
        [
            rec(1, Label.NORMAL, "a"),
            rec(2, Label.ANOMALOUS, "b"),
            rec(3, Label.NORMAL, "c"),
        ]
    )
    assert len(corpus) == 3
    assert corpus.normal_count == 2
    assert corpus.anomalous_count == 1
    assert corpus.normal_count + corpus.anomalous_count == len(corpus)


def test_split_corpus_rejects_empty():
    with pytest.raises(ValueError, match="empty corpus"):
        split_corpus([])


def test_split_corpus_rejects_gapped_indices():
    with pytest.raises(ValueError, match="contiguous"):
        split_corpus([rec(1, Label.NORMAL, "a"), rec(3, Label.NORMAL, "b")])


def test_split_corpus_rejects_wrong_start():
    with pytest.raises(ValueError, match="contiguous"):
        split_corpus([rec(2, Label.NORMAL, "a")])


def test_record_lookup_is_one_based():
    corpus = split_corpus([rec(1, Label.NORMAL, "first"), rec(2, Label.NORMAL, "second")])
    assert corpus.record(1).content == "first"
    assert corpus.record(2).content == "second"
    with pytest.raises(IndexError):
        corpus.record(0)
    with pytest.raises(IndexError):
        corpus.record(3)


def test_anomalous_records_iterates_in_order():
    corpus = split_corpus(
        [rec(1, Label.ANOMALOUS, "x"), rec(2, Label.NORMAL, "y"), rec(3, Label.ANOMALOUS, "z")]
    )
    assert [r.index for r in corpus.anomalous_records()] == [1, 3]


def test_records_are_immutable():
    r = rec(1, Label.NORMAL, "a")
    with pytest.raises(AttributeError):
        r.content = "b"


def test_anomaly_kind_values_are_stable():
    # These strings appear in JSON reports; changing them breaks consumers.
    assert {k.value for k in AnomalyKind} == {"template", "attribute", "contextual"}
