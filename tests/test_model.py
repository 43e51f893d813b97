import pytest

from logtaxon.model import AnomalyKind, LogRecord
from logtaxon.pipeline import analyze_corpus


def test_split_corpus_rejects_empty():
    with pytest.raises(ValueError, match="empty corpus"):
        analyze_corpus(())


def test_an_empty_iterator_is_an_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        analyze_corpus(iter(()))


def test_records_are_immutable():
    r = LogRecord(False, "a")
    with pytest.raises(AttributeError):
        r.content = "b"


def test_anomaly_kind_values_are_stable():
    # These strings appear in JSON reports; changing them breaks consumers.
    assert {k.value for k in AnomalyKind} == {"template", "attribute", "contextual"}
