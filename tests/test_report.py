import json
from fractions import Fraction

import pytest

from logtaxon.model import AnomalyKind, LogRecord
from logtaxon.pipeline import analyze_corpus
from logtaxon.report import (
    DEFAULT_THRESHOLDS,
    DatasetStats,
    ThresholdSweep,
    classify,
    dataset_statistics,
    sweep_report,
)
from logtaxon.scoring import ScoreTriple


def triple(t, a, c):
    return ScoreTriple(
        template_score=Fraction(t) if not isinstance(t, Fraction) else t,
        attribute_score=None if a is None else Fraction(a),
        context_score=Fraction(c) if not isinstance(c, Fraction) else c,
    )


# --- thresholds ----------------------------------------------------------------


def test_default_sweep_is_exact_rationals():
    assert DEFAULT_THRESHOLDS == (
        Fraction(3, 5),
        Fraction(7, 10),
        Fraction(4, 5),
        Fraction(9, 10),
        Fraction(1),
    )


def test_parse_uses_decimal_not_binary_float():
    sweep = ThresholdSweep.parse("0.6,0.7,1.0")
    assert sweep.thresholds == (Fraction(3, 5), Fraction(7, 10), Fraction(1))
    # The binary double nearest to 0.7 is slightly below 7/10; parsing through
    # the decimal string must not inherit that.
    assert sweep.thresholds[1] == Fraction(7, 10) != Fraction(0.7)


def test_sweep_normalizes_floats_via_decimal_text():
    sweep = ThresholdSweep((0.7, 1.0))
    assert sweep.thresholds == (Fraction(7, 10), Fraction(1))


@pytest.mark.parametrize("text", ["0.5,1/0", "0.5,half"])
def test_parse_names_a_bad_entry(text):
    bad = text.split(",")[1]
    with pytest.raises(ValueError, match=f"bad threshold '{bad}'"):
        ThresholdSweep.parse(text)


def test_sweep_validation():
    with pytest.raises(ValueError):
        ThresholdSweep(())
    with pytest.raises(ValueError):
        ThresholdSweep((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        ThresholdSweep((Fraction(8, 10), Fraction(6, 10)))
    with pytest.raises(ValueError):
        ThresholdSweep((Fraction(0),))
    with pytest.raises(ValueError):
        ThresholdSweep((Fraction(11, 10),))
    with pytest.raises(ValueError):
        ThresholdSweep.parse("")


# --- classification -----------------------------------------------------------


def test_classify_threshold_is_inclusive():
    s = triple(Fraction(7, 10), None, 0)
    assert classify(s, Fraction(7, 10)) == frozenset({AnomalyKind.TEMPLATE})
    assert classify(s, Fraction(71, 100)) == frozenset()


def test_classify_multi_label():
    s = triple(1, 1, 1)
    assert classify(s, 1) == frozenset(AnomalyKind)


def test_classify_empty_set_means_outside_taxonomy():
    s = triple(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    assert classify(s, Fraction(9, 10)) == frozenset()


def test_classify_absent_attribute_never_fires():
    s = triple(0, None, 0)
    assert AnomalyKind.ATTRIBUTE not in classify(s, Fraction(1, 100))


def test_classify_exact_one_at_threshold_one():
    # 2999999/3000000 is *almost* one; only an exact 1 passes threshold 1.0.
    almost = triple(Fraction(2999999, 3000000), None, 1)
    assert classify(almost, 1) == frozenset({AnomalyKind.CONTEXTUAL})


def test_classify_rejects_bad_threshold():
    with pytest.raises(ValueError):
        classify(triple(1, None, 1), 0)
    with pytest.raises(ValueError):
        classify(triple(1, None, 1), Fraction(3, 2))


def test_classify_is_monotone_in_threshold():
    s = triple(Fraction(3, 4), Fraction(9, 10), Fraction(2, 3))
    previous = None
    for t in DEFAULT_THRESHOLDS:
        kinds = classify(s, t)
        if previous is not None:
            assert kinds <= previous
        previous = kinds


# --- dataset statistics ---------------------------------------------------------


def test_dataset_statistics_counts_shared_templates():
    records = [
        LogRecord(False, "task ok alpha"),
        LogRecord(True, "task ok beta"),
        LogRecord(True, "panic panic panic now"),
    ]
    stats = dataset_statistics(analyze_corpus(records).table)
    assert stats.normal_messages == 1
    assert stats.anomalous_messages == 2
    assert stats.normal_templates == 1
    assert stats.anomalous_templates == 2
    assert stats.intersection_templates == 1


# --- report -----------------------------------------------------------------------


def sample_report(**kwargs):
    scores = {
        1: triple(1, None, 0),                      # template only
        2: triple(Fraction(1, 2), 1, 1),            # attribute + contextual
        3: triple(Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)),  # outside
    }
    stats = DatasetStats(97, 3, 5, 2, 1)
    return sweep_report(scores, ThresholdSweep((Fraction(6, 10), Fraction(1))), stats, **kwargs)


def test_report_totals_partition_anomalies():
    report = sample_report()
    for row in report.rows:
        assert row.classified + row.unclassified == 3


def test_report_counts_each_kind():
    report = sample_report()
    row = report.rows[0]
    assert row.counts[AnomalyKind.TEMPLATE] == 1
    assert row.counts[AnomalyKind.ATTRIBUTE] == 1
    assert row.counts[AnomalyKind.CONTEXTUAL] == 1
    assert row.unclassified == 1


def test_report_json_shape():
    report = sample_report(config={"contextBefore": 10}, source={"input": "x.log"})
    doc = json.loads(report.to_json())
    assert doc["schemaVersion"] == 1
    assert doc["dataset"]["anomalousMessages"] == 3
    assert doc["config"]["contextBefore"] == 10
    assert doc["source"]["input"] == "x.log"
    assert [row["threshold"] for row in doc["thresholds"]] == ["3/5", "1"]
    first = doc["thresholds"][0]
    assert first["counts"] == {"template": 1, "attribute": 1, "contextual": 1}
    assert first["unclassified"] == 1
    assert first["percentages"]["template"] == pytest.approx(100 / 3)


def test_report_json_is_byte_stable():
    assert sample_report().to_json() == sample_report().to_json()


def test_report_csv_matrix():
    lines = sample_report().to_csv().splitlines()
    assert lines[0] == "threshold,template_pct,attribute_pct,contextual_pct,unclassified_pct"
    assert lines[1].startswith("0.6,33.333333,33.333333,33.333333,33.333333")
    assert lines[2].startswith("1,")
    assert len(lines) == 3


def test_report_text_mentions_counts():
    text = sample_report().to_text()
    assert "3 anomalous" in text
    assert "threshold" in text


def test_report_handles_zero_anomalies():
    stats = DatasetStats(10, 0, 1, 0, 0)
    report = sweep_report({}, ThresholdSweep((Fraction(1),)), stats)
    assert report.rows[0].classified == 0
    assert report.rows[0].unclassified == 0
    assert "0.000000" in report.to_csv()
