import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import logtaxon
from logtaxon.cli import DEMO_SPEC_ANOMALY_TEMPLATES, DEMO_SPEC_POOLS, DEMO_SPEC_TEMPLATES
from logtaxon.context import ContextBounds
from logtaxon.ingest import (
    AttributePool,
    SyntheticSpec,
    generate_synthetic,
    read_dataset,
    write_dataset,
)
from logtaxon.model import AnomalyKind, LogRecord
from logtaxon.pipeline import analyze_corpus
from logtaxon.report import ThresholdSweep
from logtaxon.templating import DEFAULT_MASK_RULES, MinerConfig


def spec_with_one_failure_template(**overrides):
    kwargs = dict(
        templates=("worker <w> finished batch", "queue drained cleanly"),
        pools={"w": AttributePool(("w1", "w2", "w3"))},
        anomaly_templates=("watchdog reset fired",),
        length=400,
        anomaly_rate=0.03,
        seed=99,
    )
    kwargs.update(overrides)
    return SyntheticSpec(**kwargs)


def test_anomaly_only_template_scores_exactly_one():
    corpus, truth = generate_synthetic(spec_with_one_failure_template())
    analysis = analyze_corpus(corpus)
    template_kind = [i for i, k in truth.items() if k is AnomalyKind.TEMPLATE]
    assert template_kind
    for i in template_kind:
        assert analysis.scores[i].template_score == Fraction(1)


def test_scores_cover_exactly_the_anomalous_records():
    corpus, _ = generate_synthetic(spec_with_one_failure_template())
    analysis = analyze_corpus(corpus)
    anomalous = {i for i, r in enumerate(corpus, start=1) if r.anomalous}
    assert set(analysis.scores) == anomalous


def test_a_label_byte_other_than_0_and_1_fails_rather_than_counting_twice():
    # bytes() takes the int 2 as it is, and counting would then take its
    # line as both anomalous and normal.
    with pytest.raises(ValueError, match="other than 0 and 1"):
        analyze_corpus([LogRecord(2, "a b"), LogRecord(False, "a c")])


def test_all_normal_corpus_yields_empty_scores():
    corpus, _ = generate_synthetic(spec_with_one_failure_template(anomaly_rate=0.0))
    analysis = analyze_corpus(corpus)
    assert analysis.scores == {}
    assert analysis.report.stats.anomalous_messages == 0


def test_include_normal_scores_widens_the_map_not_the_report():
    corpus, _ = generate_synthetic(spec_with_one_failure_template())
    plain = analyze_corpus(corpus)
    wide = analyze_corpus(corpus, include_normal_scores=True)
    assert len(wide.scores) == len(corpus)
    assert wide.report.to_json() == plain.report.to_json()


def test_config_echo_reflects_parameters():
    corpus, _ = generate_synthetic(spec_with_one_failure_template())
    analysis = analyze_corpus(
        corpus,
        miner_config=MinerConfig(tree_depth=5, similarity_threshold=0.5, max_children=64),
        bounds=ContextBounds(before=4, after=2),
        sweep=ThresholdSweep((Fraction(1, 2), Fraction(1))),
        attribute_scope="per-position",
        source={"input": "unit"},
    )
    config = analysis.report.config
    assert config["minerDepth"] == 5
    assert config["minerSimilarity"] == 0.5
    assert config["minerMaxChildren"] == 64
    assert config["contextBefore"] == 4
    assert config["contextAfter"] == 2
    assert config["attributeScope"] == "per-position"
    assert config["thresholds"] == ["1/2", "1"]
    assert analysis.report.source == {"input": "unit"}
    # nothing machine-environmental leaks into the echo
    assert "threads" not in json.dumps(analysis.report.to_json_dict()["config"]).lower()


def traced_peak_of_analysis(tmp_path, length, through_iterator=False):
    """Peak traced bytes of reading and analyzing the demo corpus of `length`
    lines; `through_iterator` reads them tokenized and hands them over as the CLI does."""
    spec = SyntheticSpec(
        templates=DEMO_SPEC_TEMPLATES,
        pools=DEMO_SPEC_POOLS,
        anomaly_templates=DEMO_SPEC_ANOMALY_TEMPLATES,
        length=length,
        anomaly_rate=0.05,
        seed=1,
    )
    path = tmp_path / f"demo-{length}.log"
    write_dataset(generate_synthetic(spec)[0], str(path))
    tracemalloc.start()
    try:
        if through_iterator:  # only the iterator holds the read list, so it goes once tokenized
            corpus = iter(read_dataset(str(path), mask_rules=DEFAULT_MASK_RULES)[0])
        else:
            corpus = read_dataset(str(path))[0]
        analyze_corpus(corpus)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_traced_peak_grows_under_100_bytes_per_repeated_line(tmp_path):
    # The demo corpus holds a few dozen distinct lines, so what a repeated
    # line adds is its share of the per-line tuples, not records of its own.
    small = traced_peak_of_analysis(tmp_path, 20_000)
    large = traced_peak_of_analysis(tmp_path, 40_000)
    assert (large - small) / 20_000 < 100


# Measured on 3.10-3.13: 29.3-29.9 B per repeated line while the read, tokenized
# and signature lists were each copied into a tuple and the assignment was a
# tuple; 20.9-21.7 B once every per-line column is held once, at its own width.
# With the records read tokenized: 18.2-18.9 B in a fresh interpreter, the same
# as when tokenize_corpus made them, as the demo corpus repeats its few lines.
BYTES_PER_REPEATED_LINE_ON_THE_CLI_PATH = 24


def test_traced_peak_per_repeated_line_on_the_cli_path_holds_each_column_once(tmp_path):
    small = traced_peak_of_analysis(tmp_path, 20_000, through_iterator=True)
    large = traced_peak_of_analysis(tmp_path, 40_000, through_iterator=True)
    assert (large - small) / 20_000 < BYTES_PER_REPEATED_LINE_ON_THE_CLI_PATH


def test_per_line_id_columns_are_unsigned_int_arrays():
    analysis = analyze_corpus(generate_synthetic(spec_with_one_failure_template())[0])
    assert analysis.mining.assignment.typecode == "I"
    assert analysis.mining.sequence_ids.typecode == "I"
    assert analysis.mining.sequence_tids.typecode == "I"


def test_global_attribute_table_is_the_miners_parameters():
    # No second per-sequence table under the global scope: the keys are the parameters.
    analysis = analyze_corpus(generate_synthetic(spec_with_one_failure_template())[0])
    assert analysis.attribute_sets is analysis.mining.parameters


def write_distinct_lines(path, length):
    """`length` lines of one template that share no content, as most lines of a real dump do."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(length):
            label = "ANOM" if i % 10 == 0 else "-"
            fh.write(f"{label} session s{i}k for u{i}x from h{i}q port p{i}z on tty{i % 7}\n")


# Prints the peak traced bytes of reading and analyzing each file named after
# the path's name, one after the other in one interpreter: on the library
# path, which reads raw records and hands over the list, or on the CLI path,
# which reads them tokenized under the default rules and hands over an iterator.
PEAKS_OF_ANALYSIS = """
import sys, tracemalloc
from logtaxon.ingest import read_dataset
from logtaxon.pipeline import analyze_corpus
from logtaxon.templating import DEFAULT_MASK_RULES
for path in sys.argv[2:]:
    tracemalloc.start()
    if sys.argv[1] == "cli":
        analyze_corpus(iter(read_dataset(path, mask_rules=DEFAULT_MASK_RULES)[0]))
    else:
        analyze_corpus(read_dataset(path)[0])
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def output_of_a_fresh_interpreter(script, *args):
    """What `script` prints in a new interpreter: in this one, traced memory
    would grow with the strings that earlier tests interned."""
    src = str(Path(logtaxon.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def traced_bytes_per_extra_line(write_lines, tmp_path, path_name="library"):
    """Traced peak bytes that each line from 20,000 to 40,000 adds, in a fresh interpreter."""
    small, large = tmp_path / "lines-20000.log", tmp_path / "lines-40000.log"
    write_lines(small, 20_000)
    write_lines(large, 40_000)
    output = output_of_a_fresh_interpreter(PEAKS_OF_ANALYSIS, path_name, small, large)
    small_peak, large_peak = map(int, output.split())
    return (large_peak - small_peak) / 20_000


def measured_for_this_interpreter(bytes_by_version):
    return bytes_by_version.get(sys.version_info[:2], max(bytes_by_version.values()))


# Traced peak bytes per distinct line in a fresh interpreter, measured per
# interpreter since object sizes differ between versions: 784.0 on 3.10.13,
# 776.1 on 3.11.7, 510.3 on 3.12.1 and 739.3 on 3.13.0. The peak falls where
# each line's content is tokenized, its tokens masked and interned.
BYTES_PER_DISTINCT_LINE = {(3, 10): 785, (3, 11): 777, (3, 12): 511, (3, 13): 740}
DISTINCT_LINE_MARGIN = 20


def test_traced_peak_per_distinct_line_stays_within_its_margin(tmp_path):
    measured = measured_for_this_interpreter(BYTES_PER_DISTINCT_LINE)
    assert traced_bytes_per_extra_line(write_distinct_lines, tmp_path) < measured + DISTINCT_LINE_MARGIN


def write_masked_distinct_lines(path, length):
    """`length` distinct lines whose distinct tokens are all numbers and hex
    values, which the default rules mask: the masked lines are few, the raw
    tokens grow with the lines, as on a real dump."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(length):
            label = "ANOM" if i % 10 == 0 else "-"
            fh.write(f"{label} session {i} for 0x{i:x}f from key={7 * i:x}a port {3 * i}\n")


# Measured as above: 244.0 on 3.10.13, 236.0 on 3.11.7, 228.0 on 3.12.1 and
# 217.6 on 3.13.0. A memo that kept every distinct raw token read 530-610.
BYTES_PER_MASKED_DISTINCT_LINE = {(3, 10): 245, (3, 11): 237, (3, 12): 229, (3, 13): 218}


def test_traced_peak_per_masked_distinct_line_stays_within_its_margin(tmp_path):
    measured = measured_for_this_interpreter(BYTES_PER_MASKED_DISTINCT_LINE)
    bytes_per_line = traced_bytes_per_extra_line(write_masked_distinct_lines, tmp_path)
    assert bytes_per_line < measured + DISTINCT_LINE_MARGIN


# On the CLI path the reader tokenizes each distinct content as it makes its
# record, and tokenize_corpus keeps those records, so no second record or
# content dict is made per line. Measured as above, on 3.10.13, 3.11.7, 3.12.1
# and 3.13.0: 722.8, 711.1, 448.8 and 675.2 B per distinct line, and 137.6,
# 138.1, 130.0 and 130.0 B per masked distinct line, where reading raw records
# and tokenizing a copy read 784.7, 776.7, 511.2 and 739.9 B, and 244.9, 236.9,
# 228.9 and 218.5 B.
BYTES_PER_DISTINCT_LINE_ON_THE_CLI_PATH = {(3, 10): 723, (3, 11): 712, (3, 12): 449, (3, 13): 676}
BYTES_PER_MASKED_DISTINCT_LINE_ON_THE_CLI_PATH = {(3, 10): 138, (3, 11): 139, (3, 12): 131, (3, 13): 131}


def test_traced_peak_per_distinct_line_on_the_cli_path_stays_within_its_margin(tmp_path):
    measured = measured_for_this_interpreter(BYTES_PER_DISTINCT_LINE_ON_THE_CLI_PATH)
    bytes_per_line = traced_bytes_per_extra_line(write_distinct_lines, tmp_path, "cli")
    assert bytes_per_line < measured + DISTINCT_LINE_MARGIN


def test_traced_peak_per_masked_distinct_line_on_the_cli_path_stays_within_its_margin(tmp_path):
    measured = measured_for_this_interpreter(BYTES_PER_MASKED_DISTINCT_LINE_ON_THE_CLI_PATH)
    bytes_per_line = traced_bytes_per_extra_line(write_masked_distinct_lines, tmp_path, "cli")
    assert bytes_per_line < measured + DISTINCT_LINE_MARGIN


# Prints, for the demo corpus of each length on the command line, the scored
# lines and the traced bytes that score_corpus's result holds, first with
# anomalous lines scored, then with every line scored.
SCORE_COLUMN_BYTES = """
import sys, tracemalloc
from logtaxon.cli import DEMO_SPEC_ANOMALY_TEMPLATES, DEMO_SPEC_POOLS, DEMO_SPEC_TEMPLATES
from logtaxon.ingest import SyntheticSpec, generate_synthetic
from logtaxon.pipeline import analyze_corpus
from logtaxon.scoring import score_corpus
for length in map(int, sys.argv[1:]):
    corpus = generate_synthetic(SyntheticSpec(
        templates=DEMO_SPEC_TEMPLATES, pools=DEMO_SPEC_POOLS,
        anomaly_templates=DEMO_SPEC_ANOMALY_TEMPLATES, length=length, anomaly_rate=0.05, seed=1,
    ))[0]
    anomalous = bytes(rec.anomalous for rec in corpus)
    a = analyze_corpus(corpus)
    for include_normal in (False, True):
        tracemalloc.start()
        scores = score_corpus(anomalous, a.table, a.mining, a.attribute_sets, a.signatures, include_normal)
        print(len(scores), tracemalloc.get_traced_memory()[0])
        tracemalloc.stop()
        del scores
"""


# Measured on 3.11.7: a {line index: ScoreTriple} dict held 66.4 B per extra
# anomalous line and 64.0 B per extra line with every line scored. One 4-byte
# triple id per scored line, beside a 4-byte index unless every line is
# scored, holds 8.1 and 4.0 B.
def test_scores_hold_a_few_bytes_per_scored_line():
    output = output_of_a_fresh_interpreter(SCORE_COLUMN_BYTES, 20_000, 40_000)
    rows = [tuple(map(int, line.split())) for line in output.splitlines()]
    for include_normal, bound in [(False, 10), (True, 6)]:
        (small_lines, small_bytes), (large_lines, large_bytes) = rows[include_normal], rows[2 + include_normal]
        assert large_lines > small_lines
        assert (large_bytes - small_bytes) / (large_lines - small_lines) < bound
