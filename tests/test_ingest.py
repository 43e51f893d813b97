import gc
import gzip
import io
import warnings

import pytest

from logtaxon.ingest import (
    PRESETS,
    AttributePool,
    DatasetFormat,
    IngestSummary,
    SyntheticSpec,
    _decoded,
    generate_synthetic,
    read_dataset,
    write_dataset,
)
from logtaxon.model import AnomalyKind
from logtaxon.templating import tokenize

BGL_NORMAL = (
    "- 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 "
    "R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error corrected"
)
BGL_ALERT = (
    "KERNDTLB 1117869872 2005.06.04 R23-M0-NE-C:J05-U01 2005-06-04-00.24.32.432192 "
    "R23-M0-NE-C:J05-U01 RAS KERNEL FATAL data TLB error interrupt"
)
SPIRIT_ALERT = (
    "ATA 1104566771 2005.01.01 sadmin1 Jan 1 00:06:11 sadmin1/sadmin1 "
    "kernel: hda: drive not ready for command"
)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_bgl_preset_splits_label_and_content(tmp_path):
    path = tmp_path / "bgl.log"
    write_lines(path, [BGL_NORMAL, BGL_ALERT])
    corpus, summary = read_dataset(str(path), PRESETS["bgl"])
    assert len(corpus) == 2 and summary.malformed_skipped == 0
    first, second = corpus
    assert first.anomalous is False
    assert first.content == "instruction cache parity error corrected"
    assert "RAS KERNEL INFO" not in first.content
    assert second.anomalous is True
    assert second.content == "data TLB error interrupt"


def test_spirit_preset_keeps_component_in_content(tmp_path):
    path = tmp_path / "spirit.log"
    write_lines(path, [SPIRIT_ALERT])
    corpus, _ = read_dataset(str(path), PRESETS["spirit"])
    assert corpus[0].anomalous is True
    assert corpus[0].content == "kernel: hda: drive not ready for command"


def test_generic_preset_one_header_field(tmp_path):
    path = tmp_path / "gen.log"
    write_lines(path, ["- all fine here", "FAIL something broke"])
    corpus, _ = read_dataset(str(path))
    assert [rec.anomalous for rec in corpus] == [False, True]
    assert corpus[1].content == "something broke"


def test_gzip_input_detected_by_magic_bytes(tmp_path):
    path = tmp_path / "data.log"  # deliberately no .gz suffix
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("- hello world\nX bad news\n")
    corpus, _ = read_dataset(str(path))
    assert len(corpus) == 2
    assert corpus[1].anomalous is True


def test_gzip_input_leaves_no_file_open(tmp_path):
    path = tmp_path / "t.log.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("- hello world\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        read_dataset(str(path))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gzip"])
def test_leading_byte_order_mark_is_dropped(tmp_path, compressed):
    # The first line's mark, a mid-stream one as `cat a.log b.log` leaves
    # it, and a line holding only a mark.
    data = "\ufeff- all fine\nFAIL broke\n\ufeff- a b\n\ufeff\n- end\n".encode("utf-8")
    path = tmp_path / "bom.log"
    path.write_bytes(gzip.compress(data, mtime=0) if compressed else data)
    corpus, summary = read_dataset(str(path))
    assert [rec.anomalous for rec in corpus] == [False, True, False, False]
    assert [rec.content for rec in corpus] == ["all fine", "broke", "a b", "end"]
    assert summary == IngestSummary(lines_read=5, malformed_skipped=1)


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gzip"])
def test_a_line_ends_at_newline_only(tmp_path, compressed):
    # A lone carriage return stays inside its line, where whitespace
    # splitting treats it as a space; a CRLF ending is dropped whole.
    data = b"- foo\rbar\n- baz qux\nERR boom\r\n"
    path = tmp_path / "cr.log"
    path.write_bytes(gzip.compress(data, mtime=0) if compressed else data)
    corpus, summary = read_dataset(str(path))
    assert [rec.anomalous for rec in corpus] == [False, False, True]
    assert [rec.content for rec in corpus] == ["foo\rbar", "baz qux", "boom"]
    assert summary == IngestSummary(lines_read=3, malformed_skipped=0)
    assert tokenize(corpus[0].content) == ("foo", "bar")


def test_malformed_lines_are_skipped_and_counted(tmp_path):
    path = tmp_path / "bgl.log"
    write_lines(path, [BGL_NORMAL, "", "too short", BGL_ALERT])
    corpus, summary = read_dataset(str(path), PRESETS["bgl"])
    assert summary.lines_read == 4
    assert summary.malformed_skipped == 2
    assert len(corpus) == 2


def test_header_only_line_has_empty_content(tmp_path):
    path = tmp_path / "gen.log"
    write_lines(path, ["-"])
    corpus, summary = read_dataset(str(path))
    assert summary.malformed_skipped == 0
    assert corpus[0].content == ""


def test_equal_contents_are_one_object(tmp_path):
    path = tmp_path / "gen.log"
    write_lines(path, ["- disk 7 full", "X disk 7 full", "- disk 8 full", "-   disk 7 full"])
    corpus, _ = read_dataset(str(path))
    assert corpus[0].content == corpus[1].content == corpus[3].content
    assert corpus[0].content is corpus[1].content is corpus[3].content
    assert corpus[2].content is not corpus[0].content


def test_equal_label_and_content_are_one_record(tmp_path):
    path = tmp_path / "gen.log"
    write_lines(path, ["- a 1", "X a 1", "- a 1", "X a 1", "X a 1", "- a 2", "- a 2"])
    corpus, _ = read_dataset(str(path))
    N, A = False, True
    assert [(r.anomalous, r.content) for r in corpus] == [
        (N, "a 1"), (A, "a 1"), (N, "a 1"), (A, "a 1"), (A, "a 1"), (N, "a 2"), (N, "a 2")
    ]
    assert corpus[3] is corpus[4] and corpus[5] is corpus[6]
    assert len({id(r.content) for r in corpus[:5]}) == 1


class OneByteAtATime(io.RawIOBase):
    """A pipe whose every read delivers at most one byte."""

    def __init__(self, data: bytes):
        self.data = data

    def readable(self):
        return True

    def readinto(self, buffer):
        if not self.data:
            return 0
        buffer[0], self.data = self.data[0], self.data[1:]
        return 1


@pytest.mark.parametrize("compressed", [False, True], ids=["plain", "gzip"])
def test_sniffing_reads_the_magic_bytes_however_a_pipe_splits_them(compressed):
    text = "- a b\nANOM c d\n"
    data = gzip.compress(text.encode(), mtime=0) if compressed else text.encode()
    with _decoded(io.BufferedReader(OneByteAtATime(data))) as fh:
        assert fh.read() == text


def test_limit_caps_records_not_lines(tmp_path):
    path = tmp_path / "gen.log"
    write_lines(path, ["", "- one", "- two", "- three"])
    corpus, _ = read_dataset(str(path), limit=2)
    assert len(corpus) == 2
    assert corpus[1].content == "two"


def test_smaller_limit_reads_a_prefix(tmp_path):
    path = tmp_path / "gen.log"
    write_lines(path, [f"- message {i}" for i in range(30)])
    small, _ = read_dataset(str(path), limit=10)
    large, _ = read_dataset(str(path), limit=25)
    assert [r.content for r in small] == [r.content for r in large][:10]


def test_empty_file_raises(tmp_path):
    path = tmp_path / "empty.log"
    path.write_text("")
    with pytest.raises(ValueError, match="empty corpus"):
        read_dataset(str(path))


def test_all_malformed_raises(tmp_path):
    path = tmp_path / "bad.log"
    write_lines(path, ["", ""])
    with pytest.raises(ValueError, match="empty corpus"):
        read_dataset(str(path), PRESETS["bgl"])


def test_write_read_round_trip(tmp_path):
    spec = SyntheticSpec(
        templates=("alpha <p> beta", "gamma delta"),
        pools={"p": AttributePool(("u", "v"))},
        anomaly_templates=("omega failure",),
        length=50,
        anomaly_rate=0.2,
        seed=3,
    )
    corpus, _ = generate_synthetic(spec)
    path = tmp_path / "round.log.gz"
    write_dataset(corpus, str(path))
    back, summary = read_dataset(str(path))
    assert summary.malformed_skipped == 0
    assert len(back) == len(corpus)
    for a, b in zip(corpus, back):
        assert (a.anomalous, a.content) == (b.anomalous, b.content)


def test_format_validation():
    with pytest.raises(ValueError):
        DatasetFormat(header_fields=0)
    with pytest.raises(ValueError):
        DatasetFormat(header_fields=2, label_field=2)
    # A whitespace-split header field is never empty and never holds
    # whitespace, so such a marker would label every line anomalous.
    for token in ["", " ", "- x", "-\t", "\u3000-"]:
        with pytest.raises(ValueError, match="must be one whitespace-free field"):
            DatasetFormat(normal_token=token)


# --- synthetic corpora -------------------------------------------------------


def demo_spec(**overrides):
    kwargs = dict(
        templates=("login by <who>", "heartbeat ok"),
        pools={"who": AttributePool(("ann", "ben"), ("zed",))},
        anomaly_templates=("core dumped",),
        length=300,
        anomaly_rate=0.1,
        seed=11,
    )
    kwargs.update(overrides)
    return SyntheticSpec(**kwargs)


def test_synthetic_is_deterministic():
    a, truth_a = generate_synthetic(demo_spec())
    b, truth_b = generate_synthetic(demo_spec())
    assert truth_a == truth_b
    assert [(r.anomalous, r.content) for r in a] == [(r.anomalous, r.content) for r in b]


def test_synthetic_seed_changes_output():
    a, _ = generate_synthetic(demo_spec())
    b, _ = generate_synthetic(demo_spec(seed=12))
    assert [(r.anomalous, r.content) for r in a] != [(r.anomalous, r.content) for r in b]


def test_synthetic_length_and_truth_alignment():
    corpus, truth = generate_synthetic(demo_spec())
    assert len(corpus) == 300
    assert set(truth) == {i for i, r in enumerate(corpus, start=1) if r.anomalous}
    assert all(kind in AnomalyKind for kind in truth.values())
    # A contextual anomaly inserted as the last record must end the corpus
    # there, not be followed by its scheduled message.
    for length in (1, 2, 3, 5):
        for seed in range(20):
            corpus, truth = generate_synthetic(demo_spec(length=length, anomaly_rate=0.9, seed=seed))
            assert len(corpus) == length
            assert set(truth) <= set(range(1, length + 1))


def test_synthetic_zero_rate_is_all_normal():
    corpus, truth = generate_synthetic(demo_spec(anomaly_rate=0.0))
    assert not any(rec.anomalous for rec in corpus)
    assert truth == {}


def test_synthetic_attribute_anomalies_use_anomalous_pool():
    corpus, truth = generate_synthetic(demo_spec(length=2000))
    attr_indices = [i for i, k in truth.items() if k is AnomalyKind.ATTRIBUTE]
    assert attr_indices, "expected at least one attribute anomaly at 10% rate"
    for i in attr_indices:
        assert "zed" in corpus[i - 1].content


def test_synthetic_validation_errors():
    with pytest.raises(ValueError, match="unknown pool"):
        demo_spec(templates=("hello <nope>",))
    with pytest.raises(ValueError, match="anomaly_rate"):
        demo_spec(anomaly_rate=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(templates=(), length=10)
    with pytest.raises(ValueError, match="anomaly_rate > 0"):
        SyntheticSpec(templates=("just this",), anomaly_rate=0.5)
