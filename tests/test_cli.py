import csv
import gc
import gzip
import hashlib
import json
import os
import subprocess
import sys
import weakref
from types import SimpleNamespace

import pytest

from oracle import mask_ids, naive_signature
from logtaxon import cli, pipeline, templating
from logtaxon.cli import EXIT_INTERNAL, main
from logtaxon.context import ContextBounds, build_all_contexts
from logtaxon.ingest import DatasetFormat, IngestSummary, read_dataset
from logtaxon.model import LogRecord
from logtaxon.pipeline import analyze_corpus


@pytest.fixture()
def demo_log(tmp_path):
    path = tmp_path / "demo.log"
    rc = main(
        [
            "synth",
            "--out",
            str(path),
            "--length",
            "400",
            "--anomaly-rate",
            "0.1",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    return path


def run_analyze(tmp_path, demo_log, *extra):
    out_dir = tmp_path / "out"
    rc = main(["analyze", "--input", str(demo_log), "--out-dir", str(out_dir), *extra])
    return rc, out_dir


def test_analyze_writes_all_artifacts(tmp_path, demo_log, capsys):
    rc, out_dir = run_analyze(tmp_path, demo_log, "--dump-scores", "--dump-contexts")
    assert rc == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "contexts.csv",
        "report.csv",
        "report.json",
        "scores.csv",
        "templates.json",
    ]
    stdout = capsys.readouterr().out
    assert "threshold" in stdout  # human summary on stdout


def test_report_json_contents(tmp_path, demo_log):
    _, out_dir = run_analyze(tmp_path, demo_log)
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["schemaVersion"] == 1
    assert doc["source"]["input"] == "demo.log"
    assert doc["dataset"]["anomalousMessages"] > 0
    assert len(doc["thresholds"]) == 5
    assert doc["config"]["contextBefore"] == 10
    # Determinism-sensitive knobs that don't shape results stay out of the echo.
    assert "threads" not in json.dumps(doc["config"])
    assert "out" not in doc["config"]


def test_scores_csv_columns(tmp_path, demo_log):
    _, out_dir = run_analyze(tmp_path, demo_log, "--dump-scores")
    lines = (out_dir / "scores.csv").read_text().splitlines()
    assert lines[0] == (
        "index,templateId,alpha,beta,gamma,"
        "alpha_num,alpha_den,beta_num,beta_den,gamma_num,gamma_den"
    )
    assert len(lines) > 1
    first = lines[1].split(",")
    assert first[2] != ""  # alpha always present
    float(first[2])  # formatted as a float
    int(first[5]) and int(first[6])  # exact numerator/denominator survive


def test_contexts_csv_shape(tmp_path, demo_log):
    _, out_dir = run_analyze(tmp_path, demo_log, "--dump-contexts")
    lines = (out_dir / "contexts.csv").read_text().splitlines()
    assert lines[0] == "index,templateIds"
    assert len(lines) == 401  # one per record


def test_contexts_csv_decodes_ids_across_byte_and_word_boundaries(tmp_path):
    # Ids on both sides of a byte, a 30-bit digit, a 64-bit word and wider boundaries.
    ids = [7, 8, 30, 31, 63, 64, 255, 256, 1023, 1024]
    assignment = ids + ids[::-1] + ids[::3] + [1024] * 3 + [7, 8, 7]
    signatures = build_all_contexts(assignment, ContextBounds(before=5, after=4))
    mining = SimpleNamespace(templates=(None,) * max(ids))
    cli._write_contexts_csv(SimpleNamespace(mining=mining, signatures=signatures), tmp_path / "c.csv")

    masks = [naive_signature(assignment, i, 5, 4) for i in range(1, len(assignment) + 1)]
    header, *rows = (tmp_path / "c.csv").read_text().splitlines()
    assert rows == [f"{i},{' '.join(map(str, mask_ids(m)))}" for i, m in enumerate(masks, start=1)]
    assert set(ids) == {tid for m in masks for tid in mask_ids(m)}
    for sig, mask in zip(signatures, masks, strict=True):
        assert len(sig) == len(mask_ids(mask))
        assert hash(sig) == hash(int(sig)) == hash(mask)


@pytest.mark.parametrize("score_normal, after", [(False, 0), (True, 2)])
def test_dumps_round_trip_to_the_analysis(tmp_path, score_normal, after):
    # "kernel halted" has no wildcard, so its attribute score is absent.
    path = tmp_path / "mixed.log"
    lines = ["- user alice logged in", "- user bob logged in", "ANOM user mallory logged in"]
    path.write_text("\n".join((lines + ["ANOM kernel halted", "- kernel halted"]) * 5) + "\n")
    extra = ["--context-after", str(after), "--dump-scores", "--dump-contexts"]
    rc, out_dir = run_analyze(tmp_path, path, *extra, *["--score-normal"] * score_normal)
    assert rc == 0
    analysis = analyze_corpus(
        read_dataset(str(path), DatasetFormat())[0],
        bounds=ContextBounds(10, after),
        include_normal_scores=score_normal,
    )

    with open(out_dir / "scores.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert [int(row[0]) for row in rows] == list(analysis.scores)
    absent = 0
    for index, template_id, *values in rows:
        triple = analysis.scores[int(index)]
        assert int(template_id) == analysis.mining.assignment[int(index) - 1]
        fields = dict(zip(header[2:], values))
        scores = (triple.template_score, triple.attribute_score, triple.context_score)
        for name, score in zip(("alpha", "beta", "gamma"), scores):
            got = (fields[name], fields[f"{name}_num"], fields[f"{name}_den"])
            if score is None:
                absent += 1
                assert got == ("", "", "")
            else:
                assert got == (f"{float(score):.6f}", str(score.numerator), str(score.denominator))
    assert absent

    header, *rows = (out_dir / "contexts.csv").read_text().splitlines()
    assert header == "index,templateIds"
    assert rows == [
        f"{index},{' '.join(map(str, mask_ids(sig)))}"
        for index, sig in enumerate(analysis.signatures, start=1)
    ]
    if not after:  # nothing precedes the first line, so its signature is empty
        assert rows[0] == "1,"


def test_score_normal_expands_the_dump(tmp_path, demo_log):
    _, anom_dir = run_analyze(tmp_path, demo_log, "--dump-scores")
    out_dir = tmp_path / "out2"
    rc = main(
        [
            "analyze",
            "--input",
            str(demo_log),
            "--out-dir",
            str(out_dir),
            "--dump-scores",
            "--score-normal",
        ]
    )
    assert rc == 0
    all_rows = (out_dir / "scores.csv").read_text().splitlines()
    anom_rows = (anom_dir / "scores.csv").read_text().splitlines()
    assert len(all_rows) == 401  # header + every record
    assert len(anom_rows) < len(all_rows)
    # The report itself is unchanged: still anomalous-only percentages.
    assert (out_dir / "report.json").read_text() == (anom_dir / "report.json").read_text()


@pytest.mark.parametrize("dump", [False, True])
def test_score_normal_scores_normal_lines_only_for_a_dump(tmp_path, demo_log, monkeypatch, dump):
    seen = []

    def recording(corpus, **kwargs):
        seen.append(kwargs["include_normal_scores"])
        return analyze_corpus(corpus, **kwargs)

    monkeypatch.setattr(cli, "analyze_corpus", recording)
    rc, _ = run_analyze(tmp_path, demo_log, "--score-normal", *["--dump-scores"] * dump)
    assert rc == 0
    assert seen == [dump]


class WeakRecord(LogRecord):
    """A record that, unlike a slotted LogRecord, can be weakly referenced."""


def test_read_records_are_freed_before_mining(tmp_path, demo_log, monkeypatch):
    refs = []

    def read_weak_records(path, fmt, limit=None, mask_rules=None):
        corpus = tuple(WeakRecord(i % 10 == 0, f"job {i} done") for i in range(20_000))
        refs.extend(map(weakref.ref, corpus))
        return corpus, IngestSummary(len(corpus), 0)

    alive, mine_templates = [], pipeline.mine_templates

    def mine_counting_live_records(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        return mine_templates(*args, **kwargs)

    monkeypatch.setattr(cli, "read_dataset", read_weak_records)
    monkeypatch.setattr(pipeline, "mine_templates", mine_counting_live_records)
    rc, out_dir = run_analyze(tmp_path, demo_log)
    assert rc == 0
    assert alive == [0]
    assert json.loads((out_dir / "report.json").read_text())["source"]["records"] == 20_000


def test_analyze_runs_without_the_cyclic_collector_and_then_restores_it(
    tmp_path, demo_log, monkeypatch
):
    seen = []

    def recording(corpus, **kwargs):
        seen.append(gc.isenabled())
        return analyze_corpus(corpus, **kwargs)

    monkeypatch.setattr(cli, "analyze_corpus", recording)
    assert gc.isenabled()
    rc, _ = run_analyze(tmp_path, demo_log)
    assert (rc, seen, gc.isenabled()) == (0, [False], True)
    blank = tmp_path / "blank.log"
    blank.write_text("\n")
    rc, _ = run_analyze(tmp_path, blank)  # bad input: an empty corpus
    assert (rc, gc.isenabled()) == (1, True)
    gc.disable()  # a caller that runs without the collector keeps running without it
    try:
        rc, _ = run_analyze(tmp_path, demo_log)
        assert (rc, gc.isenabled()) == (0, False)
    finally:
        gc.enable()


def test_repeat_runs_are_byte_identical(tmp_path, demo_log):
    extra = ["--dump-scores", "--dump-contexts", "--attribute-scope", "per-position"]
    _, first = run_analyze(tmp_path, demo_log, *extra)
    # The second run is another process under another hash seed, so no
    # artifact may depend on set or dict order that string hashing decides.
    out2 = tmp_path / "second"
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    argv = ["analyze", "--input", str(demo_log), "--out-dir", str(out2), *extra]
    proc = subprocess.run(
        [sys.executable, "-m", "logtaxon.cli", *argv],
        env={**os.environ, "PYTHONHASHSEED": seed},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ["report.json", "report.csv", "templates.json", "scores.csv", "contexts.csv"]:
        assert (first / name).read_bytes() == (out2 / name).read_bytes()


def test_thread_count_does_not_change_artifacts(tmp_path, demo_log, capsys):
    _, first = run_analyze(tmp_path, demo_log)
    assert "--threads" not in capsys.readouterr().err
    out2 = tmp_path / "threaded"
    rc = main(["analyze", "--input", str(demo_log), "--out-dir", str(out2), "--threads", "4"])
    assert rc == 0
    assert "--threads is deprecated and ignored" in capsys.readouterr().err
    for name in ["report.json", "report.csv", "templates.json"]:
        assert (first / name).read_bytes() == (out2 / name).read_bytes()


def test_rerun_removes_stale_optional_dumps(tmp_path, demo_log):
    _, out_dir = run_analyze(tmp_path, demo_log, "--dump-scores", "--dump-contexts")
    assert (out_dir / "scores.csv").exists() and (out_dir / "contexts.csv").exists()
    (out_dir / "notes.txt").write_text("kept")
    rc, _ = run_analyze(tmp_path, demo_log, "--dump-contexts")
    assert rc == 0
    assert not (out_dir / "scores.csv").exists()
    assert (out_dir / "contexts.csv").exists()
    rc, _ = run_analyze(tmp_path, demo_log)
    assert rc == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "notes.txt",
        "report.csv",
        "report.json",
        "templates.json",
    ]


def test_failed_write_leaves_the_previous_artifacts(tmp_path, demo_log, capsys, monkeypatch):
    rc, out_dir = run_analyze(tmp_path, demo_log, "--thresholds", "0.5", "--dump-scores")
    assert rc == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}

    def write_part_then_fail(analysis, path):
        path.write_text("index,templateIds\n1,")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write_contexts_csv", write_part_then_fail)
    rc, _ = run_analyze(tmp_path, demo_log, "--dump-contexts")
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_custom_thresholds(tmp_path, demo_log):
    _, out_dir = run_analyze(tmp_path, demo_log, "--thresholds", "0.5,1")
    doc = json.loads((out_dir / "report.json").read_text())
    assert [r["threshold"] for r in doc["thresholds"]] == ["1/2", "1"]


def test_out_dir_env_default(tmp_path, demo_log, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("LOGTAXON_OUT_DIR", str(target))
    monkeypatch.chdir(tmp_path)
    rc = main(["analyze", "--input", str(demo_log)])
    assert rc == 0
    assert (target / "report.json").exists()


def test_bgl_preset_flag(tmp_path):
    line = (
        "- 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 "
        "R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error corrected"
    )
    alert = line.replace("-", "APPREAD", 1).replace("INFO instruction", "FATAL instruction")
    src = tmp_path / "bgl.log"
    src.write_text(line + "\n" + alert + "\n")
    out_dir = tmp_path / "out"
    rc = main(["analyze", "--input", str(src), "--preset", "bgl", "--out-dir", str(out_dir)])
    assert rc == 0
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["dataset"]["anomalousMessages"] == 1


def test_layout_override_flags(tmp_path):
    # Node name first, label second: neither header field is content.
    src = tmp_path / "custom.log"
    src.write_text("n1 OK a b\nn2 FAIL a c\nn3 OK a d\n")
    out_dir = tmp_path / "out"
    layout = ["--header-fields", "2", "--label-field", "1", "--normal-token", "OK"]
    rc = main(["analyze", "--input", str(src), "--out-dir", str(out_dir), *layout])
    assert rc == 0
    doc = json.loads((out_dir / "report.json").read_text())
    assert (doc["dataset"]["normalMessages"], doc["dataset"]["anomalousMessages"]) == (2, 1)
    forest = json.loads((out_dir / "templates.json").read_text())
    assert [(t["tokens"], t["anomalousCount"], t["normalCount"]) for t in forest["templates"]] == [
        (["a", "*"], 1, 2)
    ]


def test_limit_flag(tmp_path, demo_log):
    _, out_dir = run_analyze(tmp_path, demo_log, "--limit", "50")
    doc = json.loads((out_dir / "report.json").read_text())
    assert (
        doc["dataset"]["normalMessages"] + doc["dataset"]["anomalousMessages"] == 50
    )


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_limit_below_one_fails_cleanly(tmp_path, demo_log, capsys, limit):
    rc, out_dir = run_analyze(tmp_path, demo_log, "--limit", limit)
    assert rc == 1
    assert f"error: limit must be at least 1, got {limit}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("token", ["", "- x"], ids=["empty", "two-fields"])
def test_unmatchable_normal_token_fails_cleanly(tmp_path, capsys, token):
    path = tmp_path / "two.log"
    path.write_text("- a b\nX a c\n")
    rc, out_dir = run_analyze(tmp_path, path, "--normal-token", token)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: normal token {token!r} must be one whitespace-free field" in err
    assert "parsed" not in err
    assert not out_dir.exists()


def test_mined_count_names_templates_matching_no_line(tmp_path, capsys):
    # Pass 1 merges the first two lines into "b * c *"; in pass 2 each of them
    # matches a later template better, so "b * c *" is mined but matches no line.
    path = tmp_path / "four.log"
    path.write_text("- b a c c\n- b b c a\n- a b c a\n- b a b c\n")
    rc, out_dir = run_analyze(
        tmp_path, path, "--miner-depth", "3", "--miner-similarity", "0.5"
    )
    assert rc == 0
    out, err = capsys.readouterr()
    assert "mined 3 templates (1 matching no line)" in err
    assert "templates: 2 normal, 0 anomalous" in out
    forest = json.loads((out_dir / "templates.json").read_text())
    assert len(forest["templates"]) == 3


def test_missing_input_fails_cleanly(tmp_path, capsys):
    rc = main(["analyze", "--input", str(tmp_path / "nope.log")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_internal_error_fails_cleanly(tmp_path, capsys, monkeypatch):
    # Line 2 refines the template line 1 made, so pass 1's id for line 1 is
    # stale and pass 2 must assign it afresh.
    path = tmp_path / "two.log"
    path.write_text("- a b c\n- a b d\n")
    called = []

    def no_leaf(self, tokens):
        called.append(tokens)
        raise RuntimeError("pass 2 found no leaf for a sequence of 3 tokens")

    monkeypatch.setattr(templating._Forest, "assign", no_leaf)
    rc, _ = run_analyze(tmp_path, path)
    assert called == [("a", "b", "c")]
    assert rc == EXIT_INTERNAL
    assert rc not in (0, 1, 2)  # success, bad input, argparse's usage error
    err = capsys.readouterr().err
    assert "error: internal: pass 2 found no leaf" in err
    assert "Traceback" not in err


def test_input_from_a_pipe(tmp_path):
    out_dir = tmp_path / "out"
    argv = ["analyze", "--input", "/dev/stdin", "--out-dir", str(out_dir)]
    proc = subprocess.run(
        [sys.executable, "-m", "logtaxon.cli", *argv],
        input="- a b\nANOM a c\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "parsed 2 records; mining templates ..." in proc.stderr
    assert json.loads((out_dir / "report.json").read_text())["dataset"]["anomalousMessages"] == 1


@pytest.mark.parametrize("damage", ["truncated", "corrupt", "bad header"])
def test_damaged_gzip_input_fails_cleanly(tmp_path, demo_log, capsys, damage):
    data = bytearray(gzip.compress(demo_log.read_bytes(), mtime=0))
    if damage == "truncated":
        del data[len(data) // 2 :]
    elif damage == "bad header":  # the magic bytes, then no valid header
        data = b"\x1f\x8b" + b"x" * 16
    else:
        data[40] ^= 0xFF
        data[60] ^= 0xFF
    path = tmp_path / "demo.log.gz"
    path.write_bytes(data)
    rc, _ = run_analyze(tmp_path, path)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: damaged gzip input {str(path)!r}: " in err
    assert "Traceback" not in err


def test_bad_thresholds_fail_cleanly(tmp_path, demo_log, capsys):
    rc, _ = run_analyze(tmp_path, demo_log, "--thresholds", "0.9,0.6")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_zero_denominator_threshold_fails_cleanly(tmp_path, demo_log, capsys):
    rc, _ = run_analyze(tmp_path, demo_log, "--thresholds", "0.5,1/0")
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: bad threshold '1/0'" in err
    assert "Traceback" not in err


_ONE_FIELD = "'{}' must be a non-empty, whitespace-free string"


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"name": "X", "pattern": "("}, "missing ), unterminated subpattern"),
        ({"pattern": "x+"}, "needs a 'name' and a 'pattern'"),
        ({"name": None, "pattern": "x+"}, _ONE_FIELD.format("name")),
        ({"name": "a b", "pattern": "x+"}, _ONE_FIELD.format("name")),
        ({"name": "X", "pattern": "x+", "replacement": "x y"}, _ONE_FIELD.format("replacement")),
        # `re` would expand the escape into a tab inside the masked token.
        (
            {"name": "T", "pattern": "x+", "replacement": "a\\tb"},
            "replacement 'a\\\\tb': a backslash may only start a group reference",
        ),
    ],
    ids=[
        "bad-pattern",
        "missing-name",
        "null-name",
        "spaced-name",
        "spaced-replacement",
        "escape-in-replacement",
    ],
)
def test_bad_mask_rules_fail_cleanly(tmp_path, demo_log, capsys, entry, message):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"name": "OK", "pattern": "y+"}, entry]))
    rc, out_dir = run_analyze(tmp_path, demo_log, "--mask-rules", str(rules))
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: mask rule file {str(rules)!r}, entry 2: {message}" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_unparsable_mask_rules_name_the_file(tmp_path, demo_log, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text('[{"name": "X",')
    rc, _ = run_analyze(tmp_path, demo_log, "--mask-rules", str(rules))
    assert rc == 1
    assert f"error: mask rule file {str(rules)!r}: " in capsys.readouterr().err


def test_the_reader_masks_with_the_rules_the_miner_is_given(tmp_path, demo_log, monkeypatch):
    loaded, read_with, mined_with = [], [], []
    load_mask_rules, read = cli.load_mask_rules, cli.read_dataset

    def loading(path):
        loaded.append(load_mask_rules(path))
        return loaded[-1]

    def reading(*args, mask_rules=None, **kwargs):
        read_with.append(mask_rules)
        return read(*args, mask_rules=mask_rules, **kwargs)

    def analyzing(corpus, **kwargs):
        mined_with.append(kwargs["miner_config"].mask_rules)
        return analyze_corpus(corpus, **kwargs)

    monkeypatch.setattr(cli, "load_mask_rules", loading)
    monkeypatch.setattr(cli, "read_dataset", reading)
    monkeypatch.setattr(cli, "analyze_corpus", analyzing)
    rules = tmp_path / "rules.json"
    rule = {"name": "HOST", "pattern": r"(?P<net>\d+\.\d+)\.\d+\.\d+", "replacement": r"\g<net>.<:HOST:>"}
    rules.write_text(json.dumps([rule]))
    rc, out_dir = run_analyze(tmp_path, demo_log, "--mask-rules", str(rules))
    assert rc == 0
    assert len(loaded) == 1 and read_with[0] is loaded[0] and mined_with[0] is loaded[0]
    assert json.loads((out_dir / "report.json").read_text())["config"]["maskRules"] == ["HOST"]
    rc, _ = run_analyze(tmp_path, demo_log)
    assert rc == 0
    assert read_with[1] is mined_with[1] is templating.DEFAULT_MASK_RULES


def test_synth_truth_file(tmp_path):
    out = tmp_path / "s.log"
    truth_path = tmp_path / "truth.json"
    rc = main(
        ["synth", "--out", str(out), "--length", "200", "--seed", "1", "--truth", str(truth_path)]
    )
    assert rc == 0
    truth = json.loads(truth_path.read_text())
    assert truth  # 5% default rate over 200 records: expect at least one
    assert set(truth.values()) <= {"template", "attribute", "contextual"}


def test_synth_demo_corpus_is_pinned(tmp_path):
    # The benchmark builds its demo corpus with each checkout's own `synth`, so
    # a change to the generator's random stream would compare two different
    # corpora. A change that means to alter these bytes updates the digests.
    out, truth = tmp_path / "s.log", tmp_path / "truth.json"
    rc = main(["synth", "--out", str(out), "--length", "2000", "--seed", "1", "--truth", str(truth)])
    assert rc == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, truth)]
    assert digests == [
        "7f2aee36703aeecf2157dda1193a8f66196a6c35f5440be6a6b9f2328f6ca197",
        "239251513ca2a49c39537e8cfab7fc8aa319a8ca4d30a1bf85132afb17562b2d",
    ]


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "logtaxon.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout and "synth" in proc.stdout
