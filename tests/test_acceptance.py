"""Acceptance gate: the release criteria, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The dataset-reproduction checks only run when LOGTAXON_DATASETS points at a
directory holding the public labeled dumps (see README).
"""

import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from oracle import brute_force_scores, mask_ids
from logtaxon.context import ContextBounds, build_all_contexts
from logtaxon.ingest import PRESETS, AttributePool, SyntheticSpec, generate_synthetic, read_dataset
from logtaxon.model import AnomalyKind, LogRecord
from logtaxon.pipeline import analyze_corpus
from logtaxon.report import DEFAULT_THRESHOLDS, classify
from logtaxon.templating import attributes_for_corpus, mine_templates, tokenize_corpus

MASTER_SEED = 20250816


def verdict(label: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}" + (f" [{detail}]" if detail else ""))
    assert ok, f"{label} failed: {detail}"


# --- randomized corpus factory ------------------------------------------------

_VERBS = ["open", "close", "send", "recv", "mount", "flush", "retry", "probe", "sync", "drop"]
_NOUNS = ["socket", "disk", "queue", "cache", "lease", "shard", "route", "token", "page", "index"]
_TAILS = ["ok", "done", "failed", "status=a1", "0x1f", "17", "now", "10.0.0.9", "again", "fast"]


def random_spec(rng: random.Random, length: int) -> SyntheticSpec:
    pools = {}
    for p in range(rng.randint(2, 4)):
        name = f"p{p}"
        normal = tuple(f"{name}v{v}" for v in range(rng.randint(1, 4)))
        anomalous = tuple(f"{name}bad{v}" for v in range(rng.randint(0, 2)))
        pools[name] = AttributePool(normal, anomalous)
    pool_names = list(pools)

    def make_template() -> str:
        words = [rng.choice(_VERBS), rng.choice(_NOUNS)]
        words += rng.sample(_TAILS, rng.randint(1, 4))
        for _ in range(rng.randint(0, 2)):
            words.insert(rng.randint(1, len(words)), f"<{rng.choice(pool_names)}>")
        return " ".join(words)

    templates = tuple(make_template() for _ in range(rng.randint(2, 6)))
    anomaly_templates = tuple(make_template() for _ in range(rng.randint(0, 2)))
    rate = rng.choice([0.02, 0.05, 0.1, 0.2, 0.3])
    if rng.random() < 0.5:  # a rhythm in which templates repeat, or never appear
        picks = [rng.randrange(len(templates)) for _ in range(rng.randint(2, 8))]
        templates = tuple(templates[i] for i in picks)
    has_attr_source = any(
        pools[s].anomalous
        for t in templates
        for s in (tok[1:-1] for tok in t.split() if tok.startswith("<"))
    )
    if not anomaly_templates and not has_attr_source:
        rate = 0.0
    return SyntheticSpec(
        templates=templates,
        pools=pools,
        length=length,
        anomaly_rate=rate,
        seed=rng.randrange(2**31),
        anomaly_templates=anomaly_templates,
    )


# --- criterion 1: exact agreement with the brute-force recount ------------------


def test_criterion_1_brute_force_oracle_equivalence():
    rng = random.Random(MASTER_SEED)
    sizes = [100, 10_000] + [int(round(10 ** rng.uniform(2, 4))) for _ in range(52)]
    started = time.monotonic()
    checked = 0
    for size in sizes:
        spec = random_spec(rng, size)
        corpus, _ = generate_synthetic(spec)
        before = rng.randint(0, 15)
        after = rng.randint(0, 5)
        scope = "per-position" if rng.random() < 0.25 else "global"
        analysis = analyze_corpus(
            corpus, bounds=ContextBounds(before, after), attribute_scope=scope
        )
        expected = brute_force_scores(
            tokenize_corpus(corpus),
            analysis.mining.templates,
            analysis.mining.assignment,
            before,
            after,
            attribute_scope=scope,
        )
        got = {
            i: (s.template_score, s.attribute_score, s.context_score)
            for i, s in analysis.scores.items()
        }
        assert got == expected, f"score mismatch on corpus of {size} messages (seed {spec.seed})"
        checked += 1
    elapsed = time.monotonic() - started
    verdict(
        "criterion 1 (exact oracle equivalence)",
        checked >= 50 and elapsed < 60,
        f"{checked} corpora of 100..10000 messages, exact rational equality, {elapsed:.1f}s",
    )


# --- criterion 2: the hand-worked examples --------------------------------------


def test_criterion_2_hand_worked_examples():
    records = [
        LogRecord(False, "Start mail service at node wally001"),
        LogRecord(False, "Start printer service at node wally005"),
    ]
    sequences = [rec.tokens for rec in tokenize_corpus(records)]
    mining = mine_templates(sequences)
    template = " ".join(mining.templates[0].tokens)
    template_ok = len(mining.templates) == 1 and template == "Start * service at node *"
    attrs = list(attributes_for_corpus(mining))
    attrs_ok = attrs == [("mail", "wally001"), ("printer", "wally005")]

    # A ten-message window example: two back, one forward around message 10
    # picks up exactly the templates of messages 8, 9, and 11.
    assignment = [70, 71, 72, 73, 74, 75, 76, 3, 4, 9, 5, 77]
    sig = build_all_contexts(assignment, ContextBounds(before=2, after=1))[10 - 1]
    context_ok = mask_ids(sig) == (3, 4, 5)

    verdict(
        "criterion 2 (hand-worked template/attribute/context examples)",
        template_ok and attrs_ok and context_ok,
        f"template={template!r}, attrs={attrs}, window={mask_ids(sig)}",
    )


# --- criterion 3: randomized invariants, >= 1000 cases ----------------------------


def test_criterion_3_randomized_invariants():
    rng = random.Random(MASTER_SEED + 3)
    cases = 1000
    for case in range(cases):
        spec = random_spec(rng, rng.randint(30, 200))
        corpus, _ = generate_synthetic(spec)
        anomalous = anomalous_count(corpus)
        one = analyze_corpus(corpus)
        rng.randint(2, 4)  # unused; keeps the random stream, so the 1000 cases stay fixed
        again = analyze_corpus(corpus)

        # determinism across repeat runs
        assert one.scores == again.scores, f"case {case}: repeat run changed scores"
        assert one.report.to_json() == again.report.to_json(), f"case {case}: report drift"

        # score range
        for s in one.scores.values():
            assert 0 <= s.template_score <= 1, f"case {case}"
            assert s.attribute_score is None or 0 <= s.attribute_score <= 1, f"case {case}"
            assert 0 <= s.context_score <= 1, f"case {case}"

        # threshold monotonicity of the classified sets, per message and per row
        for s in one.scores.values():
            kinds = [classify(s, t) for t in DEFAULT_THRESHOLDS]
            for narrower, wider in zip(kinds[1:], kinds):
                assert narrower <= wider, f"case {case}: classification grew with threshold"
        classified_counts = [row.classified for row in one.report.rows]
        assert classified_counts == sorted(classified_counts, reverse=True), f"case {case}"

        # report totals partition the anomalous set
        for row in one.report.rows:
            assert row.classified + row.unclassified == anomalous, f"case {case}"

        # conservation: every record occurs once in template and context counts
        n = len(corpus)
        tpl = one.table.template_counts
        ctx = one.table.context_counts
        assert sum(a + m for a, m in tpl.values()) == n, f"case {case}"
        assert sum(a + m for a, m in ctx.values()) == n, f"case {case}"
        assert sum(a for a, _ in tpl.values()) == anomalous, f"case {case}"
        attr_total = sum(a + m for a, m in one.table.attribute_counts.values())
        per_sequence = [len(attrs) for attrs in one.attribute_sets]
        per_line = map(per_sequence.__getitem__, one.mining.sequence_ids)
        assert attr_total == sum(per_line), f"case {case}"

    verdict(
        "criterion 3 (randomized invariants)",
        True,
        f"{cases} cases x 5 properties, zero failures",
    )


# --- criterion 4: dataset reproduction (runs only when datasets are present) -------

DATASET_DIR = os.environ.get("LOGTAXON_DATASETS", "")

needs_datasets = pytest.mark.skipif(
    not DATASET_DIR, reason="set LOGTAXON_DATASETS to a directory with the labeled datasets"
)


def find_dataset(stem: str) -> str | None:
    if not DATASET_DIR:
        return None
    root = Path(DATASET_DIR)
    for path in sorted(root.rglob("*")):
        if path.is_file() and stem in path.name.lower():
            return str(path)
    return None


def anomalous_count(corpus) -> int:
    return sum(rec.anomalous for rec in corpus)


def run_dataset(path: str, preset: str, limit: int | None):
    started = time.monotonic()
    corpus, summary = read_dataset(path, PRESETS[preset], limit=limit)
    analysis = analyze_corpus(corpus)
    elapsed = time.monotonic() - started
    return corpus, analysis, elapsed


def kind_pct(report, threshold: Fraction, kind: AnomalyKind) -> float:
    for row in report.rows:
        if row.threshold == threshold:
            total = report.stats.anomalous_messages
            return 100.0 * row.counts.get(kind, 0) / total if total else 0.0
    raise AssertionError(f"threshold {threshold} missing from report")


@needs_datasets
def test_criterion_4_thunderbird():
    path = find_dataset("thunderbird")
    if path is None:
        pytest.skip("no thunderbird file under LOGTAXON_DATASETS")
    corpus, analysis, elapsed = run_dataset(path, "thunderbird", limit=5_000_000)
    report = analysis.report
    anomalous = anomalous_count(corpus)
    anomalous_ok = anomalous == 226_287
    shares = [kind_pct(report, t, AnomalyKind.TEMPLATE) for t in DEFAULT_THRESHOLDS]
    share_ok = all(s >= 98.0 for s in shares)
    unclassified = [
        row.unclassified for row in report.rows if row.threshold <= Fraction(9, 10)
    ]
    unclassified_ok = all(u <= 10 for u in unclassified)
    verdict(
        "criterion 4 (thunderbird 5M)",
        anomalous_ok and share_ok and unclassified_ok and elapsed < 600,
        f"anomalous={anomalous}, template%={[f'{s:.2f}' for s in shares]}, "
        f"unclassified<=0.9={unclassified}, {elapsed:.0f}s",
    )


@needs_datasets
def test_criterion_4_spirit():
    path = find_dataset("spirit")
    if path is None:
        pytest.skip("no spirit file under LOGTAXON_DATASETS")
    corpus, analysis, elapsed = run_dataset(path, "spirit", limit=5_000_000)
    anomalous = anomalous_count(corpus)
    anomalous_ok = anomalous == 764_891
    # the two dominant drive-fault templates must cover nearly all anomalies
    counts = {}
    for rec, tid in zip(corpus, analysis.mining.assignment):
        if rec.anomalous:
            counts[tid] = counts.get(tid, 0) + 1
    top_two = sorted(counts.values(), reverse=True)[:2]
    cover = 100.0 * sum(top_two) / anomalous if anomalous else 0.0
    texts = {
        " ".join(analysis.mining.templates[tid - 1].tokens)
        for tid, c in counts.items()
        if c in top_two and c > 0
    }
    verdict(
        "criterion 4 (spirit 5M)",
        anomalous_ok and cover >= 98.0 and elapsed < 600,
        f"anomalous={anomalous}, top2 cover={cover:.2f}% {sorted(texts)!r}, "
        f"{elapsed:.0f}s",
    )


@needs_datasets
def test_criterion_4_bgl():
    path = find_dataset("bgl")
    if path is None:
        pytest.skip("no bgl file under LOGTAXON_DATASETS")
    corpus, analysis, elapsed = run_dataset(path, "bgl", limit=None)
    report = analysis.report
    anomalous = anomalous_count(corpus)
    anomalous_ok = anomalous == 348_460
    ctx_shares = [
        kind_pct(report, t, AnomalyKind.CONTEXTUAL)
        for t in DEFAULT_THRESHOLDS
        if t <= Fraction(9, 10)
    ]
    ctx_ok = all(s >= 85.0 for s in ctx_shares)
    tpl_at_one = kind_pct(report, Fraction(1), AnomalyKind.TEMPLATE)
    tpl_ok = 70.0 <= tpl_at_one <= 90.0
    verdict(
        "criterion 4 (bgl full)",
        anomalous_ok and ctx_ok and tpl_ok and elapsed < 600,
        f"anomalous={anomalous}, contextual%={[f'{s:.1f}' for s in ctx_shares]}, "
        f"template%@1.0={tpl_at_one:.1f}, {elapsed:.0f}s",
    )


# --- criterion 5: no detector metrics are produced or claimed ----------------------


def test_criterion_5_no_detector_claims():
    import logtaxon

    names = dir(logtaxon)
    offenders = [n for n in names if any(w in n.lower() for w in ("train", "predict", "f1"))]
    verdict(
        "criterion 5 (no detection-model claims; out of scope by design)",
        not offenders,
        "classification of labeled anomalies only",
    )
