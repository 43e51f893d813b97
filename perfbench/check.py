"""Output checks for one `logtaxon analyze` run, independent of the scorer.

Nothing here imports logtaxon. The checks compare the artifacts with the
generator's facts and with properties the method guarantees; where the run
dumped every line's scores and contexts, they also recount every score and
every sweep row by brute force from the raw text and the `templateId` column,
masking tokens with a private copy of the three default mask rules.

`check_outputs` returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

WILDCARD = "*"
KINDS = ("template", "attribute", "contextual")

# The default rules of logtaxon, copied so a fault in the program's masking
# shows up as a mismatch instead of being reproduced.
_IP = re.compile(r"\d{1,3}(?:\.\d{1,3}){3}")
_NUM = re.compile(r"[-+]?\d+")
_HEX = re.compile(r"(?P<pre>[A-Za-z_][\w.\-]*=)?(?:0[xX])?[0-9a-fA-F]{2,}")


def mask_token(token: str) -> str:
    if _IP.fullmatch(token):
        return "<:IP:>"
    if _NUM.fullmatch(token):
        return "<:NUM:>"
    m = _HEX.fullmatch(token)
    if m:
        return (m.group("pre") or "") + "<:HEX:>"
    return token


def read_raw(path: str) -> tuple[list[bool], list[list[str]], int]:
    """(anomalous flag, raw tokens) per record and the malformed-line count.

    Generic layout: the first field is the label ("-" is normal), the rest of
    the line is content; a line without any field is malformed.
    """
    anomalous: list[bool] = []
    tokens: list[list[str]] = []
    malformed = 0
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            parts = line.split(maxsplit=1)
            if not parts:
                malformed += 1
                continue
            anomalous.append(parts[0] != "-")
            tokens.append(parts[1].split() if len(parts) > 1 else [])
    return anomalous, tokens, malformed


def _share(pair: list[int]) -> Fraction:
    return Fraction(pair[0], pair[0] + pair[1])


def _bump(counts: dict, key: object, anomalous: bool) -> None:
    pair = counts.setdefault(key, [0, 0])
    pair[0 if anomalous else 1] += 1


def _frac_cells(value: Fraction | None) -> list[str]:
    if value is None:
        return ["", "", ""]
    return [f"{float(value):.6f}", str(value.numerator), str(value.denominator)]


def _percent(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def check_outputs(
    out_dir: str,
    corpus_path: str,
    facts: dict,
    context_before: int = 10,
    context_after: int = 0,
    attribute_scope: str = "global",
) -> list[str]:
    out = Path(out_dir)
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    forest = json.loads((out / "templates.json").read_text(encoding="utf-8"))
    anomalous, raw_tokens, malformed = read_raw(corpus_path)

    # The generator's facts, and the raw text they describe.
    n_anom = sum(anomalous)
    expect(
        (len(raw_tokens), n_anom, malformed)
        == (facts["records"], facts["anomalous"], facts["malformed"]),
        f"raw text has {len(raw_tokens)} records, {n_anom} anomalous, {malformed} malformed; "
        f"generator said {facts}",
    )
    dataset = report["dataset"]
    expect(dataset["anomalousMessages"] == facts["anomalous"], "anomalousMessages differs from generator")
    expect(dataset["normalMessages"] == facts["normal"], "normalMessages differs from generator")
    expect(report["source"]["malformedSkipped"] == facts["malformed"], "malformedSkipped differs from generator")
    expect(report["source"]["records"] == facts["records"], "source.records differs from generator")

    # Per-template counts partition the labeled lines.
    templates = {t["id"]: t for t in forest["templates"]}
    expect(
        sum(t["anomalousCount"] for t in templates.values()) == facts["anomalous"],
        "templates.json anomalous counts do not sum to the anomalous total",
    )
    expect(
        sum(t["normalCount"] for t in templates.values()) == facts["normal"],
        "templates.json normal counts do not sum to the normal total",
    )
    with_anom = {i for i, t in templates.items() if t["anomalousCount"]}
    with_norm = {i for i, t in templates.items() if t["normalCount"]}
    expect(
        (dataset["anomalousTemplates"], dataset["normalTemplates"], dataset["intersectionTemplates"])
        == (len(with_anom), len(with_norm), len(with_anom & with_norm)),
        "dataset template counts disagree with templates.json",
    )

    # Every line's token count is its template's length; without a per-line
    # template column this holds as equal line counts per length.
    per_length: Counter = Counter()
    for t in templates.values():
        per_length[len(t["tokens"])] += t["anomalousCount"] + t["normalCount"]
    expect(
        per_length == Counter(len(toks) for toks in raw_tokens),
        "lines per token count differ from template members per template length",
    )

    # Sweep properties.
    rows = report["thresholds"]
    total = dataset["anomalousMessages"]
    thresholds = [Fraction(r["threshold"]) for r in rows]
    expect(thresholds == sorted(set(thresholds)), "thresholds are not strictly increasing")
    for row in rows:
        expect(row["classified"] + row["unclassified"] == total, f"row {row['threshold']}: classified + unclassified != anomalous")
        expect(all(row["counts"][k] <= row["classified"] for k in KINDS), f"row {row['threshold']}: a kind exceeds classified")
    for lo, hi in zip(rows, rows[1:]):
        expect(hi["classified"] <= lo["classified"], f"classified rises from {lo['threshold']} to {hi['threshold']}")
        for k in KINDS:
            expect(hi["counts"][k] <= lo["counts"][k], f"{k} count rises from {lo['threshold']} to {hi['threshold']}")
    at_one = [r for r in rows if Fraction(r["threshold"]) == 1]
    if at_one:
        only_anomalous = sum(t["anomalousCount"] for t in templates.values() if t["normalCount"] == 0)
        expect(
            at_one[0]["counts"]["template"] == only_anomalous,
            "template count at threshold 1 differs from the anomalous members of never-normal templates",
        )

    with open(out / "report.csv", encoding="utf-8", newline="") as fh:
        csv_rows = list(csv.reader(fh))[1:]
    expect(
        csv_rows
        == [
            [f"{float(Fraction(r['threshold'])):g}"]
            + [f"{r['percentages'][k]:.6f}" for k in KINDS]
            + [f"{r['unclassifiedPercentage']:.6f}"]
            for r in rows
        ],
        "report.csv differs from report.json",
    )

    scores_path = out / "scores.csv"
    if scores_path.exists():
        problems += _recount(
            scores_path,
            out / "contexts.csv",
            anomalous,
            raw_tokens,
            templates,
            rows,
            context_before,
            context_after,
            attribute_scope,
        )
    return problems


def _recount(
    scores_path: Path,
    contexts_path: Path,
    anomalous: list[bool],
    raw_tokens: list[list[str]],
    templates: dict,
    rows: list[dict],
    before: int,
    after: int,
    scope: str,
) -> list[str]:
    """Brute-force recount of every score, context and sweep row.

    Also checks that each line's masked tokens equal its template's literal
    tokens. Needs a score row for every line (`--score-normal`), since the context
    windows are built from the per-line `templateId` column.
    """
    with open(scores_path, encoding="utf-8", newline="") as fh:
        score_rows = list(csv.reader(fh))[1:]
    n = len(raw_tokens)
    if [int(r[0]) for r in score_rows] != list(range(1, n + 1)):
        return ["scores.csv does not hold one row per line in order"]
    problems: list[str] = []
    assignment = [int(r[1]) for r in score_rows]
    if any(t not in templates for t in assignment):
        return ["scores.csv names a template missing from templates.json"]

    cache: dict[str, str] = {}
    attrs: list[list[str]] = []
    for i, (tid, toks) in enumerate(zip(assignment, raw_tokens), start=1):
        tpl = templates[tid]["tokens"]
        if len(toks) != len(tpl):
            problems.append(f"line {i} has {len(toks)} tokens, its template {tid} has {len(tpl)}")
            attrs.append([])
            continue
        line_attrs = []
        for t, tok in zip(tpl, toks):
            masked = cache.get(tok)
            if masked is None:
                masked = cache[tok] = mask_token(tok)
            if t == WILDCARD:
                line_attrs.append(masked)
            elif t != masked:
                problems.append(f"line {i}: masked token {masked!r} differs from template {tid}'s {t!r}")
                break
        attrs.append(line_attrs)
    if problems:
        return problems[:10]

    windows = []
    for i in range(n):
        lo, hi = max(0, i - before), min(n - 1, i + after)
        windows.append(frozenset(assignment[j] for j in range(lo, hi + 1) if j != i))
    if contexts_path.exists():
        with open(contexts_path, encoding="utf-8", newline="") as fh:
            ctx_rows = list(csv.reader(fh))[1:]
        expected = [[str(i), " ".join(str(t) for t in sorted(w))] for i, w in enumerate(windows, start=1)]
        if ctx_rows != expected:
            problems.append("contexts.csv differs from the windows recomputed from templateId")

    tpl_counts: dict = {}
    attr_counts: dict = {}
    ctx_counts: dict = {}
    for tid, line_attrs, sig, anom in zip(assignment, attrs, windows, anomalous):
        _bump(tpl_counts, tid, anom)
        _bump(ctx_counts, sig, anom)
        for slot, tok in enumerate(line_attrs):
            _bump(attr_counts, tok if scope == "global" else (tid, slot, tok), anom)

    triples = []
    bad = 0
    for row, tid, line_attrs, sig in zip(score_rows, assignment, attrs, windows):
        alpha = _share(tpl_counts[tid])
        beta = None
        for slot, tok in enumerate(line_attrs):
            s = _share(attr_counts[tok if scope == "global" else (tid, slot, tok)])
            beta = s if beta is None or s > beta else beta
        gamma = _share(ctx_counts[sig])
        a, b, g = _frac_cells(alpha), _frac_cells(beta), _frac_cells(gamma)
        if row[2:] != [a[0], b[0], g[0], a[1], a[2], b[1], b[2], g[1], g[2]]:
            bad += 1
        triples.append((alpha, beta, gamma))
    if bad:
        problems.append(f"{bad} scores.csv rows differ from the brute-force recount")

    total = sum(anomalous)
    for row in rows:
        t = Fraction(row["threshold"])
        counts = dict.fromkeys(KINDS, 0)
        classified = 0
        for (alpha, beta, gamma), anom in zip(triples, anomalous):
            if not anom:
                continue
            hits = (alpha >= t, beta is not None and beta >= t, gamma >= t)
            classified += any(hits)
            for kind, hit in zip(KINDS, hits):
                counts[kind] += hit
        expected_row = (counts, classified, total - classified)
        if (row["counts"], row["classified"], row["unclassified"]) != expected_row:
            problems.append(f"sweep row {row['threshold']} differs from the recount {expected_row}")
        elif row["percentages"] != {k: _percent(counts[k], total) for k in KINDS}:
            problems.append(f"sweep row {row['threshold']} percentages differ from the recount")
    return problems
