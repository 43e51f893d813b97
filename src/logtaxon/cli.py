"""Command-line front end: analyze a dataset file or synthesize a demo one."""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import get_args

from .context import ContextBounds
from .ingest import (
    PRESETS,
    AttributePool,
    DatasetFormat,
    SyntheticSpec,
    generate_synthetic,
    read_dataset,
    write_dataset,
)
from .pipeline import Analysis, analyze_corpus
from .report import DEFAULT_THRESHOLDS, ThresholdSweep
from .scoring import AttributeScope, ScoreTriple
from .templating import DEFAULT_MASK_RULES, MinerConfig, load_mask_rules, save_forest

OUT_DIR_ENV = "LOGTAXON_OUT_DIR"

# Exit status of a fault in logtaxon itself; 1 is bad input, 2 argparse's usage error.
EXIT_INTERNAL = 3

# Flag defaults come from the library's own, so each lives in one place.
_BOUNDS = ContextBounds()
_MINER = MinerConfig()
_THRESHOLDS = ",".join(str(float(t)) for t in DEFAULT_THRESHOLDS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logtaxon",
        description="Mine log templates and classify labeled anomalies by taxonomy class.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a labeled dataset file")
    analyze.add_argument("--input", required=True, help="dataset file (plain or gzip)")
    analyze.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="generic",
        help="line layout preset (default: generic)",
    )
    analyze.add_argument("--header-fields", type=int, help="override preset header width")
    analyze.add_argument("--label-field", type=int, help="override which header field is the label")
    analyze.add_argument("--normal-token", help="override the normal-label marker (default '-')")
    analyze.add_argument("--limit", type=int, help="parse at most this many records")
    analyze.add_argument("--context-before", type=int, default=_BOUNDS.before, metavar="N")
    analyze.add_argument("--context-after", type=int, default=_BOUNDS.after, metavar="N")
    analyze.add_argument(
        "--thresholds",
        default=_THRESHOLDS,
        help=f"comma-separated sweep, each in (0,1] (default: {_THRESHOLDS})",
    )
    analyze.add_argument(
        "--out-dir",
        default=os.environ.get(OUT_DIR_ENV, "logtaxon_out"),
        help=f"artifact directory (default: ${OUT_DIR_ENV} or logtaxon_out)",
    )
    analyze.add_argument(
        "--threads", type=int, help="deprecated and ignored: analysis always runs on one thread"
    )
    analyze.add_argument("--mask-rules", help="JSON file of token mask rules")
    analyze.add_argument("--miner-depth", type=int, default=_MINER.tree_depth)
    analyze.add_argument("--miner-similarity", type=float, default=_MINER.similarity_threshold)
    analyze.add_argument("--miner-max-children", type=int, default=_MINER.max_children)
    analyze.add_argument(
        "--attribute-scope",
        choices=get_args(AttributeScope),
        default="global",
        help="pool attribute tokens corpus-wide or per template slot",
    )
    analyze.add_argument(
        "--dump-scores", action="store_true", help="also write per-message scores.csv"
    )
    analyze.add_argument(
        "--dump-contexts", action="store_true", help="also write per-message contexts.csv"
    )
    analyze.add_argument(
        "--score-normal",
        action="store_true",
        help="score normal messages too in the --dump-scores dump (not the report)",
    )

    synth = sub.add_parser("synth", help="generate a small synthetic labeled dataset")
    synth.add_argument("--out", required=True, help="output file ('.gz' for compressed)")
    synth.add_argument("--length", type=int, default=2000)
    synth.add_argument("--anomaly-rate", type=float, default=0.05)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--truth", help="also write {index: kind} ground truth as JSON")
    return parser


DEMO_SPEC_TEMPLATES = (
    "session opened for user <user> from <ip>",
    "request served in <ms> ms with status <status>",
    "disk <disk> health check passed",
)
DEMO_SPEC_POOLS = {
    "user": AttributePool(("alice", "bob", "carol"), ("mallory",)),
    "ip": AttributePool(("10.0.0.1", "10.0.0.2", "192.168.1.9")),
    "ms": AttributePool(("12", "35", "310")),
    "status": AttributePool(("200", "204"), ("503",)),
    "disk": AttributePool(("sda", "sdb")),
}
DEMO_SPEC_ANOMALY_TEMPLATES = (
    "kernel panic on cpu <ms>",
    "raid array degraded on disk <disk>",
)


def _run_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        templates=DEMO_SPEC_TEMPLATES,
        pools=DEMO_SPEC_POOLS,
        anomaly_templates=DEMO_SPEC_ANOMALY_TEMPLATES,
        length=args.length,
        anomaly_rate=args.anomaly_rate,
        seed=args.seed,
    )
    corpus, truth = generate_synthetic(spec)
    write_dataset(corpus, args.out)
    if args.truth:
        with open(args.truth, "w", encoding="utf-8") as fh:
            json.dump({str(i): kind.value for i, kind in sorted(truth.items())}, fh, indent=2)
            fh.write("\n")
    print(
        f"wrote {len(corpus)} records ({len(truth)} anomalous) to {args.out}",
        file=sys.stderr,
    )
    return 0


def _format_for(args: argparse.Namespace) -> DatasetFormat:
    base = PRESETS[args.preset]
    return DatasetFormat(
        header_fields=args.header_fields if args.header_fields is not None else base.header_fields,
        label_field=args.label_field if args.label_field is not None else base.label_field,
        normal_token=args.normal_token if args.normal_token is not None else base.normal_token,
    )


def _score_fields(triple: ScoreTriple) -> str:
    """A scores.csv row's nine fraction fields, joined: the three floats, then each num and den."""
    floats, exact = [], []
    for value in (triple.template_score, triple.attribute_score, triple.context_score):
        floats.append("" if value is None else f"{float(value):.6f}")
        exact += ("", "") if value is None else (str(value.numerator), str(value.denominator))
    return ",".join(floats + exact)


# No field of either dump holds a comma, a quote or a line break, so rows are
# joined as they are, with nothing to quote.
def _write_scores_csv(analysis: Analysis, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            "index,templateId,alpha,beta,gamma,"
            "alpha_num,alpha_den,beta_num,beta_den,gamma_num,gamma_den\n"
        )
        # Messages share their triples, so each distinct object is formatted once.
        triples = analysis.scores.values()
        fields = {key: _score_fields(t) for key, t in dict(zip(map(id, triples), triples)).items()}
        assignment = analysis.mining.assignment
        fh.writelines(
            f"{index},{assignment[index - 1]},{fields[id(triple)]}\n"
            for index, triple in analysis.scores.items()
        )


def _write_contexts_csv(analysis: Analysis, path: Path) -> None:
    # Masks decode a byte at a time: tables[k][b] joins, ascending, the ids set when byte k is b.
    tables = [
        [" ".join(str(8 * k + bit) for bit in range(8) if b >> bit & 1) for b in range(256)]
        for k in range(len(analysis.mining.templates) // 8 + 1)
    ]
    rows = (
        filter(None, map(list.__getitem__, tables, sig.to_bytes(len(tables), "little")))
        for sig in analysis.signatures
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,templateIds\n")
        fh.writelines(f"{index},{' '.join(row)}\n" for index, row in enumerate(rows, start=1))


def _run_analyze(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.threads is not None:
        print("note: --threads is deprecated and ignored", file=sys.stderr)
    fmt = _format_for(args)
    mask_rules = load_mask_rules(args.mask_rules) if args.mask_rules else DEFAULT_MASK_RULES
    miner = MinerConfig(
        tree_depth=args.miner_depth,
        similarity_threshold=args.miner_similarity,
        max_children=args.miner_max_children,
        mask_rules=mask_rules,
    )
    bounds = ContextBounds(before=args.context_before, after=args.context_after)
    sweep = ThresholdSweep.parse(args.thresholds)

    print(f"reading {args.input} ...", file=sys.stderr)
    corpus, summary = read_dataset(args.input, fmt, limit=args.limit)
    if summary.malformed_skipped:
        print(
            f"skipped {summary.malformed_skipped} malformed of {summary.lines_read} lines",
            file=sys.stderr,
        )
    records = len(corpus)
    print(f"parsed {records} records; mining templates ...", file=sys.stderr)
    # Only the iterator holds the records, so they go once they are tokenized.
    corpus = iter(corpus)
    analysis = analyze_corpus(
        corpus,
        miner_config=miner,
        bounds=bounds,
        sweep=sweep,
        attribute_scope=args.attribute_scope,
        include_normal_scores=args.score_normal and args.dump_scores,
        source={
            "input": os.path.basename(args.input),
            "preset": args.preset,
            "limit": args.limit,
            "records": records,
            "malformedSkipped": summary.malformed_skipped,
        },
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Artifacts move out of staging only once all are written: a failed run
    # leaves the previous run's as they were, a killed one its staging directory.
    with tempfile.TemporaryDirectory(prefix=".incomplete-", dir=out_dir) as tmp:
        staged = Path(tmp)
        (staged / "report.json").write_text(analysis.report.to_json(), encoding="utf-8")
        (staged / "report.csv").write_text(analysis.report.to_csv(), encoding="utf-8")
        save_forest(analysis.mining, analysis.table.template_counts, str(staged / "templates.json"))
        if args.dump_scores:
            _write_scores_csv(analysis, staged / "scores.csv")
        if args.dump_contexts:
            _write_contexts_csv(analysis, staged / "contexts.csv")
        # Remove the optional dumps of an earlier run that this run did not stage.
        for name in {"scores.csv", "contexts.csv"} - set(os.listdir(staged)):
            (out_dir / name).unlink(missing_ok=True)
        for path in staged.iterdir():
            path.replace(out_dir / path.name)

    print(analysis.report.to_text(), end="")
    elapsed = time.monotonic() - started
    # Pass 2 can leave a pass-1 template with no line. templates.json keeps
    # every mined template; the report counts only the matched ones.
    mined = len(analysis.mining.templates)
    unmatched = mined - len(analysis.table.template_counts)
    print(
        f"mined {mined} templates ({unmatched} matching no line); "
        f"artifacts in {out_dir} ({elapsed:.1f}s)",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return _run_synth(args)
        return _run_analyze(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # a broken invariant of the pipeline, not of the input
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
