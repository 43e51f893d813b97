"""One traced `logtaxon analyze`, timed layer by layer from outside the program.

Usage (run.py starts it; PYTHONPATH must reach the logtaxon sources):

    python3 perfbench/trace_run.py --trace-file T.json analyze --input ... [analyze flags]

It imports logtaxon in this process, replaces each layer's public function
with a wrapper at the name its caller looks up (`logtaxon.cli` for ingest,
the pipeline and `save_forest`; `logtaxon.pipeline` for the stages), and calls
`cli.main` with the analyze arguments. The layers therefore run in pipeline
order exactly as the command runs them, and no program file changes.

Each wrapper records a span (name, start, end, parent) in memory and the
process's high-water RSS when the call returns. After `cli.main` returns, the
counters are computed from the values the wrappers kept, and everything is
written to the trace file at once.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from logtaxon import cli, pipeline

# (module, attribute, span name) in pipeline order.
WRAPPED = (
    (cli, "read_dataset", "ingest.read_dataset"),
    (cli, "analyze_corpus", "pipeline.analyze_corpus"),
    (pipeline, "tokenize_corpus", "templating.tokenize_corpus"),
    (pipeline, "mine_templates", "templating.mine_templates"),
    (pipeline, "attributes_for_corpus", "templating.attributes_for_corpus"),
    (pipeline, "build_all_contexts", "context.build_all_contexts"),
    (pipeline, "build_count_table", "scoring.build_count_table"),
    (pipeline, "score_corpus", "scoring.score_corpus"),
    (pipeline, "dataset_statistics", "report.dataset_statistics"),
    (pipeline, "sweep_report", "report.sweep_report"),
    (cli, "save_forest", "templating.save_forest"),
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans and per-span results, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.rss_mb: dict[str, float] = {}
        self.args: dict[str, tuple] = {}
        self.results: dict[str, object] = {}
        self._stack: list[str] = []

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._stack.append(name)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._stack.pop()
            self.spans.append({"name": name, "start": start, "end": end, "parent": parent})
            self.rss_mb[name] = _rss_mb()
            self.args[name] = args
            self.results[name] = result
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Span time minus the time its direct children cover (spans never overlap)."""
        own = {s["name"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def counters(tracer: Tracer, out_dir: Path) -> dict[str, float]:
    corpus, summary = tracer.results["ingest.read_dataset"]
    tokenized = tracer.results["templating.tokenize_corpus"]
    mining = tracer.results["templating.mine_templates"]
    signatures = tracer.results["context.build_all_contexts"]
    table = tracer.results["scoring.build_count_table"]
    scores = tracer.results["scoring.score_corpus"]
    swept = tracer.args["report.sweep_report"][0]

    raw_tokens = set()
    for rec in corpus:
        raw_tokens.update(rec.content.split())
    sequences = {rec.tokens for rec in tokenized}
    by_length = Counter(len(t.tokens) for t in mining.templates)
    lines = len(tokenized)
    return {
        "ingest.lines": summary.lines_read,
        "ingest.malformed": summary.malformed_skipped,
        "templating.distinct_raw_tokens": len(raw_tokens),
        "templating.distinct_sequences": len(sequences),
        "templating.sequence_repeat_ratio": 1 - len(sequences) / lines,
        "templating.templates": len(mining.templates),
        "templating.same_length_templates_mean": statistics.fmean(
            by_length[len(rec.tokens)] for rec in tokenized
        ),
        "context.distinct_signatures": len(set(signatures)),
        "context.mean_signature_size": statistics.fmean(len(sig) for sig in signatures),
        "scoring.scored_messages": len(scores),
        "scoring.distinct_attribute_keys": len(table.attribute_counts),
        "report.distinct_triples": len(set(swept.values())),
        "cli.artifact_bytes": sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--trace-file", required=True)
    args, analyze_argv = parser.parse_known_args()
    out_dir = Path(analyze_argv[analyze_argv.index("--out-dir") + 1])

    tracer = Tracer()
    for module, attr, name in WRAPPED:
        setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    code = tracer.wrap(cli.main, "cli.main")(analyze_argv)
    main_returned = time.monotonic()
    if code != 0:
        return code

    trace = {
        "spans": tracer.spans,
        "self_s": tracer.self_times(),
        "rss_mb": tracer.rss_mb,
        "counters": counters(tracer, out_dir),
    }
    trace["post_main_s"] = time.monotonic() - main_returned
    with open(args.trace_file, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
