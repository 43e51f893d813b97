"""End-to-end analysis: tokenize, mine, score, and report in one call."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from typing import Iterable, Mapping

from .context import ContextBounds, ContextSignature, build_all_contexts
from .model import LogRecord
from .report import TaxonomyReport, ThresholdSweep, dataset_statistics, sweep_report
from .scoring import CountTable, ScoreColumn, build_count_table, score_corpus
from .templating import (
    AttributeScope, MinerConfig, MiningResult, attributes_for_corpus, mine_templates, tokenize_corpus
)


@dataclass(frozen=True)
class Analysis:
    """Everything one pipeline run produced, from mining to the final report."""

    mining: MiningResult
    attribute_sets: tuple[tuple, ...]  # attribute keys by sequence id
    signatures: list[ContextSignature]
    table: CountTable
    scores: ScoreColumn  # read-only {line index: ScoreTriple}, a 4-byte triple id per line
    report: TaxonomyReport


def analyze_corpus(
    corpus: Iterable[LogRecord],
    *,
    miner_config: MinerConfig | None = None,
    bounds: ContextBounds | None = None,
    sweep: ThresholdSweep | None = None,
    attribute_scope: AttributeScope = "global",
    include_normal_scores: bool = False,
    source: Mapping[str, object] | None = None,
) -> Analysis:
    """Run the full pipeline over a corpus of records, read once.

    The corpus may be any iterable of records; records only an iterator holds
    are freed once tokenized. A record that already holds tokens keeps them,
    so it must have been read under `miner_config.mask_rules`. The report's
    config block echoes the analysis parameters so a run can be reproduced
    from its own output. Raises ValueError("empty corpus") when the corpus
    holds no record.
    """
    miner_config = miner_config or MinerConfig()
    bounds = bounds or ContextBounds()
    sweep = sweep or ThresholdSweep()

    tokenized = tokenize_corpus(corpus, miner_config.mask_rules)
    if not tokenized:
        raise ValueError("empty corpus")
    # Later stages read per-line columns, not records: the records go before
    # mining, and the sequence column right after it.
    sequences = [rec.tokens for rec in tokenized]
    anomalous = bytes(map(attrgetter("anomalous"), tokenized))
    del tokenized
    mining = mine_templates(sequences, miner_config)
    del sequences
    attribute_sets = attributes_for_corpus(mining, attribute_scope)
    signatures = build_all_contexts(mining.assignment, bounds)
    table = build_count_table(anomalous, mining, attribute_sets, signatures)
    scores = score_corpus(
        anomalous, table, mining, attribute_sets, signatures, include_normal=include_normal_scores
    )
    stats = dataset_statistics(table)
    config = {
        "minerDepth": miner_config.tree_depth,
        "minerSimilarity": miner_config.similarity_threshold,
        "minerMaxChildren": miner_config.max_children,
        "maskRules": [r.name for r in miner_config.mask_rules],
        "contextBefore": bounds.before,
        "contextAfter": bounds.after,
        "attributeScope": attribute_scope,
        "thresholds": [str(t) for t in sweep.thresholds],
    }
    kept = (array("I", compress(column, anomalous)) for column in (scores.indices, scores.ids))
    report = sweep_report(  # of the anomalous lines only
        ScoreColumn(scores.triples, *kept) if include_normal_scores else scores,
        sweep,
        stats,
        config=config,
        source=source,
    )
    return Analysis(
        mining=mining,
        attribute_sets=attribute_sets,
        signatures=signatures,
        table=table,
        scores=scores,
        report=report,
    )
