"""logtaxon: template mining and anomaly-taxonomy scoring for labeled logs."""

from .context import ContextBounds, ContextSignature, build_all_contexts
from .ingest import (
    PRESETS,
    AttributePool,
    DatasetFormat,
    IngestSummary,
    SyntheticSpec,
    generate_synthetic,
    read_dataset,
    write_dataset,
)
from .model import AnomalyKind, LogRecord, TokenSequence
from .pipeline import Analysis, analyze_corpus
from .report import (
    DEFAULT_THRESHOLDS,
    DatasetStats,
    TaxonomyReport,
    ThresholdRow,
    ThresholdSweep,
    classify,
    dataset_statistics,
    sweep_report,
)
from .scoring import (
    CountTable,
    ScoreTriple,
    build_count_table,
    score_corpus,
)
from .templating import (
    DEFAULT_MASK_RULES,
    MaskRule,
    MinerConfig,
    MiningResult,
    Template,
    attributes_for_corpus,
    load_mask_rules,
    mine_templates,
    save_forest,
    tokenize,
    tokenize_corpus,
)

__version__ = "0.1.0"

__all__ = [
    "AnomalyKind",
    "Analysis",
    "AttributePool",
    "ContextBounds",
    "ContextSignature",
    "CountTable",
    "DEFAULT_MASK_RULES",
    "DEFAULT_THRESHOLDS",
    "DatasetFormat",
    "DatasetStats",
    "IngestSummary",
    "LogRecord",
    "MaskRule",
    "MinerConfig",
    "MiningResult",
    "PRESETS",
    "ScoreTriple",
    "SyntheticSpec",
    "TaxonomyReport",
    "Template",
    "ThresholdRow",
    "ThresholdSweep",
    "TokenSequence",
    "analyze_corpus",
    "attributes_for_corpus",
    "build_all_contexts",
    "build_count_table",
    "classify",
    "dataset_statistics",
    "generate_synthetic",
    "load_mask_rules",
    "mine_templates",
    "read_dataset",
    "save_forest",
    "score_corpus",
    "sweep_report",
    "tokenize",
    "tokenize_corpus",
    "write_dataset",
]
