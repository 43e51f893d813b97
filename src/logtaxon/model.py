"""Core domain types for labeled log corpora."""

from __future__ import annotations

import enum
from dataclasses import dataclass

TokenSequence = tuple[str, ...]
"""Ordered content tokens of one log message, free of whitespace after splitting."""


class AnomalyKind(enum.Enum):
    """Taxonomy classes. A message may carry any subset, including none."""

    TEMPLATE = "template"
    ATTRIBUTE = "attribute"
    CONTEXTUAL = "contextual"


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One log line: its expert label, True when anomalous, and its content. A
    corpus is a sequence of records, and a record's 1-based position in it is its index.

    `tokens` is the content's masked token tuple, or None until a reader given
    mask rules or `tokenize_corpus` fills it in.
    """

    anomalous: bool
    content: str
    tokens: TokenSequence | None = None
