"""Core domain types for labeled log corpora."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

TokenSequence = tuple[str, ...]
"""Ordered content tokens of one log message, free of whitespace after splitting."""


class Label(enum.Enum):
    """Binary expert annotation carried by every record."""

    NORMAL = "normal"
    ANOMALOUS = "anomalous"


class AnomalyKind(enum.Enum):
    """Taxonomy classes. A message may carry any subset, including none."""

    TEMPLATE = "template"
    ATTRIBUTE = "attribute"
    CONTEXTUAL = "contextual"


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One log line: 1-based sequence position, label, and content.

    `tokens` is None until the templating stage builds a tokenized copy.
    """

    index: int
    label: Label
    content: str
    tokens: TokenSequence | None = None


@dataclass(frozen=True, slots=True)
class LabeledCorpus:
    """Ordered record sequence split into normal and anomalous label classes."""

    records: tuple[LogRecord, ...]
    normal_count: int
    anomalous_count: int

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    def record(self, index: int) -> LogRecord:
        """Look up a record by its 1-based sequence index."""
        if not 1 <= index <= len(self.records):
            raise IndexError(f"record index {index} out of range 1..{len(self.records)}")
        return self.records[index - 1]

    def anomalous_records(self) -> Iterator[LogRecord]:
        return (r for r in self.records if r.label is Label.ANOMALOUS)


def split_corpus(records: Iterable[LogRecord]) -> LabeledCorpus:
    """Build a LabeledCorpus, counting the two label classes.

    Records must arrive in sequence order with unique, contiguous 1-based
    indices; every record is in exactly one class, so the counts partition
    the corpus. Raises ValueError on an empty input or a broken index chain.
    """
    items = tuple(records)
    if not items:
        raise ValueError("empty corpus")
    anomalous = 0
    for pos, rec in enumerate(items, start=1):
        if rec.index != pos:
            raise ValueError(
                f"record indices must be contiguous from 1; found {rec.index} at position {pos}"
            )
        if rec.label is Label.ANOMALOUS:
            anomalous += 1
    return LabeledCorpus(items, normal_count=len(items) - anomalous, anomalous_count=anomalous)
