"""Reading labeled log datasets and generating synthetic ones.

Supported on-disk shape: one message per line, a fixed number of
whitespace-separated header fields in front, the label in one of them
(supercomputer dumps put "-" first for normal lines and an alert tag
otherwise), and the free-text content after the header. Files may be
gzip-compressed; that is sniffed from the magic bytes, not the name.
"""

from __future__ import annotations

import gzip
import io
import random
import zlib
from dataclasses import dataclass, field
from itertools import repeat
from typing import IO, Iterable, Mapping, Sequence

from .model import AnomalyKind, LogRecord
from .templating import MaskRule, _tokenizer


@dataclass(frozen=True, slots=True)
class DatasetFormat:
    """Line layout: header width, which header field is the label, normal marker."""

    header_fields: int = 1
    label_field: int = 0
    normal_token: str = "-"

    def __post_init__(self) -> None:
        if self.header_fields < 1:
            raise ValueError("header_fields must be at least 1")
        if not 0 <= self.label_field < self.header_fields:
            raise ValueError("label_field must index a header field")
        if self.normal_token.split() != [self.normal_token]:  # else no field can equal it
            raise ValueError(f"normal token {self.normal_token!r} must be one whitespace-free field")


# Header widths of the common supercomputer dumps:
#   bgl:         label ts date node ts2 node2 facility subsystem level | content
#   thunderbird: label ts date user month day time location | component[pid]: content
#   spirit:     label ts date system month day time system2 | component: content
# The syslog component token ("kernel:", "crond[123]:") stays in the content
# for thunderbird and spirit, so it participates in template mining.
PRESETS: dict[str, DatasetFormat] = {
    "generic": DatasetFormat(header_fields=1),
    "bgl": DatasetFormat(header_fields=9),
    "thunderbird": DatasetFormat(header_fields=8),
    "spirit": DatasetFormat(header_fields=8),
}


@dataclass(frozen=True, slots=True)
class IngestSummary:
    lines_read: int
    malformed_skipped: int


class _Replayed(io.RawIOBase):
    """`head`, already read from `rest`, then what `rest` still holds."""

    def __init__(self, head: bytes, rest: io.BufferedReader):
        self._head, self._rest = head, rest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if not self._head:
            return self._rest.readinto1(buffer)
        n = min(len(buffer), len(self._head))
        buffer[:n], self._head = self._head[:n], self._head[n:]
        return n


def _decoded(raw: io.BufferedReader) -> IO[str]:
    """Text of an open binary file, gunzipped when it starts with the gzip magic bytes.

    The sniffed bytes are read in full, however a pipe splits them, and then
    replayed in front of the rest, so a pipe is read once and loses nothing.
    """
    head = raw.read(2)
    stream = _Replayed(head, raw)
    stream = gzip.GzipFile(fileobj=stream) if head == b"\x1f\x8b" else io.BufferedReader(stream)
    return io.TextIOWrapper(stream, encoding="utf-8", errors="replace", newline="\n")


def read_dataset(
    path: str,
    format: DatasetFormat = PRESETS["generic"],
    limit: int | None = None,
    mask_rules: Sequence[MaskRule] | None = None,
) -> tuple[list[LogRecord], IngestSummary]:
    """Parse a dataset file into a list of records, skipping (and counting) malformed lines.

    A line ends at a newline alone, so a stray carriage return is whitespace
    within it. A line is malformed when it has fewer fields than the header
    needs, or is blank. A byte-order mark at the start of any line is
    dropped, as concatenated files leave one per file, so a line holding
    only a mark is blank. `limit` caps parsed records, not raw lines, and
    must be at least 1. Raises ValueError("empty corpus") when nothing
    parses, and names the file in a ValueError when gzip input is truncated
    or corrupt. Lines with equal label and content are one record, made anew
    only where the content last appeared under the other label. Equal
    contents under either label share one string, whose hash the later
    stages' lookups then find already computed. Given `mask_rules`, each
    distinct content is tokenized once, when its first record is made, so
    every record holds its tokens and `tokenize_corpus` keeps it as it is;
    without them, `tokens` stays None.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    tokens_of = (lambda content: None) if mask_rules is None else _tokenizer(mask_rules)
    records: list[LogRecord] = []
    by_content: dict[str, LogRecord] = {}  # the last record of each content
    last, append = by_content.get, records.append
    width, label_at, normal = format.header_fields, format.label_field, format.normal_token
    lines_read = malformed = 0
    with open(path, "rb") as raw, _decoded(raw) as fh:
        lines = map(str.rstrip, map(str.lstrip, fh, repeat("\ufeff")), repeat("\r\n"))
        fields = map(str.split, lines, repeat(None), repeat(width))
        try:
            for lines_read, parts in enumerate(fields, 1):
                if len(parts) < width:
                    malformed += 1
                    continue
                content = parts[width] if len(parts) > width else ""
                anomalous = parts[label_at] != normal
                rec = last(content)
                if rec is None:
                    rec = by_content[content] = LogRecord(anomalous, content, tokens_of(content))
                elif rec.anomalous is not anomalous:
                    rec = by_content[content] = LogRecord(anomalous, rec.content, rec.tokens)
                append(rec)
                if limit is not None and len(records) >= limit:
                    break
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"damaged gzip input {path!r}: {exc}") from None
    if not records:
        raise ValueError("empty corpus")
    return records, IngestSummary(lines_read, malformed)


def write_dataset(corpus: Iterable[LogRecord], path: str) -> None:
    """Write a corpus in the generic one-header-field layout (round-trips with read_dataset)."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as fh:
        for rec in corpus:
            label = "ANOM" if rec.anomalous else "-"
            fh.write(f"{label} {rec.content}\n")


@dataclass(frozen=True, slots=True)
class AttributePool:
    """Values a "<pool>" token draws, named by its key in `SyntheticSpec.pools`: normal
    lines sample `normal`, attribute anomalies `anomalous` (tokens no normal line uses)."""

    normal: tuple[str, ...]
    anomalous: tuple[str, ...] = ()


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a generated corpus.

    `templates` are message patterns whose "<pool>" tokens get filled from the
    named pool; they cycle in order, which gives the stream a stable rhythm.
    `anomaly_templates` are patterns only anomalies use. Injected anomalies
    replace the scheduled message (template/attribute kinds) or insert an
    extra one (contextual kind), keeping kinds separable on purpose.
    """

    templates: tuple[str, ...]
    pools: Mapping[str, AttributePool] = field(default_factory=dict)
    length: int = 1000
    anomaly_rate: float = 0.05
    seed: int = 0
    anomaly_templates: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.templates:
            raise ValueError("at least one template is required")
        if not 0 <= self.anomaly_rate <= 1:
            raise ValueError("anomaly_rate must be within [0, 1]")
        if self.length < 1:
            raise ValueError("length must be positive")
        for tpl in self.templates + self.anomaly_templates:
            for slot in _slots_of(tpl):
                pool = self.pools.get(slot)
                if pool is None:
                    raise ValueError(f"template {tpl!r} references unknown pool {slot!r}")
                if not pool.normal:
                    raise ValueError(f"pool {slot!r} has no normal values")
        can_inject = self.anomaly_templates or any(
            self.pools[s].anomalous for t in self.templates for s in _slots_of(t)
        )
        if self.anomaly_rate > 0 and not can_inject:
            raise ValueError(
                "anomaly_rate > 0 needs anomaly_templates or a template slot "
                "whose pool has anomalous values"
            )


def _slots_of(template: str) -> list[str]:
    return [tok[1:-1] for tok in template.split() if tok.startswith("<") and tok.endswith(">")]


def _fill(template: str, pools: Mapping[str, AttributePool], rng: random.Random, anomalous_slots: bool) -> str:
    out = []
    for tok in template.split():
        if tok.startswith("<") and tok.endswith(">"):
            pool = pools[tok[1:-1]]
            values = pool.anomalous if anomalous_slots and pool.anomalous else pool.normal
            out.append(rng.choice(values))
        else:
            out.append(tok)
    return " ".join(out)


def generate_synthetic(spec: SyntheticSpec) -> tuple[tuple[LogRecord, ...], dict[int, AnomalyKind]]:
    """Generate a labeled corpus with known injected anomaly kinds.

    Returns the corpus and {1-based index: injected kind} ground truth.
    Deterministic for a fixed spec (seeded RNG, no global state).
    """
    rng = random.Random(spec.seed)
    attribute_templates = tuple(
        t for t in spec.templates if any(spec.pools[s].anomalous for s in _slots_of(t))
    )
    kinds: list[AnomalyKind] = []
    if spec.anomaly_templates:
        kinds.append(AnomalyKind.TEMPLATE)
        kinds.append(AnomalyKind.CONTEXTUAL)
    if attribute_templates:
        kinds.append(AnomalyKind.ATTRIBUTE)

    records: list[LogRecord] = []
    truth: dict[int, AnomalyKind] = {}

    def emit(anomalous: bool, content: str, kind: AnomalyKind | None = None) -> None:
        records.append(LogRecord(anomalous, content))
        if kind is not None:
            truth[len(records)] = kind

    step = 0
    while len(records) < spec.length:
        scheduled = spec.templates[step % len(spec.templates)]
        step += 1
        if kinds and rng.random() < spec.anomaly_rate:
            kind = rng.choice(kinds)
            attribute = kind is AnomalyKind.ATTRIBUTE
            tpl = rng.choice(attribute_templates if attribute else spec.anomaly_templates)
            emit(True, _fill(tpl, spec.pools, rng, attribute), kind)
            # A contextual anomaly is an off-schedule extra message interrupting
            # the rhythm; the others replace the scheduled one.
            if kind is not AnomalyKind.CONTEXTUAL or len(records) >= spec.length:
                continue
        emit(False, _fill(scheduled, spec.pools, rng, False))
    return tuple(records), truth
