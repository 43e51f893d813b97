"""Tokenization, masking, and fixed-depth prefix-tree template mining.

The miner clusters equal-length token sequences under a shallow routing tree
(root -> sequence length -> leading tokens -> template ids) and merges a
message into the best cluster when the literal-token overlap ratio reaches a
configurable threshold. Mining runs in two passes: pass 1 grows and refines
clusters online, pass 2 re-assigns every message against the frozen forest so
early messages end up on the final shape of their template.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count
from sys import intern
from typing import Callable, Iterable, Mapping, Sequence

from .model import LogRecord, TokenSequence

WILDCARD = "*"

_HAS_DIGIT = re.compile(r"\d")


# A reference to a pattern group in a replacement: `\g<name>` or `\g<N>`.
_GROUP_REF = re.compile(r"\\g<([^<>]*)>")


@dataclass(frozen=True)
class MaskRule:
    """Rewrites a whole token when `pattern` matches it entirely.

    `replacement` is literal text with `\\g<name>` or `\\g<N>` references to
    the pattern's groups, so a rule can keep part of the original token (e.g.
    a `key=` prefix) around the mask; a group that did not take part in the
    match gives "". Any other backslash is refused rather than read as an
    escape. Mask tokens use the angle-bracket-colon form `<:NAME:>`, which
    whitespace splitting can never produce on its own. A rule whose `name` or
    `replacement` is not one non-empty, whitespace-free string raises
    ValueError when built; the pattern is compiled on first use.
    """

    name: str
    pattern: str
    replacement: str

    def __post_init__(self) -> None:
        for field, value in (("name", self.name), ("replacement", self.replacement)):
            if not isinstance(value, str) or value.split() != [value]:  # else a token holds a space
                raise ValueError(
                    f"{field!r} must be a non-empty, whitespace-free string, not {value!r}"
                )

    @cached_property
    def regex(self) -> re.Pattern[str]:
        """`pattern` compiled; the masker calls its `fullmatch`, so it rewrites whole tokens only."""
        return re.compile(self.pattern)

    @cached_property
    def pieces(self) -> tuple[str | int, ...]:
        """`replacement` split once into literal text and group numbers.

        Raises ValueError for a backslash outside a group reference, or a
        reference to a group the pattern does not define.
        """
        parts = _GROUP_REF.split(self.replacement)  # literal, reference, literal, ...
        if any("\\" in literal for literal in parts[::2]):
            raise ValueError(
                f"replacement {self.replacement!r}: a backslash may only start "
                "a group reference \\g<name> or \\g<N>"
            )
        groups = {str(n): n for n in range(self.regex.groups + 1)} | self.regex.groupindex
        for reference in parts[1::2]:
            if reference not in groups:
                raise ValueError(f"replacement {self.replacement!r}: no group {reference!r}")
        return tuple(groups[part] if i % 2 else part for i, part in enumerate(parts) if part)


# Ordered by priority: dotted quads first, then plain decimals, so that the
# broad hex rule only sees tokens the earlier rules left alone.
DEFAULT_MASK_RULES: tuple[MaskRule, ...] = (
    MaskRule("IP", r"\d{1,3}(?:\.\d{1,3}){3}", "<:IP:>"),
    MaskRule("NUM", r"[-+]?\d+", "<:NUM:>"),
    MaskRule(
        "HEX",
        r"(?P<pre>[A-Za-z_][\w.\-]*=)?(?:0[xX])?[0-9a-fA-F]{2,}",
        r"\g<pre><:HEX:>",
    ),
)


def load_mask_rules(path: str) -> tuple[MaskRule, ...]:
    """Read mask rules from a JSON file: a list of {name, pattern, replacement?}.

    A missing replacement defaults to "<:NAME:>". Every pattern and
    replacement is compiled and checked here, so a bad entry fails before any
    input is read, with a ValueError naming the file and the entry.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"mask rule file {path!r}: {exc}") from None
    if not isinstance(raw, list):
        raise ValueError(f"mask rule file {path!r} must contain a JSON list")
    rules = []
    for number, entry in enumerate(raw, start=1):
        where = f"mask rule file {path!r}, entry {number}"
        if not isinstance(entry, dict) or not {"name", "pattern"} <= entry.keys():
            raise ValueError(f"{where}: needs a 'name' and a 'pattern'")
        name = entry["name"]
        try:
            rule = MaskRule(name, entry["pattern"], entry.get("replacement", f"<:{name}:>"))
            rule.pieces  # compiles the pattern and parses the replacement
        except (re.error, TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
        rules.append(rule)
    return tuple(rules)


# A masker memo's entries: bounded, as a dump's distinct raw tokens (numbers, hex)
# grow with its lines. On mostly distinct lines, 2**12 entries missed so often that
# tokenizing slowed up to twofold, and 2**16 took more memory than no bound at all.
_MASK_MEMO_SIZE = 1 << 14


def _masker(rules: Sequence[MaskRule]) -> Callable[[str], str]:
    """A memoized function from a raw token to its masked form: the token
    rewritten by the first matching rule, or unchanged; interned."""
    compiled = [(rule.regex.fullmatch, rule.pieces) for rule in rules]

    @lru_cache(maxsize=_MASK_MEMO_SIZE)
    def mask(token: str) -> str:
        for fullmatch, pieces in compiled:
            m = fullmatch(token)
            if m is not None:
                return intern("".join([(m[p] or "") if type(p) is int else p for p in pieces]))
        return intern(token)

    return mask


def tokenize(content: str, rules: Sequence[MaskRule] = DEFAULT_MASK_RULES) -> TokenSequence:
    """Split content on whitespace runs and mask each token with the first matching rule."""
    return tuple(map(_masker(rules), content.split()))


def tokenize_corpus(
    corpus: Iterable[LogRecord], rules: Sequence[MaskRule] = DEFAULT_MASK_RULES
) -> tuple[LogRecord, ...]:
    """Return a copy of the corpus, read once, with every record's tokens filled in.

    Raw tokens and whole contents repeat enormously across a log, so masking
    is memoized per distinct token and tokenizing per distinct content, and
    equal masked sequences share one tuple. Records with equal label and
    content become one record, made anew only where the content last
    appeared under the other label.
    """
    mask = _masker(rules)
    sequences: dict[TokenSequence, TokenSequence] = {}
    by_content: dict[str, LogRecord] = {}  # the last record of each content
    records = []
    for r in corpus:
        rec = by_content.get(r.content)
        if rec is None:
            tokens = tuple(map(mask, r.content.split()))
            tokens = sequences.setdefault(tokens, tokens)
            rec = by_content[r.content] = LogRecord(r.anomalous, r.content, tokens)
        elif rec.anomalous is not r.anomalous:
            rec = by_content[r.content] = LogRecord(r.anomalous, rec.content, rec.tokens)
        records.append(rec)
    return tuple(records)


@dataclass(frozen=True)
class MinerConfig:
    """Knobs of the template miner.

    tree_depth counts the root, the length level, the token routing levels,
    and the leaf level, so the default of 4 routes on one leading token.
    Template counts on real datasets are sensitive to all three numeric
    parameters, which is why they are exposed here and on the CLI.
    """

    tree_depth: int = 4
    similarity_threshold: float = 0.4
    max_children: int = 100
    mask_rules: tuple[MaskRule, ...] = DEFAULT_MASK_RULES

    def __post_init__(self) -> None:
        if self.tree_depth < 2:
            raise ValueError("tree_depth must be at least 2")
        if not 0 < self.similarity_threshold <= 1:
            raise ValueError("similarity_threshold must be in (0, 1]")
        if self.max_children < 2:
            raise ValueError("max_children must be at least 2")

    @property
    def routing_levels(self) -> int:
        return max(0, self.tree_depth - 3)


@dataclass(frozen=True)
class Template:
    """A mined token pattern; wildcard positions hold WILDCARD ("*")."""

    tokens: TokenSequence

    @property
    def wildcard_positions(self) -> tuple[int, ...]:
        return tuple(i for i, tok in enumerate(self.tokens) if tok == WILDCARD)


class _Node:
    """A routing node; a leaf also holds its templates' ids and an index over them.

    `ids` lists the leaf's template ids in creation order, and `postings[i]`
    maps a literal token to the ids of the leaf's templates that hold it at
    position i.
    """

    __slots__ = ("children", "ids", "postings")

    def __init__(self) -> None:
        self.children: dict[object, _Node] = {}
        self.ids: list[int] = []
        self.postings: list[dict[str, list[int]]] = []


class _Forest:
    """Length-partitioned routing tree holding template ids at its leaves.

    `templates` holds every template's tokens, which pass 1 refines in place,
    and `wildcards` their wildcard counts; a template's id is its position in
    both plus one. `epoch` moves whenever a template is created or a token refined
    to a wildcard, so a sequence settled at the current epoch is one `learn` would
    leave where it is.
    """

    def __init__(self, config: MinerConfig):
        self.config = config
        self.root: dict[int, _Node] = {}
        self.templates: list[list[str]] = []
        self.wildcards: list[int] = []
        self.epoch = 0

    def _routing_tokens(self, tokens: Sequence[str]) -> Sequence[str]:
        # Never route on the last token; it stays available for similarity.
        return tokens[: min(self.config.routing_levels, len(tokens) - 1)]

    def _descend(self, tokens: Sequence[str], backtrack: bool) -> _Node | None:
        """The leaf a message routes to: at each level the literal child if present,
        else the wildcard child. Pass 1 stops at a dead end, as Drain's greedy search
        does. Pass 2 (`backtrack`) resumes at the wildcard sibling of the deepest
        literal child taken, since a literal child made after a message was learned
        under the wildcard child need not lead on to the message's leaf. A literal
        "*" token takes the wildcard child itself, which is no sibling of its own."""
        routing = self._routing_tokens(tokens)
        node, level, untried = self.root.get(len(tokens)), 0, []
        while node is not None or untried:
            if node is None:
                node, level = untried.pop()
            if level == len(routing):
                return node
            children = node.children
            wildcard = children.get(WILDCARD)
            node = children.get(routing[level])
            level += 1
            if node is None:
                node = wildcard
            elif backtrack and wildcard is not None and wildcard is not node:
                untried.append((wildcard, level))
        return None

    def _descend_for_insert(self, tokens: Sequence[str]) -> _Node:
        """Pass-1 routing that adds missing children: a new token goes to the wildcard
        child if it holds a digit or no room is left for it beside the wildcard child."""
        node = self.root.setdefault(len(tokens), _Node())
        for token in self._routing_tokens(tokens):
            children = node.children
            full = len(children) + (WILDCARD not in children) >= self.config.max_children
            if token not in children and (full or _HAS_DIGIT.search(token)):
                token = WILDCARD
            node = children.setdefault(token, _Node())
        return node

    def _meets_threshold(self, hits: int, tokens: Sequence[str]) -> bool:
        return not tokens or hits / len(tokens) >= self.config.similarity_threshold

    def _best_match(self, leaf: _Node, tokens: Sequence[str]) -> tuple[int, int]:
        """Id of the leaf's best template for a message, and its literal hits.

        Templates rank by (literal hits, wildcards), the first made on ties.
        Every template in a leaf has the message's length, so this is the
        order of the hit ratio. Only templates sharing a literal token with
        the message are counted; the others score (0, wildcards) and win
        only when no template has a hit. A literal "*" in a message is never a
        hit, since the postings hold no wildcard.
        """
        hits: dict[int, int] = {}
        get = hits.get
        for posting, token in zip(leaf.postings, tokens):
            for tid in posting.get(token, ()):
                hits[tid] = get(tid, 0) + 1
        wildcards = self.wildcards
        if not hits:
            return max(leaf.ids, key=lambda tid: wildcards[tid - 1]), 0
        best = max(hits, key=lambda tid: (hits[tid], wildcards[tid - 1], -tid))
        return best, hits[best]

    def _new_template(self, tokens: Sequence[str]) -> int:
        leaf = self._descend_for_insert(tokens)
        if not leaf.ids:
            leaf.postings = [{} for _ in tokens]
        self.templates.append(list(tokens))
        self.wildcards.append(tokens.count(WILDCARD))
        tid = len(self.templates)
        for posting, token in zip(leaf.postings, tokens):
            if token != WILDCARD:
                posting.setdefault(token, []).append(tid)
        leaf.ids.append(tid)
        self.epoch += 1
        return tid

    def learn(self, tokens: TokenSequence) -> tuple[int, bool]:
        """Pass-1 step: match-or-create a template and refine it.

        Returns the template id and whether the sequence is settled on it, i.e.
        meets the threshold against it: until the epoch moves, learning it again
        would pick the same id and change nothing.
        """
        leaf = self._descend(tokens, backtrack=False)
        tid, hits = self._best_match(leaf, tokens) if leaf is not None else (0, -1)
        if hits >= 0 and self._meets_threshold(hits, tokens):
            template = self.templates[tid - 1]
            for i, (t, w) in enumerate(zip(template, tokens)):
                if t != WILDCARD and t != w:
                    template[i] = WILDCARD
                    leaf.postings[i][t].remove(tid)
                    self.wildcards[tid - 1] += 1
                    self.epoch += 1
        else:
            tid = self._new_template(tokens)
            hits = len(tokens) - tokens.count(WILDCARD)
        # A template made from literal "*" tokens can miss the threshold
        # against its own message, whose next copy then makes another template.
        return tid, self._meets_threshold(hits, tokens)

    def assign(self, tokens: Sequence[str]) -> int:
        """Pass-2 step: pick a template id from the frozen forest for a message.

        Takes the best leaf template even below the threshold (possible once a
        template has gained wildcards after the message was first seen), so
        assignment is total for mined corpora.
        """
        leaf = self._descend(tokens, backtrack=True)
        if leaf is None:
            raise RuntimeError(
                f"pass 2 found no leaf for a sequence of {len(tokens)} tokens "
                "that pass 1 learned"
            )
        return self._best_match(leaf, tokens)[0]


@dataclass(frozen=True)
class MiningResult:
    """Frozen templates plus each line's template id and sequence id, in line order.

    Template id `tid` names `templates[tid - 1]`; sequence ids number the distinct
    masked sequences 0, 1, ... in order of first appearance.
    """

    templates: tuple[Template, ...]
    assignment: tuple[int, ...]
    sequence_ids: array

    @cached_property
    def sequence_count(self) -> int:
        """How many sequence ids there are: one more than the largest."""
        return max(self.sequence_ids, default=-1) + 1


def mine_templates(
    sequences: Sequence[TokenSequence], config: MinerConfig | None = None
) -> MiningResult:
    """Mine templates over each line's masked token tuple and assign one id per line.

    Deterministic for a fixed line order and config.
    """
    config = config or MinerConfig()
    forest = _Forest(config)
    ids = defaultdict(count().__next__)  # {sequence: id}, in order of first appearance
    sequence_ids = array("I", map(ids.__getitem__, sequences))
    # Per sequence id: the epoch it was last settled at, and its template id then.
    settled_at, tids = [-1] * len(ids), [0] * len(ids)
    for tokens, sid in zip(sequences, sequence_ids):  # order-dependent tree growth
        if settled_at[sid] != forest.epoch:
            tid, settled = forest.learn(tokens)
            if settled:
                settled_at[sid], tids[sid] = forest.epoch, tid

    # The forest is frozen now, so every copy of a sequence gets the same id. One
    # settled at the final epoch keeps its pass-1 id: the forest is as that `learn`
    # left it, and pass 2's walk reaches the leaf that pass 1's greedy walk did.
    rows = zip(ids, settled_at, tids)
    tids = [tid if at == forest.epoch else forest.assign(tokens) for tokens, at, tid in rows]
    assignment = tuple(map(tids.__getitem__, sequence_ids))
    templates = tuple(Template(tuple(map(intern, tokens))) for tokens in forest.templates)
    return MiningResult(templates, assignment, sequence_ids)


def attributes_for_corpus(
    sequences: Sequence[TokenSequence], mining: MiningResult
) -> tuple[TokenSequence, ...]:
    """Each sequence's masked tokens at its template's wildcard positions, by sequence id.

    Raises ValueError when `sequences` and the mining result's columns differ in
    length, or the ids are not numbered in order of first appearance.
    """
    templates = mining.templates
    wildcards = [t.wildcard_positions for t in templates]
    attribute_sets: list[TokenSequence] = []
    new = 0  # the id the next unseen sequence must have
    for tokens, sid, tid in zip(sequences, mining.sequence_ids, mining.assignment, strict=True):
        if sid < new:
            continue
        if sid > new:
            raise ValueError("sequence ids must number the sequences in order of first appearance")
        if not 0 < tid <= len(templates):  # else a list index wraps around
            raise KeyError(tid)
        if len(tokens) != len(templates[tid - 1].tokens):  # the miner keeps lengths equal
            raise RuntimeError(f"sequence {sid} and its template {tid} differ in length")
        attribute_sets.append(tuple(map(tokens.__getitem__, wildcards[tid - 1])))
        new += 1
    return tuple(attribute_sets)


FOREST_SCHEMA_VERSION = 1


def save_forest(mining: MiningResult, counts: Mapping[int, tuple[int, int]], path: str) -> None:
    """Write the frozen forest as JSON with its {id: (anomalous, normal)} member counts.

    `counts` is the count table's template tally; a template no record was
    assigned to in pass 2 has no entry and is written with zero members.
    """
    entries = []
    for tid, t in enumerate(mining.templates, start=1):
        anomalous, normal = counts.get(tid, (0, 0))
        entries.append(
            {
                "id": tid,
                "tokens": list(t.tokens),
                "anomalousCount": anomalous,
                "normalCount": normal,
            }
        )
    doc = {"schemaVersion": FOREST_SCHEMA_VERSION, "templates": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
