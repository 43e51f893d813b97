"""Brute-force references used to cross-check the pipeline.

Everything here is recomputed from first principles with plain loops and
Counters: templates by a direct transcription of the two-pass miner,
wildcard positions by scanning template tokens, context sets by walking the
raw window indices, counts by full scans. Deliberately shares no code with
logtaxon.templating, logtaxon.scoring or logtaxon.context, so an error there
cannot hide.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from logtaxon.model import LogRecord


def naive_mine(token_lists, depth=4, similarity=0.4, max_children=100):
    """Reference two-pass miner; returns (template token tuples in id order, assignment).

    The routing tree: a node per sequence length, then one level per leading
    token for the first min(depth - 3, length - 1) tokens, then a list of
    clusters at the leaf. Paths are tuples (length, key, key, ...), where a
    key is a literal token or the wildcard '*'.

    Pass 1, message by message: descend greedily (the literal child, else
    '*'); among the leaf's clusters take the one with the most literal
    matches, then the most wildcards, the first on ties; merge into it when
    matches / length reaches `similarity`, turning every differing position
    into '*'. Otherwise create a cluster, descending by the insertion rule:
    an existing child; '*' for a token with a digit (or '*' itself); a new
    literal child while the node has room for it next to '*'; else '*'.

    Pass 2 re-assigns every message against the final templates: descend
    depth-first, literal child before '*', to the first leaf reached, and
    take its best cluster by the same ranking with no threshold. Messages of
    no tokens all share one cluster.
    """
    levels = max(0, depth - 3)
    templates = []  # cluster id - 1 -> token list
    nodes = set()
    children = {}  # node path -> child keys in creation order
    leaves = {}  # leaf path -> cluster ids in creation order

    def routing(tokens):
        return tuple(tokens[: min(levels, len(tokens) - 1)]) if tokens else ()

    def literal_matches(cid, tokens):
        return sum(1 for t, w in zip(templates[cid - 1], tokens) if t != "*" and t == w)

    def best(ids, tokens):
        def rank(cid):
            return (literal_matches(cid, tokens), templates[cid - 1].count("*"))

        top = ids[0]
        for cid in ids[1:]:
            if rank(cid) > rank(top):
                top = cid
        return top

    def greedy_leaf(tokens):
        path = (len(tokens),)
        if path not in nodes:
            return None
        for token in routing(tokens):
            keys = children.get(path, [])
            if token in keys:
                path += (token,)
            elif "*" in keys:
                path += ("*",)
            else:
                return None
        return path

    def insertion_leaf(tokens):
        path = (len(tokens),)
        nodes.add(path)
        for token in routing(tokens):
            keys = children.setdefault(path, [])
            if token in keys:
                key = token
            elif token == "*" or any(ch.isdecimal() for ch in token):
                key = "*"
            elif "*" in keys:
                key = token if len(keys) < max_children else "*"
            else:
                key = token if len(keys) + 1 < max_children else "*"
            if key not in keys:
                keys.append(key)
            path += (key,)
            nodes.add(path)
        return path

    def create(tokens, path):
        templates.append(list(tokens))
        leaves.setdefault(path, []).append(len(templates))

    for tokens in token_lists:
        if not tokens:
            if not leaves.get((0,)):
                nodes.add((0,))
                create(tokens, (0,))
            continue
        ids = leaves.get(greedy_leaf(tokens), [])
        if ids:
            cid = best(ids, tokens)
            if literal_matches(cid, tokens) / len(tokens) >= similarity:
                tpl = templates[cid - 1]
                templates[cid - 1] = [t if t == w else "*" for t, w in zip(tpl, tokens)]
                continue
        create(tokens, insertion_leaf(tokens))

    def first_leaf(path, keys):
        if not keys:
            return path
        for key in (keys[0], "*"):
            if key in children.get(path, []):
                found = first_leaf(path + (key,), keys[1:])
                if found is not None:
                    return found
        return None

    assignment = []
    for tokens in token_lists:
        root = (len(tokens),)
        leaf = first_leaf(root, routing(tokens)) if root in nodes else None
        if leaf is None:
            raise RuntimeError(f"no leaf for {tokens!r}")
        ids = leaves[leaf]
        assignment.append(ids[0] if not tokens else best(ids, tokens))
    return [tuple(t) for t in templates], tuple(assignment)


def naive_attributes(tokens, template_tokens):
    """Tokens under the template's '*' positions, by direct scan."""
    if len(tokens) != len(template_tokens):
        raise ValueError(f"{len(tokens)} tokens against a {len(template_tokens)}-token template")
    out = []
    for pos in range(len(template_tokens)):
        if template_tokens[pos] == "*":
            out.append(tokens[pos])
    return tuple(out)


def naive_signature(assignment, index, before, after):
    """Distinct template ids around 1-based `index`, ascending, walking indices one by one."""
    ids = set()
    for j in range(index - before, index + after + 1):
        if j == index or j < 1 or j > len(assignment):
            continue
        ids.add(assignment[j - 1])
    return tuple(sorted(ids))


def reference_parse(text, header_fields=1, label_field=0, normal_token="-", limit=None):
    """Reference line parser: ([(anomalous, content)], lines read, malformed lines).

    Walks each line character by character. Lines end at "\n" only, and text
    after the last one is a line when it is not empty. A line first loses
    every leading U+FEFF. Then `header_fields` runs of non-whitespace
    characters (`str.isspace`) are taken as fields, each after skipping
    whitespace; a line with fewer is malformed. The content is the rest of
    the line after the whitespace that follows the last field, less any
    trailing "\r". Reading stops once `limit` records were parsed.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    records, lines_read, malformed = [], 0, 0
    for line in lines:
        if limit is not None and len(records) == limit:
            break
        lines_read += 1
        pos = 0
        while pos < len(line) and line[pos] == "\ufeff":
            pos += 1
        fields = []
        for _ in range(header_fields):
            while pos < len(line) and line[pos].isspace():
                pos += 1
            start = pos
            while pos < len(line) and not line[pos].isspace():
                pos += 1
            if pos == start:
                break
            fields.append(line[start:pos])
        if len(fields) < header_fields:
            malformed += 1
            continue
        while pos < len(line) and line[pos].isspace():
            pos += 1
        content = line[pos:]
        while content.endswith("\r"):
            content = content[:-1]
        records.append((fields[label_field] != normal_token, content))
    return records, lines_read, malformed


def brute_force_views(corpus, templates, assignment, before=10, after=0):
    """Each record's attribute tuple and context signature, by direct scans."""
    template_tokens = {tid: t.tokens for tid, t in enumerate(templates, start=1)}
    attrs = []
    sigs = []
    for i in range(1, len(corpus) + 1):
        tid = assignment[i - 1]
        attrs.append(naive_attributes(corpus[i - 1].tokens, template_tokens[tid]))
        sigs.append(naive_signature(assignment, i, before, after))
    return attrs, sigs


def brute_force_counts(corpus, templates, assignment, before=10, after=0, attribute_scope="global"):
    """Recount the table: ({tid: pair}, {attribute key: pair}, {signature: pair}).

    A pair is (anomalous, normal) occurrences, counted by one full scan per
    key of the three kinds. Attribute keys are tokens under "global" scope
    and (tid, slot, token) under "per-position".
    """
    attrs, sigs = brute_force_views(corpus, templates, assignment, before, after)
    flags = [rec.anomalous for rec in corpus]
    rows = []  # (kind, key, anomalous), one per occurrence
    for tid, attr, sig, anomalous in zip(assignment, attrs, sigs, flags):
        rows.append(("template", tid, anomalous))
        rows.append(("context", sig, anomalous))
        for slot, token in enumerate(attr):
            key = token if attribute_scope == "global" else (tid, slot, token)
            rows.append(("attribute", key, anomalous))
    tables = {"template": {}, "attribute": {}, "context": {}}
    for kind, key, _ in rows:
        if key in tables[kind]:
            continue
        same = [flag for k, other, flag in rows if k == kind and other == key]
        anomalous = sum(1 for flag in same if flag)
        tables[kind][key] = (anomalous, len(same) - anomalous)
    return tables["template"], tables["attribute"], tables["context"]


def brute_force_scores(
    corpus: tuple[LogRecord, ...],
    templates,
    assignment,
    before: int = 10,
    after: int = 0,
    attribute_scope: str = "global",
    include_normal: bool = False,
):
    """Recount everything and return {index: (template, attribute|None, context)}.

    Scores are exact Fractions. `templates` and `assignment` come from the
    miner (checked on its own against naive_mine); the three scores are
    recomputed independently.
    """
    n = len(corpus)
    attrs, sigs = brute_force_views(corpus, templates, assignment, before, after)

    tpl_total: Counter = Counter()
    tpl_anom: Counter = Counter()
    attr_total: Counter = Counter()
    attr_anom: Counter = Counter()
    ctx_total: Counter = Counter()
    ctx_anom: Counter = Counter()
    for i in range(1, n + 1):
        rec = corpus[i - 1]
        tid = assignment[i - 1]
        anomalous = rec.anomalous
        tpl_total[tid] += 1
        ctx_total[sigs[i - 1]] += 1
        if anomalous:
            tpl_anom[tid] += 1
            ctx_anom[sigs[i - 1]] += 1
        for slot, token in enumerate(attrs[i - 1]):
            key = token if attribute_scope == "global" else (tid, slot, token)
            attr_total[key] += 1
            if anomalous:
                attr_anom[key] += 1

    result = {}
    for i in range(1, n + 1):
        rec = corpus[i - 1]
        if not include_normal and not rec.anomalous:
            continue
        tid = assignment[i - 1]
        t_score = Fraction(tpl_anom[tid], tpl_total[tid])
        a_score = None
        for slot, token in enumerate(attrs[i - 1]):
            key = token if attribute_scope == "global" else (tid, slot, token)
            s = Fraction(attr_anom[key], attr_total[key])
            if a_score is None or s > a_score:
                a_score = s
        c_score = Fraction(ctx_anom[sigs[i - 1]], ctx_total[sigs[i - 1]])
        result[i] = (t_score, a_score, c_score)
    return result
