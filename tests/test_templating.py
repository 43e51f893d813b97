import gc
import json
import re
import sys
from array import array

import pytest

from oracle import naive_mine
from logtaxon import templating
from logtaxon.context import build_all_contexts
from logtaxon.model import LogRecord
from logtaxon.scoring import build_count_table
from logtaxon.templating import (
    DEFAULT_MASK_RULES,
    MaskRule,
    MinerConfig,
    Template,
    attributes_for_corpus,
    load_mask_rules,
    mine_templates,
    save_forest,
    tokenize,
    tokenize_corpus,
)


def sequences_of(*lines):
    """Each line's masked token tuple, through tokenize_corpus; a line
    prefixed with '!' is tokenized as an anomalous record."""
    records = []
    for line in lines:
        records.append(LogRecord(line.startswith("!"), line.lstrip("!")))
    return tuple(rec.tokens for rec in tokenize_corpus(records))


def templates_of(mining):
    return [t.tokens for t in mining.templates]


def split(*texts):
    """The token tuple of each space-separated text."""
    return [tuple(text.split()) for text in texts]


# --- masking ---------------------------------------------------------------


def test_decimal_tokens_mask_to_num():
    assert tokenize("retry 17 of 255") == ("retry", "<:NUM:>", "of", "<:NUM:>")


def test_hex_token_keeps_key_prefix():
    assert tokenize("status error: status=c4 { }") == (
        "status",
        "error:",
        "status=<:HEX:>",
        "{",
        "}",
    )


def test_dotted_quad_masks_as_ip_not_num():
    assert tokenize("from 10.0.0.1 port 22") == ("from", "<:IP:>", "port", "<:NUM:>")


def test_hex_with_0x_prefix():
    assert tokenize("at 0xdeadbeef") == ("at", "<:HEX:>")


def test_mixed_alnum_token_stays_literal():
    # 'wally001' has digits but is not pure hex/decimal, so it survives as-is
    # (the miner's digit-routing still treats it as volatile).
    assert tokenize("node wally001") == ("node", "wally001")


def test_whitespace_runs_collapse():
    assert tokenize("  a \t b\n") == ("a", "b")


def test_first_matching_rule_wins():
    rules = (MaskRule("A", r"x+", "<:A:>"), MaskRule("B", r"x+", "<:B:>"))
    assert tokenize("xxx", rules) == ("<:A:>",)


def test_mask_rule_must_match_whole_token():
    assert tokenize("error42x") == ("error42x",)


def test_mask_rule_with_inline_flag_matches_whole_tokens():
    rules = (MaskRule("ERR", r"(?i)err(?:or)?", "<:ERR:>"),)
    assert tokenize("ERROR Err error42 an_error", rules) == (
        "<:ERR:>",
        "<:ERR:>",
        "error42",
        "an_error",
    )
    verbose = (MaskRule("ERR", "(?xi) err (?:or)?  # the word or its stem", "<:ERR:>"),)
    assert tokenize("Error errors", verbose) == ("<:ERR:>", "errors")


def test_mask_rule_keeps_named_group_in_replacement():
    rules = (MaskRule("KV", r"(?P<key>[a-z]+)=\d+|\d+", r"\g<key><:V:>"),)
    assert tokenize("retries=3 7 x=y", rules) == ("retries<:V:>", "<:V:>", "x=y")


def test_load_mask_rules_round_trip(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([{"name": "UUID", "pattern": "[0-9a-f-]{36}"}]))
    rules = load_mask_rules(str(path))
    assert rules[0].name == "UUID"
    assert rules[0].replacement == "<:UUID:>"
    token = "0f8fad5b-d9cb-469f-a165-70867728950e"
    assert tokenize(token, rules) == ("<:UUID:>",)


def test_hex_rule_keeps_a_key_prefix_and_masks_a_bare_value():
    assert tokenize("id=0x1f 0x1f") == ("id=<:HEX:>", "<:HEX:>")


def test_mask_replacement_fills_an_unmatched_group_with_nothing():
    rules = (MaskRule("V", r"(?P<key>[a-z]+=)?(\d+)(x)?", r"[\g<key>|\g<2>|\g<3>|\g<0>]"),)
    assert tokenize("n=12 12x", rules) == ("[n=|12||n=12]", "[|12|x|12x]")


@pytest.mark.parametrize(
    "name, replacement",
    [("N", "a b"), ("N", "a\tb"), ("N", ""), ("a b", "<:N:>"), ("", "<:N:>"), (None, "<:N:>")],
    ids=[
        "spaced-replacement",
        "tab-replacement",
        "empty-replacement",
        "spaced-name",
        "empty-name",
        "null-name",
    ],
)
def test_mask_rule_built_in_code_refuses_a_name_or_replacement_that_is_not_one_token(
    name, replacement
):
    with pytest.raises(ValueError, match="must be a non-empty, whitespace-free string"):
        MaskRule(name, "x", replacement)


def test_mask_rule_compiles_its_pattern_on_first_use():
    rule = MaskRule("BAD", "(", "<:BAD:>")
    assert "regex" not in vars(rule)
    with pytest.raises(re.error):
        tokenize("x", (rule,))


def write_rules(tmp_path, *entries):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(list(entries)))
    return str(path)


@pytest.mark.parametrize(
    "replacement, token, masked",
    [
        ("<:V:>", "k=7", "<:V:>"),
        (r"\g<key><:V:>", "k=7", "k=<:V:>"),
        (r"\g<1><:V:>", "k=7", "k=<:V:>"),
        (r"\g<0>!", "k=7", "k=7!"),
    ],
    ids=["literal", "named", "numbered", "whole-match"],
)
def test_load_mask_rules_accepts_literals_and_group_references(
    tmp_path, replacement, token, masked
):
    path = write_rules(
        tmp_path, {"name": "V", "pattern": r"(?P<key>[a-z]+=)?\d+", "replacement": replacement}
    )
    assert tokenize(token, load_mask_rules(path)) == (masked,)


@pytest.mark.parametrize(
    "replacement, message",
    [
        (r"a\tb", "a backslash may only start a group reference"),
        (r"a\040b", "a backslash may only start a group reference"),
        (r"\1<:V:>", "a backslash may only start a group reference"),
        (r"a\\b", "a backslash may only start a group reference"),
        (r"\\g<1>", "a backslash may only start a group reference"),
        (r"\g<key", "a backslash may only start a group reference"),
        (r"\g<nope><:V:>", "no group 'nope'"),
        (r"\g<2><:V:>", "no group '2'"),
        (r"\g<-1><:V:>", "no group '-1'"),
        (r"\g<><:V:>", "no group ''"),
    ],
    ids=[
        "tab",
        "octal",
        "backreference",
        "escaped-backslash",
        "escaped-reference",
        "unclosed",
        "unknown-name",
        "number-out-of-range",
        "negative-number",
        "empty-reference",
    ],
)
def test_load_mask_rules_rejects_other_replacements(tmp_path, replacement, message):
    path = write_rules(
        tmp_path,
        {"name": "OK", "pattern": "y+"},
        {"name": "V", "pattern": r"(?P<key>[a-z]+=)?\d+", "replacement": replacement},
    )
    with pytest.raises(ValueError) as info:
        load_mask_rules(path)
    assert str(info.value).startswith(f"mask rule file {path!r}, entry 2: ")
    assert message in str(info.value)


def test_load_mask_rules_rejects_non_list(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('{"name": "X"}')
    with pytest.raises(ValueError):
        load_mask_rules(str(path))


def test_equal_masked_sequences_share_one_tuple():
    # Lines 1 and 2 are the same content; line 3 differs only in a number,
    # so it masks to the same sequence; line 4 masks differently.
    tokens = sequences_of("retry 17 of 255", "!retry 17 of 255", "retry 3 of 9", "retry of 9")
    assert tokens[0] == ("retry", "<:NUM:>", "of", "<:NUM:>")
    assert tokens[0] is tokens[1] is tokens[2]
    assert tokens[3] == ("retry", "of", "<:NUM:>")


def test_tokenize_corpus_keeps_records_that_already_hold_tokens():
    # Held tokens are kept as they are, even where the rules would give others,
    # and only the records without tokens are tokenized and shared.
    held = LogRecord(True, "retry 17 of 255", ("as", "read"))
    corpus = [
        held,
        LogRecord(False, "retry 3 of 9"),
        held,
        LogRecord(False, "retry 3 of 9"),
        LogRecord(True, "retry 3 of 9"),
    ]
    tokenized = tokenize_corpus(corpus)
    assert tokenized[0] is held and tokenized[2] is held
    assert tokenized[1] is tokenized[3]
    fresh = [LogRecord(a, "retry 3 of 9", tokenize("retry 3 of 9")) for a in (False, False, True)]
    assert tokenized[1:] == [fresh[0], held, *fresh[1:]]
    assert tokenized[4].tokens is tokenized[1].tokens


def test_each_rule_masks_each_distinct_raw_token_once():
    calls = []

    class Counting:
        def __init__(self, name, regex):
            self.name, self.regex = name, regex

        def fullmatch(self, token):
            calls.append((self.name, token))
            return self.regex.fullmatch(token)

        def __getattr__(self, attr):  # the group table, read once per rule
            return getattr(self.regex, attr)

    rules = (MaskRule("NUM", r"\d+", "<:NUM:>"), MaskRule("WORD", "[a-z]+", "<:WORD:>"))
    for rule in rules:
        rule.__dict__["regex"] = Counting(rule.name, rule.regex)  # the cached_property's slot
    # Raw tokens repeat across contents, and one content under both labels.
    labels = [False, True, True, False]
    lines = ["retry 17 of 255", "retry 17 of 255", "retry 17 of 9", "of 9 retry X"]
    corpus = tokenize_corpus([LogRecord(*pair) for pair in zip(labels, lines)], rules)
    assert corpus[0].tokens == ("<:WORD:>", "<:NUM:>", "<:WORD:>", "<:NUM:>")
    assert corpus[3].tokens == ("<:WORD:>", "<:NUM:>", "<:WORD:>", "X")
    # NUM sees every distinct raw token once, WORD only those NUM left alone.
    expected = [("NUM", t) for t in ("retry", "17", "of", "255", "9", "X")]
    expected += [("WORD", t) for t in ("retry", "of", "X")]
    assert sorted(calls) == sorted(expected)


def test_tokens_evicted_from_the_mask_memo_mask_and_intern_as_before():
    # More distinct raw tokens than the memo holds, masked ("17", "0x11f",
    # "key=77a") and left alone ("u17"), among repeated words. The second
    # round's contents are new, so their tokens are masked again, and those
    # the first round's later lines evicted miss the memo once more.
    n = templating._MASK_MEMO_SIZE + 500
    contents = [f"get {i} key 0x{i:x}f by u{i} key={7 * i:x}a ok" for i in range(n)]
    contents += [f"put u{i} key={7 * i:x}a by 0x{i:x}f at {i}" for i in range(n)]
    assert len({tok for c in contents for tok in c.split()}) > 4 * templating._MASK_MEMO_SIZE
    corpus = tokenize_corpus(LogRecord(i % 7 == 0, c) for i, c in enumerate(contents))
    assert [rec.tokens for rec in corpus] == [tokenize(c) for c in contents]
    assert corpus[n].tokens == ("put", "u0", "key=<:HEX:>", "by", "<:HEX:>", "at", "<:NUM:>")
    assert all(tok is sys.intern(tok) for rec in corpus for tok in rec.tokens)


# --- mining ----------------------------------------------------------------


def test_similar_messages_share_one_template():
    corpus = sequences_of(
        "Start mail service at node wally001",
        "Start printer service at node wally005",
    )
    mining = mine_templates(corpus)
    assert len(mining.templates) == 1
    assert templates_of(mining) == split("Start * service at node *")
    assert tuple(mining.assignment) == (1, 1)


def test_attribute_extraction_reads_wildcard_positions():
    corpus = sequences_of(
        "Start mail service at node wally001",
        "Start printer service at node wally005",
    )
    mining = mine_templates(corpus)
    attrs = attributes_for_corpus(mining)
    assert attrs == (("mail", "wally001"), ("printer", "wally005"))


def test_attribute_sets_are_one_tuple_per_sequence_and_template():
    corpus = sequences_of(
        "Start mail service at node wally001",
        "Start printer service at node wally005",
        "!Start mail service at node wally001",
        "Start printer service at node wally005",
    )
    mining = mine_templates(corpus)
    assert mining.sequence_ids == array("I", [0, 1, 0, 1])
    attrs = attributes_for_corpus(mining)
    assert attrs == (("mail", "wally001"), ("printer", "wally005"))


def test_dissimilar_messages_split_templates():
    corpus = sequences_of("alpha beta gamma delta", "one two three four")
    mining = mine_templates(corpus)
    assert len(mining.templates) == 2
    assert tuple(mining.assignment) == (1, 2)


def test_lengths_never_mix():
    corpus = sequences_of("connection open", "connection open now")
    mining = mine_templates(corpus)
    assert len(mining.templates) == 2


def test_second_pass_reassigns_early_messages():
    # After 'c'/'d' merge into a wildcard, message 1 must match the *final*
    # template shape, not the one it created.
    corpus = sequences_of("job a b c", "job a b d")
    mining = mine_templates(corpus)
    assert len(mining.templates) == 1
    assert templates_of(mining) == split("job a b *")
    assert tuple(mining.assignment) == (1, 1)


def test_digit_bearing_first_token_routes_to_wildcard_child():
    # Both route to the '*' child and merge; a literal first token does not.
    corpus = sequences_of("412 done ok fine", "413 done ok fine", "word done ok fine")
    mining = mine_templates(corpus)
    # the numeric ones were masked to <:NUM:> anyway; use raw rule-free config
    config = MinerConfig(mask_rules=())
    records = [
        LogRecord(False, "w412x done ok fine"),
        LogRecord(False, "w413x done ok fine"),
    ]
    tokenized = tokenize_corpus(records, ())
    mining = mine_templates([rec.tokens for rec in tokenized], config)
    assert len(mining.templates) == 1
    assert templates_of(mining) == split("* done ok fine")


def test_empty_content_messages_cluster_together():
    corpus = sequences_of("", "", "real message here")
    mining = mine_templates(corpus)
    assert mining.assignment[0] == mining.assignment[1]
    assert mining.assignment[2] != mining.assignment[0]
    assert mining.templates[mining.assignment[0] - 1].tokens == ()


def test_similarity_threshold_controls_merging():
    # Same first token (the routing level), one of five positions matching.
    lax = MinerConfig(similarity_threshold=0.2)
    strict = MinerConfig(similarity_threshold=0.9)
    corpus = sequences_of("job put block on rack", "job get chunk off disk")
    assert len(mine_templates(corpus, lax).templates) == 1
    assert templates_of(mine_templates(corpus, lax)) == split("job * * * *")
    assert len(mine_templates(corpus, strict).templates) == 2


def test_max_children_overflow_still_assigns_everything():
    config = MinerConfig(max_children=3, tree_depth=5)
    lines = [f"w{i}x start of job {i}" for i in range(20)]
    corpus = sequences_of(*lines)
    mining = mine_templates(corpus, config)
    assert len(mining.assignment) == 20
    assert all(1 <= t <= len(mining.templates) for t in mining.assignment)


@pytest.mark.parametrize(
    "lines, expected",
    [
        # No wildcard child yet: two literal children, then the third head overflows.
        (["a q q q", "b q q q", "c q q q", "d q q q"], ["a q q q", "b q q q", "* q q q"]),
        # A wildcard child first: it counts, so again only two literal children fit,
        # and the last line reaches the first line's cluster through it.
        (
            ["x1 q q q", "a r r r", "b r r r", "c s s s", "c q q q"],
            ["* q q q", "a r r r", "b r r r", "c s s s"],
        ),
    ],
    ids=["literal-children-only", "wildcard-child-first"],
)
def test_max_children_overflow_matches_the_reference_miner(lines, expected):
    corpus = sequences_of(*lines)
    mining = mine_templates(corpus, MinerConfig(similarity_threshold=0.75, max_children=3))
    assert templates_of(mining) == split(*expected)
    templates, assignment = naive_mine(corpus, 4, 0.75, 3)
    assert [t.tokens for t in mining.templates] == templates
    assert tuple(mining.assignment) == assignment


@pytest.mark.parametrize(
    "lines, config, expected, assignment",
    [
        # A literal "*" never counts as a hit, so a cluster made from these
        # lines misses the threshold against the very line that made it: every
        # repeat makes a cluster of its own, and pass 2 puts all on the first.
        (["*", "*"], MinerConfig(tree_depth=2, similarity_threshold=0.2), ["*", "*"], (1, 1)),
        (["* * a"] * 3, MinerConfig(similarity_threshold=0.5), ["* * a"] * 3, (1, 1, 1)),
        # Line 5 matches "a b c * *" (3 hits, 2 wildcards) ahead of "Z * c d e"
        # (3 hits, 1 wildcard). Line 6 refines the first to "a b * * *", so
        # when line 5 comes back the second ranks first and loses its "Z".
        (
            ["a b c f g", "a b c h i", "Z y c d e", "Z w c d e"]
            + ["a b c d e", "a b q r s", "a b c d e"],
            MinerConfig(tree_depth=3),
            ["a b * * *", "* * c d e"],
            (1, 1, 2, 2, 2, 1, 2),
        ),
        # Line 3 refines the second cluster to "a b * *"; line 4 then ties the
        # two clusters on hits, and the refinement's two wildcards must count.
        (
            ["p q c d", "a b x y", "a b z w", "a b c d"],
            MinerConfig(tree_depth=3, similarity_threshold=0.5),
            ["p q c d", "a b * *"],
            (1, 2, 2, 2),
        ),
        # Pass 1 is greedy: line 3 takes the literal 'b' child, which holds only
        # line 2's 'q' branch, and makes a template there rather than falling
        # back to the root's wildcard child, where line 1's "x1 c d z" waits.
        (
            ["x1 c d z", "b q d z", "b c d z"],
            MinerConfig(tree_depth=5),
            ["x1 c d z", "b q d z", "b c d z"],
            (1, 2, 3),
        ),
    ],
    ids=[
        "only-wildcard",
        "wildcards-and-a-literal",
        "refined-elsewhere",
        "refined-wins-a-tie",
        "greedy-dead-end",
    ],
)
def test_repeated_lines_match_the_reference_miner(lines, config, expected, assignment):
    corpus = sequences_of(*lines)
    mining = mine_templates(corpus, config)
    assert templates_of(mining) == split(*expected)
    assert tuple(mining.assignment) == assignment
    reference = naive_mine(
        corpus,
        config.tree_depth,
        config.similarity_threshold,
        config.max_children,
    )
    assert ([t.tokens for t in mining.templates], tuple(mining.assignment)) == reference


def test_pass_2_assigns_only_sequences_pass_1_left_unsettled(monkeypatch):
    # "a b c" settled before "a b d" refined its template, and "a b d" before
    # "* * z" made one, so both settled at an epoch that has since moved;
    # "* * z" misses the threshold against its own template and never
    # settles; "p q" settled last, at the final epoch.
    lines = ["a b c", "a b d", "* * z", "p q", "p q"]
    assigned = []
    assign = templating._Forest.assign

    def counting(self, tokens):
        assigned.append(" ".join(tokens))
        return assign(self, tokens)

    monkeypatch.setattr(templating._Forest, "assign", counting)
    config = MinerConfig(similarity_threshold=0.5)
    mining = mine_templates(split(*lines), config)  # unmasked, so "*" reaches the miner
    assert sorted(assigned) == ["* * z", "a b c", "a b d"]
    assert templates_of(mining) == split("a b *", "* * z", "p q")
    assert tuple(mining.assignment) == (1, 1, 2, 3, 3)
    reference = naive_mine(split(*lines), 4, 0.5, 100)
    assert ([t.tokens for t in mining.templates], tuple(mining.assignment)) == reference


def test_pass_1_learns_a_settled_sequence_again_only_after_the_epoch_moves(monkeypatch):
    # The second "p q" is settled at the current epoch and skipped; each
    # "* * z" misses the threshold, so it never settles and makes a template
    # each time, which moves the epoch under the last "p q".
    lines = ["p q", "p q", "* * z", "* * z", "p q"]
    learned = []
    learn = templating._Forest.learn

    def counting(self, tokens):
        learned.append(" ".join(tokens))
        return learn(self, tokens)

    monkeypatch.setattr(templating._Forest, "learn", counting)
    config = MinerConfig(similarity_threshold=0.5)
    mining = mine_templates(split(*lines), config)  # unmasked, so "*" reaches the miner
    assert learned == ["p q", "* * z", "* * z", "p q"]
    assert templates_of(mining) == split("p q", "* * z", "* * z")
    reference = naive_mine(split(*lines), 4, 0.5, 100)
    assert ([t.tokens for t in mining.templates], tuple(mining.assignment)) == reference


def test_a_full_match_leaves_the_template_and_the_epoch_as_they_were():
    forest = templating._Forest(MinerConfig())

    def state():
        return [list(t) for t in forest.templates], list(forest.wildcards), forest.epoch

    first, second = split("a b c d", "a b c e")
    assert forest.learn(first) == (1, True)
    assert forest.learn(second) == (1, True)  # refines the last position
    assert state() == ([["a", "b", "c", "*"]], [1], 2)
    # Every literal of "a b c *" matches: 3 hits and 1 wildcard make 4 tokens.
    for tokens in split("a b c f", "a b c d", "a b c *"):
        assert forest.learn(tokens) == (1, True)
        assert state() == ([["a", "b", "c", "*"]], [1], 2)
    # One differing literal is still refined, and moves the epoch.
    assert forest.learn(("a", "x", "c", "f")) == (1, True)
    assert state() == ([["a", "*", "c", "*"]], [2], 3)


def test_deeper_tree_routes_on_more_tokens():
    # depth 4 routes on one token, depth 5 on two: the second token then
    # separates otherwise-similar messages.
    corpus = sequences_of("svc mail start now ok", "svc news start now ok")
    assert len(mine_templates(corpus, MinerConfig(tree_depth=4)).templates) == 1
    assert len(mine_templates(corpus, MinerConfig(tree_depth=5)).templates) == 2


def test_assignment_backtracks_from_a_literal_dead_end():
    # Line 2 is learned under the wildcard child that line 1's digit-bearing
    # token created; line 3 then adds a literal 'b' child holding only an 'a'
    # branch. Pass 2 must leave that dead end and reach line 2's template.
    corpus = sequences_of("x1 b b", "b b b", "!b a b")
    mining = mine_templates(corpus, MinerConfig(tree_depth=5))
    assert templates_of(mining) == split("* b b", "b a b")
    assert tuple(mining.assignment) == (1, 1, 2)


def test_backtracking_tries_the_literal_branch_first():
    # Line 2 is learned under the root's wildcard child before line 3 makes
    # the literal 'b' branch and line 4 its 'c' child. In pass 2 line 2
    # dead-ends at b/c, and the search takes b/* (line 3's leaf) before the
    # root's wildcard child, where line 2 was learned.
    corpus = sequences_of("x1 c d z", "b c d z", "b x2 d y", "b c e z")
    mining = mine_templates(corpus, MinerConfig(tree_depth=6))
    assert templates_of(mining) == split("* c d z", "b x2 d y", "b c e z")
    assert tuple(mining.assignment) == (1, 2, 2, 3)
    templates, assignment = naive_mine(corpus, depth=6)
    assert [t.tokens for t in mining.templates] == templates
    assert tuple(mining.assignment) == assignment


def test_a_deep_tree_is_walked_without_recursion():
    # The tree depth has no upper bound, so no walk may recurse per level:
    # these lines route on 1,499 tokens, past Python's default recursion limit.
    # Line 2 merges into line 1's cluster under the root's wildcard child; in
    # pass 2 it dead-ends in line 3's literal 'b' branch and backtracks.
    tail = " b" * 1498
    corpus = sequences_of("x1 b" + tail, "b b" + tail, "b a" + tail)
    mining = mine_templates(corpus, MinerConfig(tree_depth=1600))
    assert templates_of(mining) == split("* b" + tail, "b a" + tail)
    assert tuple(mining.assignment) == (1, 1, 2)


def test_backtracking_keeps_no_fallback_for_a_literal_wildcard_token(monkeypatch):
    # A literal "*" routing token names the wildcard child itself; kept also as
    # its own fallback, it would double the work of a dead end beneath it, and
    # k such levels would walk that dead end 2**k times.
    visits = []

    class CountingNode(templating._Node):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            self.children = CountingChildren()

    class CountingChildren(dict):
        def get(self, key, default=None):
            visits.append(key)
            return super().get(key, default)

    monkeypatch.setattr(templating, "_Node", CountingNode)
    # As in the deep-tree case, pass 2 dead-ends in line 3's literal 'b'
    # branch, here below 12 levels of literal "*", and backtracks.
    stars, tail = " *" * 12, " t" * 36
    lines = [head + stars + last + tail for head, last in [("x1", " b"), ("b", " b"), ("b", " a")]]
    mining = mine_templates(sequences_of(*lines), MinerConfig(tree_depth=17))
    assert templates_of(mining) == split("*" + stars + " b" + tail, lines[2])
    assert tuple(mining.assignment) == (1, 1, 2)
    # 166 child lookups over the two passes; 16,497 with the fallback kept.
    assert len(visits) < 400


def test_backtracking_leaves_no_cyclic_garbage():
    # Mining must leave no reference cycle behind, such as a self-referencing
    # closure per pass-2 descent: only the cyclic collector could free it.
    corpus = sequences_of("x1 c d z", "b c d z", "b x2 d y", "b c e z")
    gc.collect()
    gc.disable()
    try:
        mining = mine_templates(corpus, MinerConfig(tree_depth=6))
        del mining
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_miner_config_validation():
    with pytest.raises(ValueError):
        MinerConfig(tree_depth=1)
    with pytest.raises(ValueError):
        MinerConfig(similarity_threshold=0.0)
    with pytest.raises(ValueError):
        MinerConfig(similarity_threshold=1.5)
    with pytest.raises(ValueError):
        MinerConfig(max_children=1)


# --- forest persistence ----------------------------------------------------


def test_forest_round_trip(tmp_path):
    corpus = sequences_of(
        "Start mail service at node wally001",
        "!Start printer service at node wally005",
        "shutdown complete",
    )
    mining = mine_templates(corpus)
    path = tmp_path / "forest.json"
    table = build_count_table(
        bytes([0, 1, 0]),
        mining,
        attributes_for_corpus(mining),
        build_all_contexts(mining.assignment),
    )
    save_forest(mining, table.template_counts, str(path))
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["schemaVersion"] == 1
    entries = doc["templates"]
    assert [(e["id"], tuple(e["tokens"])) for e in entries] == [
        (tid, t.tokens) for tid, t in enumerate(mining.templates, start=1)
    ]
    by_text = {" ".join(e["tokens"]): (e["anomalousCount"], e["normalCount"]) for e in entries}
    assert by_text["Start * service at node *"] == (1, 1)  # (anomalous, normal)
    assert by_text["shutdown complete"] == (0, 1)


def test_forest_keeps_a_template_without_members(tmp_path):
    # Pass 2 moves both members of "b * c *" to templates created after it.
    corpus = sequences_of("b a c c", "b b c a", "a b c a", "b a b c")
    mining = mine_templates(corpus, MinerConfig(tree_depth=3, similarity_threshold=0.5))
    assert templates_of(mining) == split("b * c *", "a b c a", "b a b c")
    assert tuple(mining.assignment) == (3, 2, 2, 3)
    path = tmp_path / "forest.json"
    save_forest(mining, {2: (0, 2), 3: (0, 2)}, str(path))
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)["templates"]
    assert [tuple(e["tokens"]) for e in entries] == [t.tokens for t in mining.templates]
    counts = {e["id"]: (e["anomalousCount"], e["normalCount"]) for e in entries}
    assert counts == {1: (0, 0), 2: (0, 2), 3: (0, 2)}
