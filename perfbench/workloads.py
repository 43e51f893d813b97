"""Seeded corpus generators and the three benchmark workloads.

Every corpus is made from the seed alone; `logtaxon analyze` only ever sees the
written files. With each corpus the generator gives the facts the output
checks need: total lines, label counts and the malformed count. The raw line
text is the corpus file itself.

`rhythm-300k` comes from `logtaxon synth --truth`, run as its own process.
`zipf-templates` and `dense-dump` come from `generate_mix` below, which writes
the generic one-header-field layout (label, then content).

Usage (PYTHONPATH must reach the logtaxon sources for `rhythm-300k`):

    python3 perfbench/workloads.py --workload zipf-templates --seed 1 --out corpus.log
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import accumulate

NORMAL_LABEL = "-"
ANOMALOUS_LABELS = ("KERNDTLB", "APPSEV", "ANOM")
# Letters outside a-f, so a generated word can never look like hex to a mask rule.
_NON_HEX = "ghijklmnopqrstuvwxyz"
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_HEX = "0123456789abcdef"
_KEYS = ("addr", "mask", "flags", "reg", "crc", "ptr")
_DAEMONS = ("sshd", "crond", "kernel", "ntpd", "pbs_mom", "xinetd", "syslogd", "sendmail")
MIN_LEN, MAX_LEN = 4, 14
SLOT_RATE = 0.3
WORD_VOCAB = 3000
# Seeds the template catalogue of every mix; see generate_mix.
STRUCTURE_SEED = 0
RHYTHM_ANOMALY_RATE = 0.05


@dataclass(frozen=True)
class MixSpec:
    """Shape of a generated corpus from `generate_mix`.

    Templates draw a length in [MIN_LEN, MAX_LEN] (weighted towards the
    middle); a share `pid_lead_rate` of them start with a `daemon[pid]:`
    token whose digits route it to the wildcard child of its length node,
    the rest with a word from `lead_vocab` words. Every later position is a
    slot (NUM, 0x HEX, key=hex, or an id from `id_pool` ids) with probability
    SLOT_RATE, else a word from WORD_VOCAB words. Lines pick templates by a Zipf law of exponent
    `zipf_s` (0 gives a uniform, random interleaving). `anomalous_only`
    templates drawn from outside the top quarter of ranks are labeled
    anomalous on every line; a line of any other template with an id slot is
    an attribute anomaly with probability `attribute_rate`, and then one of
    its id slots draws from a pool no normal line uses. `blank_lines` empty (malformed) lines
    are added at seeded positions.
    """

    lines: int
    templates: int
    lead_vocab: int
    zipf_s: float
    anomalous_only: int
    attribute_rate: float
    blank_lines: int
    pid_lead_rate: float = 0.0
    id_pool: int = 400


def _word(rng: random.Random) -> str:
    n = rng.randint(4, 9)
    chars = [rng.choice(_LETTERS) for _ in range(n)]
    chars[rng.randrange(n)] = rng.choice(_NON_HEX)
    return "".join(chars)


def _distinct_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        w = _word(rng)
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def _hex(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice(_HEX) for _ in range(rng.randint(lo, hi)))


def _make_templates(spec: MixSpec, rng: random.Random) -> list[list[tuple[str, str]]]:
    """Each template is a list of (kind, text) parts; kind "lit" or a slot kind."""
    taken: set[str] = set()
    leads = _distinct_words(rng, spec.lead_vocab, taken)
    words = _distinct_words(rng, WORD_VOCAB, taken)
    lengths = list(range(MIN_LEN, MAX_LEN + 1))
    mid = (MIN_LEN + MAX_LEN) / 2
    weights = [1 + (MAX_LEN - MIN_LEN) / 2 - abs(n - mid) for n in lengths]
    templates = []
    for _ in range(spec.templates):
        length = rng.choices(lengths, weights)[0]
        if rng.random() < spec.pid_lead_rate:
            parts = [("pid", rng.choice(_DAEMONS))]
        else:
            parts = [("lit", rng.choice(leads))]
        for _ in range(length - 1):
            if rng.random() < SLOT_RATE:
                kind = rng.choice(("num", "hex", "keyhex", "id"))
                parts.append((kind, rng.choice(_KEYS) if kind == "keyhex" else ""))
            else:
                parts.append(("lit", rng.choice(words)))
        templates.append(parts)
    return templates


def _fill(parts, rng: random.Random, normal_ids: list[str], anomalous_ids: list[str] | None) -> str:
    """Fill the slots; with `anomalous_ids`, one id slot takes an anomalous id.

    The other id slots keep normal ids, so the slots of one message score
    differently and the attribute score's maximum over slots matters.
    """
    ids = [i for i, (kind, _) in enumerate(parts) if kind == "id"]
    odd = rng.choice(ids) if anomalous_ids else -1
    out = []
    for i, (kind, text) in enumerate(parts):
        if kind == "lit":
            out.append(text)
        elif kind == "num":
            out.append(str(rng.randrange(100000)))
        elif kind == "hex":
            out.append("0x" + _hex(rng, 2, 8))
        elif kind == "keyhex":
            out.append(f"{text}={_hex(rng, 2, 8)}")
        elif kind == "pid":
            out.append(f"{text}[{rng.randrange(1, 32768)}]:")
        else:
            out.append(rng.choice(anomalous_ids if i == odd else normal_ids))
    return " ".join(out)


def generate_mix(spec: MixSpec, seed: int, path: str) -> dict:
    """Write a corpus for `spec` and `seed` to `path`; return its facts.

    The template set, its ranks and the id pools come from the fixed
    STRUCTURE_SEED, like the message catalogue of one system; `seed`
    draws the stream: which template each line uses, the slot values, the
    anomalies and where the blank lines go. Mining cost depends mostly on
    where the few most frequent templates land in the tree, so a per-seed
    catalogue would make run time a property of the seed.
    """
    structure = random.Random(STRUCTURE_SEED)
    templates = _make_templates(spec, structure)
    normal_ids = [f"R{structure.randrange(64)}-M{structure.randrange(2)}-N{i}" for i in range(spec.id_pool)]
    anomalous_ids = [f"R{structure.randrange(64)}-M{structure.randrange(2)}-X{i}" for i in range(spec.id_pool // 10)]
    # Anomalous-only templates come from below the head of the mix, so the
    # most frequent templates stay normal, as in the real dumps.
    anomalous_only = set(structure.sample(range(spec.templates // 4, spec.templates), spec.anomalous_only))
    rng = random.Random(seed)
    weights = [1.0 / (rank ** spec.zipf_s) for rank in range(1, spec.templates + 1)]
    cum = list(accumulate(weights))
    picks = rng.choices(range(spec.templates), cum_weights=cum, k=spec.lines)
    blanks = set(rng.sample(range(spec.lines + spec.blank_lines), spec.blank_lines))

    normal = anomalous = 0
    with open(path, "w", encoding="utf-8") as fh:
        pick = iter(picks)
        for pos in range(spec.lines + spec.blank_lines):
            if pos in blanks:
                fh.write("\n")
                continue
            t = next(pick)
            parts = templates[t]
            attribute_anomaly = (
                t not in anomalous_only
                and any(kind == "id" for kind, _ in parts)
                and rng.random() < spec.attribute_rate
            )
            content = _fill(parts, rng, normal_ids, anomalous_ids if attribute_anomaly else None)
            if t in anomalous_only or attribute_anomaly:
                anomalous += 1
                fh.write(f"{rng.choice(ANOMALOUS_LABELS)} {content}\n")
            else:
                normal += 1
                fh.write(f"{NORMAL_LABEL} {content}\n")
    return {
        "lines": spec.lines + spec.blank_lines,
        "records": spec.lines,
        "normal": normal,
        "anomalous": anomalous,
        "malformed": spec.blank_lines,
    }


def generate_rhythm(lines: int, seed: int, path: str) -> dict:
    """Write the `logtaxon synth` demo corpus and derive its facts from --truth."""
    truth_path = path + ".truth.json"
    subprocess.run(
        [
            sys.executable, "-m", "logtaxon.cli", "synth",
            "--out", path,
            "--length", str(lines),
            "--anomaly-rate", str(RHYTHM_ANOMALY_RATE),
            "--seed", str(seed),
            "--truth", truth_path,
        ],
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )
    with open(truth_path, encoding="utf-8") as fh:
        anomalous = len(json.load(fh))
    os.remove(truth_path)
    return {
        "lines": lines,
        "records": lines,
        "normal": lines - anomalous,
        "anomalous": anomalous,
        "malformed": 0,
    }


@dataclass(frozen=True)
class Workload:
    """A corpus recipe and the `analyze` flags it runs with."""

    name: str
    flags: tuple[str, ...]
    mix: MixSpec | None = None  # None: the logtaxon synth demo corpus
    rhythm_lines: int = 0

    def generate(self, seed: int, path: str) -> dict:
        if self.mix is None:
            return generate_rhythm(self.rhythm_lines, seed, path)
        return generate_mix(self.mix, seed, path)

    def flag(self, name: str, default: str) -> str:
        """Value of an `analyze` flag, or the program's default for it."""
        return self.flags[self.flags.index(name) + 1] if name in self.flags else default


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("rhythm-300k", flags=(), rhythm_lines=300_000),
        Workload(
            "zipf-templates",
            flags=(),
            mix=MixSpec(
                lines=50_000,
                templates=1000,
                lead_vocab=400,
                anomalous_only=8,
                attribute_rate=0.02,
                blank_lines=250,
                pid_lead_rate=0.8,
                zipf_s=0.8,
            ),
        ),
        Workload(
            "dense-dump",
            flags=(
                "--context-before", "10",
                "--context-after", "10",
                "--attribute-scope", "per-position",
                "--score-normal",
                "--dump-scores",
                "--dump-contexts",
                "--threads", "2",
            ),
            mix=MixSpec(
                lines=100_000,
                templates=40,
                lead_vocab=60,
                zipf_s=0.0,
                anomalous_only=4,
                attribute_rate=0.15,
                blank_lines=50,
                id_pool=60,
            ),
        ),
    )
}


def main() -> int:
    parser = argparse.ArgumentParser(description="Write one workload's corpus; print its facts as JSON.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(WORKLOADS[args.workload].generate(args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
