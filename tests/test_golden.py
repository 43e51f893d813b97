"""Pinned sha256 digests of every `analyze` artifact on small, generated corpora.

A refactor or a speed-up must leave every artifact byte for byte as it was,
under each flag set the benchmark's base-commit comparison covers. A change
that alters artifacts on purpose updates these digests and says so.
"""

import hashlib
import json
import random

import pytest

from logtaxon.cli import main

# Rules with an optional named group, a numbered group and no group, one
# behind a leading inline flag and one verbose with a trailing comment.
CUSTOM_RULES = [
    {"name": "ID", "pattern": r"(?i)(r\d+)-m\d+-n\d+", "replacement": r"\g<1>-<:ID:>"},
    {"name": "NUM", "pattern": r"[-+]?\d+"},
    {
        "name": "KV",
        "pattern": r"(?x) (?P<key>[a-z]+=)? (?:0x)? [0-9a-f]{2,}  # key=hex or bare hex",
        "replacement": r"\g<key><:KV:>",
    },
]

DUMPS = ("--score-normal", "--dump-scores", "--dump-contexts")
FLAG_SETS = {
    "defaults": (),
    "dense-dump": ("--context-before", "10", "--context-after", "10", "--attribute-scope", "per-position", *DUMPS),
    "depth-6": ("--miner-depth", "6", "--context-after", "2", "--attribute-scope", "per-position", *DUMPS),
    "rules-strict": ("--mask-rules", "rules.json", "--miner-similarity", "0.9", *DUMPS),
    "header-label": (
        "--header-fields", "2", "--label-field", "1", "--normal-token", "session",
        "--limit", "1500", "--context-after", "2", *DUMPS,
    ),
    "look-ahead": ("--context-before", "0", "--context-after", "3", *DUMPS),
    "no-rules": ("--mask-rules", "no-rules.json"),
    "no-rules-dense-dump": (
        "--mask-rules", "no-rules.json", "--context-before", "10", "--context-after", "10",
        "--attribute-scope", "per-position", *DUMPS,
    ),
}  # fmt: skip


def synth_corpus(tmp_path):
    """The pinned 2,000-line demo corpus of `logtaxon synth --seed 1`."""
    path = tmp_path / "synth.log"
    assert main(["synth", "--out", str(path), "--length", "2000", "--seed", "1"]) == 0
    return path.read_text(encoding="utf-8")


def mixed_corpus(tmp_path):
    """NUM, 0x HEX, key=hex and R..-M..-N.. slots, blank lines and a byte-order mark mid-stream."""
    rng = random.Random(7)
    templates = (
        "session opened for user {word} from node {rid}",
        "session closed for user {word} after {num} s",
        "kernel: dma {keyhex} at {hex} len {num}",
        "node {rid} reports temp {num} fan {num}",
        "RAS KERNEL INFO {num} double-hummer alignment exceptions",
        "ciod: failed to read message prefix on control stream {rid}",
        "flush {keyhex} {keyhex} done",
        "sshd[{num}]: accepted key for {word}",
        "generating core.{num} for {word}",
        "instruction cache parity error corrected",
    )
    words = ("alice", "bob", "carol", "dave", "erin", "frank")

    def slot(name):
        if name == "num":
            return str(rng.choice((rng.randrange(1000), -rng.randrange(100))))
        if name == "hex":
            return f"0x{rng.randrange(16**6):06x}"
        if name == "keyhex":
            return f"{rng.choice(('addr', 'mask', 'crc'))}={rng.randrange(16**4):04x}"
        if name == "rid":
            return f"R{rng.randrange(8):02d}-M{rng.randrange(2)}-N{rng.randrange(16)}"
        return rng.choice(words)

    lines = []
    for i in range(1200):
        if i % 97 == 50:
            lines.append("")
            continue
        content = rng.choice(templates)
        while "{" in content:
            start, end = content.index("{"), content.index("}")
            content = content[:start] + slot(content[start + 1 : end]) + content[end + 1 :]
        label = rng.choice(("ANOM", "KERNDTLB")) if rng.random() < 0.1 else "-"
        lines.append(("\ufeff" if i == 600 else "") + f"{label} {content}")
    return "\n".join(lines) + "\n"


def starred_corpus(tmp_path):
    """The demo corpus with literal "*" tokens: every fifth line keeps only its
    last content token, so its own template can miss the similarity threshold."""
    lines = []
    for number, line in enumerate(synth_corpus(tmp_path).splitlines(), start=1):
        fields = line.split()
        if number % 5 == 0:
            fields[1:-1] = ["*"] * (len(fields) - 2)
        elif number % 3 == 0:
            fields[2] = "*"
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def artifact_digests(tmp_path, text, flags):
    """{artifact name: sha256} of one `analyze` run over `text`."""
    (tmp_path / "rules.json").write_text(json.dumps(CUSTOM_RULES), encoding="utf-8")
    (tmp_path / "no-rules.json").write_text("[]", encoding="utf-8")
    corpus, out = tmp_path / "corpus.log", tmp_path / "out"
    corpus.write_text(text, encoding="utf-8")
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    assert main(["analyze", "--input", str(corpus), "--out-dir", str(out), *flags]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


CORPORA = {"synth": synth_corpus, "mixed": mixed_corpus, "starred": starred_corpus}
MASKED = ("defaults", "dense-dump", "depth-6", "rules-strict", "header-label", "look-ahead")
CASES = [(corpus, flags) for corpus in ("synth", "mixed") for flags in MASKED]
CASES += [("starred", "no-rules"), ("starred", "no-rules-dense-dump")]


@pytest.mark.parametrize("corpus, flags", CASES, ids=[f"{c}-{f}" for c, f in CASES])
def test_artifacts_match_their_pinned_digests(tmp_path, capsys, corpus, flags):
    got = artifact_digests(tmp_path, CORPORA[corpus](tmp_path), FLAG_SETS[flags])
    capsys.readouterr()
    assert got == GOLDEN[corpus, flags]


GOLDEN = {
    ("synth", "defaults"): {
        "report.csv": "6d0f04ffad2d0fe409433062a6d39a63e8fd51f30679d43de9bb8fa9797d3d9c",
        "report.json": "a7d337518e85de238e5bd0af6a53fe27c69263b042f0b27236cd2d924aa3dac6",
        "templates.json": "abd0cafc535e5298d460afba849df1ac518f88dd0f4d1708fde127848db0d97e",
    },
    ("synth", "dense-dump"): {
        "contexts.csv": "5192df110d75e25753311d4197cee22fbf5fb7f944f4e37535e4669acec64a6d",
        "report.csv": "871e834e64db05da7992077732f105cfca7e4bcb61662a2fea6240afd6caab37",
        "report.json": "da8d030e6906a2e260019fc7d81f7ef012ce999244d79490dfd2768f71d586e2",
        "scores.csv": "4f1a132004a1ed3d91264e0993917694a488e3fcc3bcdabc0f4711370e5611c2",
        "templates.json": "abd0cafc535e5298d460afba849df1ac518f88dd0f4d1708fde127848db0d97e",
    },
    ("synth", "depth-6"): {
        "contexts.csv": "c7eaa075a0270ed11968c348b2e0d5bbdc0df6d3b26f97e98989daab961f9cec",
        "report.csv": "871e834e64db05da7992077732f105cfca7e4bcb61662a2fea6240afd6caab37",
        "report.json": "d97decf7fabe62b8da506c5002c9e79a61d4efe32180c9759828b3671eb90489",
        "scores.csv": "62e175cb206e62ecc061ef5d07258b9a142a466c1acf5d81ece83f269bd97c77",
        "templates.json": "f5f8055c01a32d212b5d760faf9eb5a253514ceaff89af2e4cf6d221ac3c1de7",
    },
    ("synth", "rules-strict"): {
        "contexts.csv": "df85ac6bd25422ec38dc714487b729f28128c6fe6ef09fb9057d06b31ae2ee36",
        "report.csv": "c55db84048aa45d2a7ce7558758c38c86a48676ba7cbf3bbea3abbff6cc76347",
        "report.json": "7f79e89620396b2bc8c49536b7ba1db4dcb39548bb9fb0b37fbaab70b58be602",
        "scores.csv": "bbdc68dec6c34e9412951d53a561d19953f6c1a43cf746322adf63b857a1879a",
        "templates.json": "424aac86e3da6593bcd1e5131770d8e10172b2602a345512b52d8c360cc071c6",
    },
    ("synth", "header-label"): {
        "contexts.csv": "0abea108c8501f08b5e7bbe3ab74a2d23a310b02936e2f5c3a61e0124248a530",
        "report.csv": "d6b1c2b5aa8b3cc3f5c84c4ec451495fe66e9fbf4ce113f31e4b524a42fe1de2",
        "report.json": "db5870b6538e5479abe39d3b856929614d6cfe8a8d969db85d92b02d122214a9",
        "scores.csv": "d17849b3896be977edd899b95ff2fdcc1bc48f600cad4f26ed892c79cfff83da",
        "templates.json": "62eb608e3a3b5be7c030f2ea39af3a64c9f4f4872ad28b1f1de6d3460592274f",
    },
    ("synth", "look-ahead"): {
        "contexts.csv": "3705b62da044acb237dc56202611ecdbc5e560126e709e10dc6988d5a6a72754",
        "report.csv": "6d0f04ffad2d0fe409433062a6d39a63e8fd51f30679d43de9bb8fa9797d3d9c",
        "report.json": "4373d77c1dab2d60d04151df7973b37fd5156e051db5f276d2d62993f09e77d4",
        "scores.csv": "e9a27946d789bc8a9d4c6e154b20563d2891a2de7a384a88094249836b61aa82",
        "templates.json": "abd0cafc535e5298d460afba849df1ac518f88dd0f4d1708fde127848db0d97e",
    },
    ("mixed", "defaults"): {
        "report.csv": "becac33e0325dc5460c54e34e3d9cd4f6da82c517bba8892abed8e8ec9fce3bb",
        "report.json": "671b716aece9f61fd71ff9c6d61d2a8f2d3ff9ab9d586fc92682efffe5d6fdf5",
        "templates.json": "6067138c95325a771369c209902f8035a2e87ecb3c04744139dd160a13d5dd72",
    },
    ("mixed", "dense-dump"): {
        "contexts.csv": "89436cb088a20f05e39b13be713c9b6288d0136a87568bfe21ac93ce7958c287",
        "report.csv": "2b4b85bb0d18dce4d0f9b6fe815e4bfe97eb15c9daadbdec86817a3589a0e02f",
        "report.json": "5af964b10f603d3590007fbf57a2dd612134c1e0885392b9810cfc49635fd6bf",
        "scores.csv": "47a7f4037d33501151433f5a148612f412875f5702d1bf22e1b80e5233530393",
        "templates.json": "6067138c95325a771369c209902f8035a2e87ecb3c04744139dd160a13d5dd72",
    },
    ("mixed", "depth-6"): {
        "contexts.csv": "b1001894ee968d5ddbfff0929f80a98554d07279fc3b18b9880aba3179155218",
        "report.csv": "f1c00adbb9d1c63927cc2693eda55c14501d66235e186e0098db5551c9cc081b",
        "report.json": "0fdf3635030c7f94f418ff597790b2deab19b1049f57993b24a0291bdeea2ca4",
        "scores.csv": "8691ebb11bc2ad1f6ab39997ae870197b55a10158f5be3c964d0f6024246f855",
        "templates.json": "5cd1a5abe0d80d197f138c93c7141f7063933da024cc18443247e492ea32821a",
    },
    ("mixed", "rules-strict"): {
        "contexts.csv": "e6f81471e5f3b0393383c9e1a624d1f0ddbd603ac4bf749b1542639a85f37787",
        "report.csv": "b5370573d8a6b8735a182afa6549472a2839a9a4960d62aebbc6eb2315624627",
        "report.json": "cd140a70c35241eac937fc17145d01a64f4b9cae406d2fa78673bef48da73c91",
        "scores.csv": "5e2c59a4ba6ad4264a303d4f40bbef1f974f93ad3b1381975c9cf5434478ca5a",
        "templates.json": "02c6121083f283a41fbb9b0584068e4e88471a4288ed602b9c755409446d25bf",
    },
    ("mixed", "header-label"): {
        "contexts.csv": "4f834301d227ef8230c44cb03ac4fb12b5fbbb12436a81864587d41679c56496",
        "report.csv": "5b581a5dd8e2f08617cae574b01e49702243fa54023b63c443fdb3329d6a0118",
        "report.json": "c7dd22218415db2687bdbcb724f130e6c06f688355ccd801988e7ac99edc6f7c",
        "scores.csv": "344f6b32504843fe1e59ccbf11b252c7a57b866e19b683fafaac081564ee419c",
        "templates.json": "7a01d609b04fba31f451a4fbf5492b97cb629176bcec550406cabdad5c36b077",
    },
    ("mixed", "look-ahead"): {
        "contexts.csv": "12c66353060bf67b4721e8a8d4514020338ad7324f39633519f30356270f9aaf",
        "report.csv": "df6f2dabc1cb905c7f41424a1de18c1daba1434aad7cef1a6fed931874f5a507",
        "report.json": "4cf17a8dd2baa1ae128f0421d1f22f3a7f2d6a945ead9e012c7865035e64c857",
        "scores.csv": "6f915887698d24b1386678466e0c8fb6f91d3e41df29b1346b4282bdfb72e296",
        "templates.json": "6067138c95325a771369c209902f8035a2e87ecb3c04744139dd160a13d5dd72",
    },
    ("starred", "no-rules"): {
        "report.csv": "87de8627e64aed8671171fdd4ae13280a42e14900ad9efe7de8dd151c15143cd",
        "report.json": "6021dc5c3632cc8387f700cfe7f7608aac946c7b41b5256b929cb4cc3ed9c25c",
        "templates.json": "b339f698e7bb34938fdb2d31a40dfd0ceb439121badfd4527e0bf7b91a22469d",
    },
    ("starred", "no-rules-dense-dump"): {
        "contexts.csv": "cf2817efca51caaf95783a9142c2f47e7d1240d838f68336a201dd3b57afb520",
        "report.csv": "b80b7c8ea8a29f5d7e2e6271b23884a033034cc286d72aac4c8c8d330d14798e",
        "report.json": "3da1f3b96960ca289280ade1f65e0b101037ca03a62a06e6e1ab62fd3befd998",
        "scores.csv": "d5796a9794c71e5a5c774907b4571add9d067a8c749a2d3c1a5a5b24b6d5ff7e",
        "templates.json": "b339f698e7bb34938fdb2d31a40dfd0ceb439121badfd4527e0bf7b91a22469d",
    },
}
