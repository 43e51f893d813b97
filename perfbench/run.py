"""End-to-end benchmark of `logtaxon analyze` on seeded, generated corpora.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rhythm-300k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each operation is one `logtaxon analyze` process with the workload's flags,
started only after the previous one exited (a closed loop with one client).
With `--trace 0` the run times several one-record invocations (`setup_s`) and
then analyzes the workload's corpus until `--seconds` have passed, reporting
medians. With `--trace 1` it alternates untraced operations with traced ones
(`trace_run.py`), which time each layer from outside the program.

Every operation writes into a fresh, empty output directory. The first one on
the corpus is checked in full by `check.py`; every later one must produce
byte-identical artifacts. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from check import check_outputs
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
SETUP_REPS = 15
MIN_SAMPLES = 3
OP_TIMEOUT_S = 150
# One record, so an invocation pays start-up, imports, rule compilation and
# the output directory, and almost nothing else.
SETUP_LINE = "ANOM perfbench setup probe 0x1f\n"
SETUP_FACTS = {"records": 1, "normal": 0, "anomalous": 1, "malformed": 0}


@dataclass
class Op:
    """One finished `analyze` process; digest and trace only when it exited 0."""

    wall_s: float
    maxrss_kb: int
    exit_code: int
    out_dir: Path
    digest: dict[str, str] | None = None
    trace: dict | None = None


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("LOGTAXON_OUT_DIR", None)
    return env


def generate(workload: Workload, seed: int, corpus: Path, env: dict) -> dict:
    """Write the workload's corpus for `seed`; return the generator's facts.

    The generator runs as its own process so this one stays small: a child's
    peak RSS from wait4 never reads lower than this process's peak RSS when
    the child was started, since the kernel carries it over the exec.
    """
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload.name,
         "--seed", str(seed), "--out", str(corpus)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=OP_TIMEOUT_S,
    )
    return json.loads(done.stdout)


def digest_dir(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact in an output directory, by file name."""
    digests = {}
    for p in sorted(out_dir.iterdir()):
        sha = hashlib.sha256()
        with open(p, "rb") as fh:
            while chunk := fh.read(1 << 20):
                sha.update(chunk)
        digests[p.name] = sha.hexdigest()
    return digests


def run_analyze(workload: Workload, corpus: Path, out_dir: Path, env: dict, traced: bool = False) -> Op:
    """Run one `analyze` (under trace_run.py if `traced`) into a fresh `out_dir`.

    The peak RSS is the child's own, from wait4, not RUSAGE_CHILDREN, which
    keeps the maximum over every earlier child too.
    """
    if out_dir.exists():
        shutil.rmtree(out_dir)
    trace_file = out_dir.with_suffix(".trace.json")
    runner = [str(BENCH_DIR / "trace_run.py"), "--trace-file", str(trace_file)] if traced else ["-m", "logtaxon.cli"]
    argv = [sys.executable, *runner, "analyze", "--input", str(corpus), "--out-dir", str(out_dir), *workload.flags]
    with open(out_dir.with_suffix(".log"), "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(wall, usage.ru_maxrss, proc.returncode, out_dir)
    if op.exit_code == 0:
        op.digest = digest_dir(out_dir)
        if traced:
            op.trace = json.loads(trace_file.read_text(encoding="utf-8"))
    return op


def check(workload: Workload, op: Op, corpus: Path, facts: dict) -> list[str]:
    if op.exit_code != 0:
        return [f"exit code {op.exit_code}; see {op.out_dir.with_suffix('.log')}"]
    try:
        return check_outputs(
            str(op.out_dir),
            str(corpus),
            facts,
            context_before=int(workload.flag("--context-before", "10")),
            context_after=int(workload.flag("--context-after", "0")),
            attribute_scope=workload.flag("--attribute-scope", "global"),
        )
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable artifacts: {exc!r}"]


def _judge(workload: Workload, ops: list[Op], corpus: Path, facts: dict) -> tuple[int, list[str]]:
    """Check the first operation in full; the rest must match it byte for byte."""
    problems = check(workload, ops[0], corpus, facts)
    failed = sum(1 for op in ops if problems or op.exit_code != 0 or op.digest != ops[0].digest)
    if not problems and failed:
        problems.append(f"{failed} operations wrote artifacts that differ from the first")
    return failed, problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: Workload, corpus: Path, facts: dict, seconds: float, work: Path, env: dict) -> dict:
    probe = work / "setup.log"
    probe.write_text(SETUP_LINE, encoding="utf-8")
    failed = 0
    problems: list[str] = []
    setup_walls = []
    # The first invocation also writes the bytecode caches; it is not timed.
    for rep in range(SETUP_REPS + 1):
        op = run_analyze(workload, probe, work / "setup-out", env)
        if rep:
            setup_walls.append(op.wall_s)
        bad = check(workload, op, probe, SETUP_FACTS)
        if bad:
            failed += 1
            problems += [f"setup: {p}" for p in bad]

    ops: list[Op] = []
    started = time.perf_counter()
    while len(ops) < MIN_SAMPLES or time.perf_counter() - started < seconds:
        ops.append(run_analyze(workload, corpus, work / f"out-{len(ops)}", env))
        if len(ops) > 1 and ops[-1].exit_code == 0:
            shutil.rmtree(ops[-1].out_dir)
    corpus_failed, corpus_problems = _judge(workload, ops, corpus, facts)

    analyze_s = median(op.wall_s for op in ops)
    return {
        "samples": [op.wall_s for op in ops],
        "problems": problems + corpus_problems,
        "correct": failed + corpus_failed == 0,
        "attempted": SETUP_REPS + 1 + len(ops),
        "failed": failed + corpus_failed,
        "metrics": {
            "analyze_s": _metric(analyze_s, "s"),
            "lines_per_s": _metric(facts["lines"] / analyze_s, "lines/s"),
            "peak_rss_mb": _metric(median(op.maxrss_kb for op in ops) / 1024, "MB"),
            "setup_s": _metric(median(setup_walls), "s"),
        },
    }


# Per-layer metric name -> span recorded by trace_run.py.
SPAN_METRICS = {
    "ingest.read_s": "ingest.read_dataset",
    "templating.tokenize_s": "templating.tokenize_corpus",
    "templating.mine_s": "templating.mine_templates",
    "templating.attributes_s": "templating.attributes_for_corpus",
    "templating.save_forest_s": "templating.save_forest",
    "context.build_s": "context.build_all_contexts",
    "scoring.count_s": "scoring.build_count_table",
    "scoring.score_s": "scoring.score_corpus",
    "report.stats_s": "report.dataset_statistics",
    "report.sweep_s": "report.sweep_report",
    "pipeline.analyze_corpus_s": "pipeline.analyze_corpus",
    "cli.main_s": "cli.main",
}
RSS_METRICS = {
    "ingest.read_rss_mb": "ingest.read_dataset",
    "templating.tokenize_rss_mb": "templating.tokenize_corpus",
    "templating.mine_rss_mb": "templating.mine_templates",
    "context.rss_mb": "context.build_all_contexts",
}
COUNTER_UNITS = {
    "ingest.lines": "count",
    "ingest.malformed": "count",
    "templating.distinct_raw_tokens": "count",
    "templating.distinct_sequences": "count",
    "templating.sequence_repeat_ratio": "ratio",
    "templating.templates": "count",
    "templating.same_length_templates_mean": "count",
    "context.distinct_signatures": "count",
    "context.mean_signature_size": "count",
    "scoring.scored_messages": "count",
    "scoring.distinct_attribute_keys": "count",
    "report.distinct_triples": "count",
    "cli.artifact_bytes": "bytes",
}


def traced_run(
    workload: Workload, corpus: Path, facts: dict, seconds: float, work: Path, env: dict, trace_out: Path
) -> dict:
    untraced: list[Op] = []
    traced: list[Op] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        untraced.append(run_analyze(workload, corpus, work / f"out-{len(untraced)}", env))
        traced.append(run_analyze(workload, corpus, work / f"traced-{len(traced)}", env, traced=True))
        for op in (untraced[-1], traced[-1]):
            if op is not untraced[0] and op.exit_code == 0:
                shutil.rmtree(op.out_dir)
    failed, problems = _judge(workload, untraced + traced, corpus, facts)

    metrics: dict[str, dict] = {}
    done = [op for op in traced if op.trace]
    if done:
        spans = [{s["name"]: s["end"] - s["start"] for s in op.trace["spans"]} for op in done]
        for metric, span in SPAN_METRICS.items():
            metrics[metric] = _metric(median(d[span] for d in spans), "s")
        for metric, span in RSS_METRICS.items():
            metrics[metric] = _metric(median(op.trace["rss_mb"][span] for op in done), "MB")
        metrics["cli.overhead_s"] = _metric(
            median(d["cli.main"] - d["ingest.read_dataset"] - d["pipeline.analyze_corpus"] for d in spans), "s"
        )
        for name, unit in COUNTER_UNITS.items():
            metrics[name] = _metric(done[0].trace["counters"][name], unit)
        # After cli.main returns, a traced process computes counters and writes
        # the trace file; that is bookkeeping, not tracing cost, so it is left out.
        traced_total = median(op.wall_s - op.trace["post_main_s"] for op in done)
        metrics["trace.overhead_s"] = _metric(traced_total - median(op.wall_s for op in untraced), "s")
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        trace_out.write_text(json.dumps(done[-1].trace, indent=1), encoding="utf-8")
    return {
        "samples": [op.wall_s for op in traced],
        "problems": problems,
        "correct": failed == 0,
        "attempted": len(untraced) + len(traced),
        "failed": failed,
        "metrics": metrics,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    env = program_env()
    work = WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        corpus = work / "corpus.log"
        facts = generate(workload, seed, corpus, env)
        if trace:
            trace_out = WORK_ROOT / "traces" / f"{name}-seed{seed}.json"
            return traced_run(workload, corpus, facts, seconds, work, env, trace_out)
        return timed_run(workload, corpus, facts, seconds, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "logtaxon" / "cli.py").is_file():
        print(f"error: no logtaxon sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so no workload runs under another's peak RSS.
        status = 0
        for name in WORKLOADS:
            child = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status |= subprocess.run(child).returncode
        return status

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    samples = " ".join(f"{s:.3f}" for s in result["samples"])
    print(f"{args.workload}: operations attempted {result['attempted']}, failed {result['failed']}; "
          f"{len(result['samples'])} timed: {samples} s")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    for p in result["problems"]:
        print(f"  PROBLEM: {p}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
