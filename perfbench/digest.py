"""Print the sha256 of every `logtaxon analyze` artifact per workload and seed.

Usage, from the root of a checkout:

    python3 perfbench/digest.py [--seeds 1 2 3] [--workloads rhythm-300k ...]

Each (workload, seed) corpus is generated afresh and analyzed twice, each
time into a fresh, empty output directory (a rerun into an old one can keep a
stale `scores.csv`). The two runs must agree byte for byte, or the command
reports the mismatch and exits 1. Running it on two commits and
diffing the output shows whether their artifacts are identical; the
reference is made anew each time, never stored.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from run import SRC, WORK_ROOT, WORKLOADS, generate, program_env, run_analyze


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args()
    if not (SRC / "logtaxon" / "cli.py").is_file():
        print(f"error: no logtaxon sources under {SRC}", file=sys.stderr)
        return 2

    env = program_env()
    status = 0
    for name in args.workloads:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            work = WORK_ROOT / f"digest-{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                corpus = work / "corpus.log"
                generate(workload, seed, corpus, env)
                digests = []
                for rep in range(2):
                    op = run_analyze(workload, corpus, work / f"out-{rep}", env)
                    if op.exit_code != 0:
                        print(f"{name} seed {seed}: analyze exited {op.exit_code}", file=sys.stderr)
                        return 1
                    digests.append(op.digest)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            for artifact, sha in digests[0].items():
                print(f"{name}\t{seed}\t{artifact}\t{sha}")
            if digests[1] != digests[0]:
                print(f"MISMATCH: {name} seed {seed}: repeated runs wrote different artifacts")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
