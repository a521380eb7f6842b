#!/usr/bin/env python
"""Thin entry to the performance ledger (``benchmarks/ledger/``).

``--quick`` runs one untraced pass of ``saturated_queue`` and writes its
result object to ``--out``; without it the whole ledger is written
there (~5 min).  Exits non-zero unless the run reports ``"correct":
true``.  The tier-1 verify command calls this file verbatim::

    python benchmarks/bench_runtime.py --quick --out /tmp/bench_smoke.json
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ledger", "run.py")
QUICK = ["--workload", "saturated_queue", "--seconds", "2", "--trace", "0"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="one untraced saturated_queue pass (~15 s)")
    parser.add_argument("--out", required=True, metavar="PATH",
                        help="where the result object / ledger is written")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    command = [sys.executable, RUN, "--seed", str(args.seed)]
    if not args.quick:
        return subprocess.run(command + ["--out", args.out]).returncode
    done = subprocess.run(command + QUICK, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print("FAILED: the ledger printed no result object", file=sys.stderr)
        return done.returncode or 1
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return done.returncode or int(result.get("correct") is not True)


if __name__ == "__main__":
    sys.exit(main())
