"""Record the expected outcome of every check into `expected.json`.

    PYTHONPATH=src python3 perfbench/record.py [--workload NAME ...]

For each workload and each recorded run seed (the default seed 0 and the
held-out seed 1) it sets up once and issues `RECORD_ROUNDS` rounds, more
than a benchmark run issues.  Per check kind it stores the outcome shape,
which must be the same at every seed, and, where a check's outcome holds
a counterexample, the full outcome under that check's seed.  Re-record
only on purpose: the file is what later commits are held to.
"""

from __future__ import annotations

import argparse
import json
import sys

from outcome import EXPECTED_PATH, digest, shape
from workloads import WORKLOADS

RUN_SEEDS = (0, 1)
RECORD_ROUNDS = {"q_tower": 16, "finite_exhaustive": 5, "foundations_mix": 16}


def record(name):
    workload = WORKLOADS[name]
    kinds = {}
    for run_seed in RUN_SEEDS:
        ctx = workload.setup()
        for rnd in range(RECORD_ROUNDS[name]):
            for kind, seed, fn in workload.checks(run_seed, rnd):
                got = digest(fn(ctx, seed))
                rec = kinds.setdefault(kind, {"shape": shape(got),
                                              "by_seed": {}})
                if shape(got) != rec["shape"]:
                    raise SystemExit("%s: outcome shape depends on the seed "
                                     "(seed %d)" % (kind, seed))
                if got != rec["shape"]:
                    rec["by_seed"][str(seed)] = got
    for rec in kinds.values():
        if not rec["by_seed"]:
            del rec["by_seed"]
    return kinds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    try:
        with open(EXPECTED_PATH) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"run_seeds": list(RUN_SEEDS), "rounds": RECORD_ROUNDS,
               "workloads": {}}
    for name in args.workload or sorted(WORKLOADS):
        print("recording %s" % name, file=sys.stderr, flush=True)
        doc["workloads"][name] = record(name)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
