"""The mforge benchmark: one workload, one fresh single-threaded process.

    python3 perfbench/run.py --workload q_tower --seed 0 --seconds 30 --trace 0

Run from the root of a checkout (the package is imported from `src/`, no
install needed).  With `--trace 0` it reports the end-to-end metrics of a
closed loop that issues checks for `--seconds`, every time scaled to the
reference speed of the host-speed probe; with `--trace 1` it runs
a fixed schedule untraced and then traced and reports per-layer metrics.
It prints the environment fingerprint and every metric by name with its
unit, then, as the last line, a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


# Thread pools pinned to one thread: each run is a single-threaded client.
PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    return 2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="q_tower, finite_exhaustive or foundations_mix")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mforge" / "__init__.py").is_file():
        return fail("no mforge sources under %s" % (ROOT / "src"))
    if not (ROOT / "sample_foundations").is_dir():
        return fail("no sample_foundations directory under %s" % ROOT)

    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return fail("workload process exceeded %d s" % TIMEOUT_S)
    if proc.returncode != 0:
        return fail("workload process exited with code %d" % proc.returncode)
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return fail("workload process printed no result")

    info = res["info"]
    print("fingerprint %s" % json.dumps(res["fingerprint"], sort_keys=True))
    print("workload %s seed %d: %s" % (args.workload, args.seed, json.dumps(
        info, sort_keys=True)))
    for msg in res["failures"]:
        print("FAILED %s" % msg)
    if not args.trace:
        print("%-32s %d checks of %d kinds (at least %d of each, %d beyond "
              "their kind's p90), %d failed, failed_frac %.4f"
              % ("checks", res["attempted"], info["kinds"],
                 info["checks_per_kind_min"], info["beyond_kind_p90"],
                 res["failed"], info["failed_frac"]))
    for name, m in res["metrics"].items():
        print("%-32s %.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("%-32s %.6g s" % ("host-speed probe (median)",
                                info["probe_median_s"]))
        print("%-32s %.4f" % ("table-kernel share of check time",
                              info["kernel_share"]))
        for name, value in info["wall"].items():
            print("%-32s %.6g (wall clock, unscaled)" % (name, value))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
