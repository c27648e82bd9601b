"""One workload in one process: set up, issue checks in a closed loop,
compare every outcome with the record, and print a JSON result.

    PYTHONPATH=src python3 perfbench/worker.py --workload q_tower --seed 0 \
        --seconds 30 --trace 0

`run.py` starts this in a fresh process with the thread pools pinned;
`selftest.py` calls `run_untraced` and `run_traced` directly.  With
`--setup-only` it times one set-up and prints its wall seconds, its
seconds inside the table kernel and the probe time around it; an
untraced run starts `setup_reps - 1` such processes before its own set-up
and reports the median of all the set-up times.  Every end-to-end time is scaled to the reference speed of the
host-speed probe (`hostspeed.py`); the wall-clock figures are printed
alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
from outcome import Expectations, digest
from tracing import (COUNT, INNER_OPS, LAYER_NAMES, SELF_NS, TOTAL_NS, WORK,
                     Tracer)
from workloads import WORKLOADS

MIN_CHECKS = 100


def fingerprint():
    import numpy

    from mforge import tables
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "gmpy2": has_gmpy2,
            "tables_backend": tables.BACKEND,
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "threads_env": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def timed_setup(workload, kernel_clock):
    """(ctx, wall seconds, kernel seconds, probe seconds around it)."""
    gc.collect()
    return hostspeed.timed_scaled(workload.setup, kernel_clock)


def run_check(workload, expect, ctx, kind, seed, fn, outcomes, failures):
    """Issue one check; record its digest and whether it failed."""
    try:
        got = digest(fn(ctx, seed))
    except Exception as exc:  # a check that raises counts as failed
        got = {"raised": "%s: %s" % (type(exc).__name__, exc)}
        reason = "raised " + got["raised"]
        traceback.print_exc(file=sys.stderr)
    else:
        reason = expect.compare(workload.name, kind, seed, got)
    outcomes.append((kind, seed, got))
    if reason is not None:
        failures.append("%s seed %d: %s" % (kind, seed, reason))


def run_rounds(workload, expect, ctx, seed, rounds=None, seconds=None,
               min_checks=0, tracer=None, meter=None):
    """Closed loop over whole rounds: a fixed number of rounds, or rounds
    until `seconds` of checks have run and at least `min_checks` were
    issued.  Latencies are (kind, wall seconds) pairs.  With a
    `hostspeed.Meter`, the host-speed probe runs before every check and
    once after the last, and the meter keeps the probe and kernel times."""
    latencies, outcomes, failures = [], [], []
    clock = time.perf_counter
    start = clock()
    rnd = 0
    while True:
        if rounds is not None and rnd >= rounds:
            break
        if rounds is None and clock() - start >= seconds \
                and len(latencies) >= min_checks:
            break
        for kind, cseed, fn in workload.checks(seed, rnd):
            if meter is not None:
                meter.before_check()
            t0 = clock()
            if tracer is None:
                run_check(workload, expect, ctx, kind, cseed, fn,
                          outcomes, failures)
            else:
                with tracer.check_span():
                    run_check(workload, expect, ctx, kind, cseed, fn,
                              outcomes, failures)
            latencies.append((kind, clock() - t0))
            if meter is not None:
                meter.after_check()
        rnd += 1
    if meter is not None:
        meter.finish()
    return {"elapsed": clock() - start, "latencies": latencies,
            "outcomes": outcomes, "failures": failures, "rounds": rnd}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def by_kind(latencies):
    out = {}
    for kind, dt in latencies:
        out.setdefault(kind, []).append(dt)
    return out


def kind_percentile(per_kind, q):
    """Geometric mean over check kinds of each kind's q-percentile.  A
    percentile over a mix of kinds jumps from one kind to the next as
    their relative speeds shift; this one moves smoothly with each."""
    return math.exp(statistics.fmean(
        math.log(percentile(v, q)) for v in per_kind.values()))


def run_untraced(name, seed, seconds, min_checks=MIN_CHECKS, expect=None,
                 rounds=None):
    """One set-up, then the closed loop.  `setup_s` is this process's
    set-up time; `main` adds the set-ups of fresh processes.  Every time
    is scaled by the probe times around it."""
    workload = WORKLOADS[name]
    expect = expect or Expectations.load()
    kernel_clock = hostspeed.KernelClock()
    meter = hostspeed.Meter(kernel_clock)
    with kernel_clock.installed():
        ctx, *setup = timed_setup(workload, kernel_clock)
        loop = run_rounds(workload, expect, ctx, seed, rounds=rounds,
                          seconds=seconds, min_checks=min_checks, meter=meter)
    wall = loop["latencies"]
    lat = [(kind, meter.scaled_latency(i, dt))
           for i, (kind, dt) in enumerate(wall)]
    n = len(lat)
    per_kind = by_kind(lat)
    p90 = {kind: percentile(v, 0.90) for kind, v in per_kind.items()}
    metrics = {
        "setup_s": (hostspeed.scaled(setup[0], setup[2], setup[1]), "s"),
        "checks_per_s": (n / sum(dt for _, dt in lat), "1/s"),
        "check_p50_s": (kind_percentile(per_kind, 0.50), "s"),
        "check_p90_s": (kind_percentile(per_kind, 0.90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return {"attempted": n, "failed": len(loop["failures"]),
            "failures": loop["failures"][:20], "outcomes": loop["outcomes"],
            "metrics": metrics,
            "info": {"workload": name, "seed": seed, "rounds": loop["rounds"],
                     "checks": n, "kinds": len(per_kind),
                     "checks_per_kind_min": min(map(len, per_kind.values())),
                     "beyond_kind_p90": sum(1 for kind, v in lat
                                            if v > p90[kind]),
                     "failed_frac": len(loop["failures"]) / n,
                     "measured_s": loop["elapsed"],
                     "probe_median_s": statistics.median(meter.probes),
                     "kernel_share": sum(meter.kernel_s) / sum(
                         dt for _, dt in wall),
                     "wall": {
                         "setup_s": setup[0],
                         "checks_per_s": n / sum(dt for _, dt in wall),
                         "check_p50_s": kind_percentile(by_kind(wall), 0.5),
                         "check_p90_s": kind_percentile(by_kind(wall), 0.9),
                     }}}


def fresh_setup_times(name, count):
    """(wall, kernel, probe) set-up times of `count` fresh processes, one
    after another, so that each set-up is cold and this process holds one
    context only."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--setup-only"], stdout=subprocess.PIPE, text=True, check=True,
            timeout=120)
        times.append(tuple(json.loads(out.stdout.strip().splitlines()[-1])))
    return times


def run_traced(name, seed, expect=None, rounds=None):
    """The traced run: set-up once and a fixed number of rounds, first
    untraced and then traced, so counts repeat exactly and the overhead
    is the ratio of the two wall times."""
    workload = WORKLOADS[name]
    expect = expect or Expectations.load()
    rounds = rounds or workload.traced_rounds

    def one_pass(tracer):
        gc.collect()
        t0 = time.perf_counter()
        with tracer.check_span() if tracer else contextlib.nullcontext():
            ctx = workload.setup()
        after_setup = tracer.snapshot() if tracer else None
        loop = run_rounds(workload, expect, ctx, seed, rounds=rounds,
                          tracer=tracer)
        return time.perf_counter() - t0, loop, after_setup

    plain_s, plain, _ = one_pass(None)
    tracer = Tracer().install()
    try:
        traced_s, traced, after_setup = one_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    failures = plain["failures"] + traced["failures"]
    plain_check_s = sum(dt for _, dt in plain["latencies"])
    traced_check_s = sum(dt for _, dt in traced["latencies"])
    return {"attempted": len(plain["latencies"]) + len(traced["latencies"]),
            "failed": len(failures), "failures": failures[:20],
            "outcomes": traced["outcomes"], "plain_outcomes": plain["outcomes"],
            "metrics": metrics,
            "info": {"workload": name, "seed": seed, "rounds": rounds,
                     "checks": len(traced["latencies"]),
                     "untraced_s": plain_s, "traced_s": traced_s,
                     "untraced_check_s": plain_check_s,
                     "traced_check_s": traced_check_s,
                     "check_shares": check_shares(
                         tracer, after_setup, traced_check_s)}}


def check_shares(tr, since, check_s):
    """Shares of traced check time (set-up excluded): time under octonion
    products (inclusive) and the self time of each layer."""
    out = {"composition.products(inclusive)": tr.select(
        "composition", lambda q: q == "CDElement.__mul__", since)[TOTAL_NS]}
    for layer in LAYER_NAMES:
        out[layer + "(self)"] = tr.select(layer, lambda q: True,
                                          since)[SELF_NS]
    out = {k: v / 1e9 / check_s for k, v in out.items()}
    out["benchmark-glue(self)"] = 1.0 - sum(
        v for k, v in out.items() if k.endswith("(self)"))
    return out


def layer_metrics(tr):
    """The per-layer metrics, each as (value, unit)."""
    tot = tr.layer_totals()
    ns = 1e9
    m = {}
    m["scalars.ops"] = (tr.scalar_ops, "count")
    m["scalars.self_s"] = (tot["scalars"]["self_s"], "s")
    prod = tr.select("composition", lambda q: q == "CDElement.__mul__")
    m["composition.products"] = (prod[COUNT], "count")
    m["composition.product_s"] = (prod[TOTAL_NS] / ns, "s")
    m["composition.ops_per_product"] = (
        prod[INNER_OPS] / prod[COUNT] if prod[COUNT] else 0.0, "ops/product")
    split = tr.select("composition", lambda q: q == "DoublingFrame.split")
    m["composition.splits"] = (split[COUNT], "count")
    m["composition.split_s"] = (split[TOTAL_NS] / ns, "s")
    build = tr.select("composition", lambda q: q == "CDAlgebra.__init__")
    m["composition.algebra_build_s"] = (build[TOTAL_NS] / ns, "s")
    m["composition.self_s"] = (tot["composition"]["self_s"], "s")
    for layer in ("linalg", "quadspace", "unitary", "moufang"):
        m["%s.calls" % layer] = (tot[layer]["calls"], "count")
        m["%s.self_s" % layer] = (tot[layer]["self_s"], "s")
    m["handles.ops"] = (tot["handles"]["calls"], "count")
    m["handles.self_s"] = (tot["handles"]["self_s"], "s")
    applies = tr.select("octonion_aut", lambda q: q.endswith(".apply"))
    m["octonion_aut.applies"] = (applies[COUNT], "count")
    m["octonion_aut.self_s"] = (tot["octonion_aut"]["self_s"], "s")
    norm = tr.select("polygons", lambda q: q == "RootWord.normalized")
    m["polygons.normalizations"] = (norm[COUNT], "count")
    wg = tr.select("polygons", lambda q: q == "WordGroup.__init__")
    m["polygons.wordgroup_build_s"] = (wg[TOTAL_NS] / ns, "s")
    m["polygons.self_s"] = (tot["polygons"]["self_s"], "s")
    sweeps = tr.select("tables", lambda q: q in (
        "kernel.first_assoc_violation", "kernel.first_hom_violation"))
    m["tables.sweeps"] = (sweeps[COUNT], "count")
    assoc = tr.select("tables", lambda q: q == "kernel.first_assoc_violation")
    m["tables.triples"] = (assoc[WORK], "count")
    m["tables.self_s"] = (tot["tables"]["self_s"], "s")
    tops = tr.select("pseudoquad", lambda q: q in (
        "TPoint.__mul__", "TPoint.inverse", "pseudoquad.t_hua"))
    m["pseudoquad.t_ops"] = (tops[COUNT], "count")
    m["pseudoquad.self_s"] = (tot["pseudoquad"]["self_s"], "s")
    glue = tr.select("foundations", lambda q: q == "GlueingMap.apply")
    m["foundations.glueing_applies"] = (glue[COUNT], "count")
    m["foundations.self_s"] = (tot["foundations"]["self_s"], "s")
    loads = tr.select("catalog", lambda q: q == "catalog.foundation_from_json")
    m["catalog.loads"] = (loads[COUNT], "count")
    m["catalog.load_s"] = (loads[TOTAL_NS] / ns, "s")
    for layer in LAYER_NAMES:
        m["%s.raised" % layer] = (tot[layer]["raised"], "count")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print [wall seconds, "
                    "kernel seconds, probe seconds]")
    args = ap.parse_args(argv)
    if args.setup_only:
        kernel_clock = hostspeed.KernelClock()
        with kernel_clock.installed():
            times = timed_setup(WORKLOADS[args.workload], kernel_clock)[1:]
        print(json.dumps(times))
        return 0
    if args.seed is None or args.seconds is None:
        ap.error("--seed and --seconds are required")
    if args.trace:
        res = run_traced(args.workload, args.seed)
    else:
        others = fresh_setup_times(args.workload,
                                   WORKLOADS[args.workload].setup_reps - 1)
        res = run_untraced(args.workload, args.seed, args.seconds)
        info = res["info"]
        walls = [wall for wall, _, _ in others] + [info["wall"]["setup_s"]]
        times = [hostspeed.scaled(wall, probe, kernel)
                 for wall, kernel, probe in others]
        times.append(res["metrics"]["setup_s"][0])
        res["metrics"]["setup_s"] = (statistics.median(times), "s")
        info["wall"]["setup_s"] = statistics.median(walls)
        info["setup_times_s"] = times
    res.pop("outcomes")
    res.pop("plain_outcomes", None)
    res["fingerprint"] = fingerprint()
    res["metrics"] = {k: {"value": v, "unit": u}
                      for k, (v, u) in res["metrics"].items()}
    sys.stdout.write(json.dumps(res) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
