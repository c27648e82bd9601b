"""Self-tests of the benchmark.

    PYTHONPATH=src python3 perfbench/selftest.py

(or `python3 -m pytest perfbench/selftest.py`).  The file is not named
`test_*.py`, so the repository's own test run does not collect it.  It
takes a few minutes: one round of every workload, untraced and traced.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
import tempfile
import unittest
import unittest.mock
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import worker  # noqa: E402
from outcome import Expectations  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXPECT = Expectations.load()


class SmokeTest(unittest.TestCase):
    """One round of each workload at both recorded run seeds matches the
    record, and the negative controls still fail with their witnesses."""

    def test_every_workload_one_round(self):
        from mforge import tables
        sweep = tables._kernel.first_assoc_violation
        for name in WORKLOADS:
            for seed in EXPECT.doc["run_seeds"]:
                with self.subTest(workload=name, seed=seed):
                    res = worker.run_untraced(name, seed, seconds=0,
                                              min_checks=0, rounds=1,
                                              expect=EXPECT)
                    self.assertEqual(res["failures"], [])
                    self.assertEqual(res["info"]["failed_frac"], 0.0)
                    self.assertEqual(res["attempted"],
                                     len(WORKLOADS[name].round))
                    # the kernel clock is removed again, and it sees the
                    # sweeps that take most of finite_exhaustive's time
                    self.assertIs(tables._kernel.first_assoc_violation, sweep)
                    if name == "finite_exhaustive":
                        self.assertGreater(res["info"]["kernel_share"], 0.3)

    def test_negative_controls_keep_their_counterexamples(self):
        res = worker.run_untraced("q_tower", 0, seconds=0, min_checks=0,
                                  rounds=1, expect=EXPECT)
        dim16 = [got for kind, _, got in res["outcomes"]
                 if kind == "identities.dim16-Q.alternative"]
        self.assertTrue(dim16 and not dim16[0]["passed"])
        self.assertTrue(any(cex for _, ok, cex in dim16[0]["lines"]
                            if not ok))

    def test_planted_wrong_expectation_counts_as_failed(self):
        doc = copy.deepcopy(EXPECT.doc)
        rec = doc["workloads"]["foundations_mix"]["fnd-check.bad_triangle_f4"]
        rec["shape"]["passed"] = True
        rec.pop("by_seed", None)
        res = worker.run_untraced("foundations_mix", 0, seconds=0,
                                  min_checks=0, rounds=1,
                                  expect=Expectations(doc))
        self.assertEqual(res["failed"], 1)
        self.assertGreater(res["info"]["failed_frac"], 0.0)

    def test_vanished_counterexample_counts_as_failed(self):
        doc = copy.deepcopy(EXPECT.doc)
        kind = "identities.dim16-Q.alternative"
        rec = doc["workloads"]["q_tower"][kind]
        rec.pop("by_seed", None)
        rec["shape"]["lines"] = [[rule, ok, None]
                                 for rule, ok, _ in rec["shape"]["lines"]]
        res = worker.run_untraced("q_tower", 0, seconds=0, min_checks=0,
                                  rounds=1,
                                  expect=Expectations(doc))
        self.assertEqual(res["failed"], 1)


class SetupTimeTest(unittest.TestCase):
    """Set-up is timed in fresh processes, each printing its seconds."""

    def test_fresh_setup_times(self):
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        with unittest.mock.patch.dict(os.environ, env):
            times = worker.fresh_setup_times("q_tower", 2)
        self.assertEqual(len(times), 2)
        self.assertTrue(all(wall > 0 and probe > 0 and 0 <= kernel <= wall
                            for wall, kernel, probe in times))


class HostSpeedTest(unittest.TestCase):
    """A check's wall time is scaled by the probes on either side of it."""

    def test_scaling(self):
        import hostspeed
        self.assertGreater(hostspeed.probe_s(), 0)
        ref = hostspeed.REF_PROBE_S
        self.assertAlmostEqual(hostspeed.scaled(0.5, 2 * ref), 0.25)
        # kernel time is left as measured
        self.assertAlmostEqual(hostspeed.scaled(0.5, 2 * ref, 0.3), 0.4)
        meter = hostspeed.Meter(hostspeed.KernelClock())
        meter.probes, meter.kernel_s = [ref, 3 * ref, 9 * ref], [0.0, 0.1]
        self.assertAlmostEqual(meter.scaled_latency(1, 0.7), 0.2)


class TraceTest(unittest.TestCase):
    """Tracing changes no outcome, and its counts repeat exactly."""

    def traced(self, name):
        res = worker.run_traced(name, 0, expect=EXPECT, rounds=1)
        self.assertEqual(res["failures"], [])
        return res

    def test_traced_outcomes_and_counts_repeat(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, second = self.traced(name), self.traced(name)
                self.assertEqual(first["outcomes"], first["plain_outcomes"])
                self.assertEqual(first["outcomes"], second["outcomes"])
                counts = [{k: v for k, (v, unit) in r["metrics"].items()
                           if unit == "count"} for r in (first, second)]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["scalars.ops"], 0)

    def test_tracer_uninstall_restores_the_package(self):
        from mforge import cli, composition, tables

        from tracing import Tracer
        before = (composition.verify_identities, cli.f4_census,
                  tables._kernel.first_assoc_violation,
                  composition.CDElement.__mul__)
        tr = Tracer().install()
        try:
            self.assertIsNot(composition.verify_identities, before[0])
            self.assertIsNot(cli.f4_census, before[1])
            self.assertIsNot(tables._kernel.first_assoc_violation, before[2])
        finally:
            tr.uninstall()
        after = (composition.verify_identities, cli.f4_census,
                 tables._kernel.first_assoc_violation,
                 composition.CDElement.__mul__)
        self.assertEqual(before, after)


class CommandTest(unittest.TestCase):
    """The command refuses to run without the package sources."""

    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "perfbench").mkdir()
            for f in HERE.iterdir():
                if f.is_file():
                    (Path(tmp) / "perfbench" / f.name).write_bytes(
                        f.read_bytes())
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "q_tower",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
