#!/usr/bin/env python3
"""Thread-invariance test of the benchmark's exact metrics.

    python3 perfbench/test_thread_invariance.py

For every workload it runs the benchmark at AFP_NUM_THREADS=1 and at the
machine's core count (at least 2) and requires the `exact:` line -- dead
space, HPWL, DRC/LVS counts and constraint violations over the fixed
first-pass job set -- to be identical.  It also runs the traced mode, which
checks every staged job bitwise against FloorplanPipeline::run itself, and
requires its first-pass counts to equal the untraced ones.
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7
SECONDS = 1  # one pass: the exact metrics never depend on the run length


class ThreadInvariance(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def run_once(self, workload, threads, trace):
        env = dict(os.environ, AFP_NUM_THREADS=str(threads))
        lines, result = run.run_workload(self.binary, workload, SEED, SECONDS,
                                         trace, env=env)
        self.assertTrue(result["correct"], "\n".join(lines[:-1]))
        self.assertEqual(result["failed"], 0)
        return lines, result

    def exact(self, workload, threads):
        lines, _ = self.run_once(workload, threads, 0)
        exact = [l for l in lines if l.startswith("exact: ")]
        self.assertEqual(len(exact), 1)
        return json.loads(exact[0][len("exact: "):])

    def check(self, workload):
        many = max(os.cpu_count() or 1, 2)
        one = self.exact(workload, 1)
        self.assertEqual(one, self.exact(workload, many))
        _, traced = self.run_once(workload, many, 1)
        m = traced["metrics"]
        self.assertEqual(one["drc_violations"],
                         m["layoutgen.drc_violations"]["value"])
        self.assertEqual(one["lvs_shorts"], m["layoutgen.lvs_shorts"]["value"])
        self.assertEqual(one["lvs_opens"], m["layoutgen.lvs_opens"]["value"])
        self.assertEqual(one["constraint_violations"],
                         m["floorplan.constraint_violations"]["value"])

    def test_table1(self):
        self.check("table1")

    def test_scenario_large(self):
        self.check("scenario_large")

    def test_service_mix(self):
        self.check("service_mix")


if __name__ == "__main__":
    unittest.main()
