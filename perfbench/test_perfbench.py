"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

import checks
import run
import workloads


def kinds(jobs) -> Counter:
    return Counter((job.kind, len(job.files)) for job in jobs)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_jobs(self):
        for workload in workloads.WORKLOADS:
            first = workloads.build_pass(workload, 7, 0)
            self.assertEqual(first, workloads.build_pass(workload, 7, 0))
            self.assertNotEqual(first, workloads.build_pass(workload, 8, 0))
            self.assertNotEqual(first, workloads.build_pass(workload, 7, 1))

    def test_every_pass_has_the_same_skeleton(self):
        for workload in workloads.WORKLOADS:
            base = kinds(workloads.build_pass(workload, 0, 0))
            for seed, index in ((1, 0), (5, 3)):
                self.assertEqual(base, kinds(workloads.build_pass(workload, seed, index)))

    def test_translates_reach_the_minimal_locus(self):
        action = workloads.jordan([3])
        z = [0, 0, 0, 2]
        x = workloads._translate(action, [3], z)
        self.assertEqual(workloads._translate(action, [-3], x), z)


class ChecksTest(unittest.TestCase):
    def test_golden_diff_allows_new_keys_only(self):
        golden = {"rows": [{"status": "stable"}], "chi": "0"}
        self.assertIsNone(checks.golden_diff(golden, {"rows": [{"status": "stable", "method": "gcd"}], "chi": "0"}))
        self.assertIsNotNone(checks.golden_diff(golden, {"rows": [{"status": "unstable"}], "chi": "0"}))
        self.assertIsNotNone(checks.golden_diff(golden, {"rows": [], "chi": "0"}))
        self.assertIsNotNone(checks.golden_diff(golden, {"rows": [{"status": "stable"}]}))

    def test_cayley_sylvester_counts(self):
        # binary quartics: invariants in degrees 2 and 3, then products
        self.assertEqual([checks.sl2_dimension(4, d) for d in range(1, 7)], [0, 1, 1, 1, 1, 2])
        self.assertEqual([checks.ga_dimension((3, 1, -1, -3), d) for d in range(1, 5)], [1, 2, 3, 5])

    def test_golden_outputs_pass_and_tampered_ones_fail(self):
        golden = run.load_golden("strata")
        for job in workloads.build_pass("strata", workloads.DEFAULT_SEED, 0):
            out = golden[job.id]
            self.assertEqual(checks.check_job(job, 0, json.dumps(out)), [], job.id)
            broken = copy.deepcopy(out)
            broken["indices"][-1]["supports"].pop()
            self.assertNotEqual(checks.check_job(job, 0, json.dumps(broken)), [], job.id)

    def test_goldens_cover_the_default_pass(self):
        for workload in workloads.WORKLOADS:
            ids = {job.id for job in workloads.build_pass(workload, workloads.DEFAULT_SEED, 0)}
            self.assertEqual(ids, set(run.load_golden(workload)), workload)


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.workdir = run.WORK / "test"
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def test_tiny_run_passes_its_checks(self):
        cli = run.import_cli()
        for workload in workloads.WORKLOADS:
            passes = list(run.run_passes(cli, workload, 3, self.workdir, 60, max_jobs=3))
            self.assertEqual([len(results) for results, _ in passes], [3])
            self.assertEqual(run.check_results(passes[0][0]), {}, workload)

    def test_traced_jobs_print_the_same_bytes(self):
        script = (
            "import run, workloads\n"
            "from tracer import Tracer\n"
            "cli = run.import_cli()\n"
            "jobs = workloads.build_pass('verdicts', 2, 0)[:4]\n"
            "argvs = run.materialize(jobs, run.WORK / 'test-trace')\n"
            "plain = [cli.run(a) for a in argvs]\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "assert [cli.run(a) for a in argvs] == plain\n"
            "calls, self_ns = tracer.self_times_ns()\n"
            "assert calls[tracer.names.index('cli.run')] == 4\n"
            "assert min(self_ns) >= 0\n"
        )
        self.addCleanup(shutil.rmtree, run.WORK / "test-trace", True)
        proc = subprocess.run([sys.executable, "-c", script], cwd=Path(run.__file__).parent,
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
