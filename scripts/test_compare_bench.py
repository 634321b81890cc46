#!/usr/bin/env python3
"""Unit tests for compare_bench.py's gating, in particular the
host_cores: 1 rule: a candidate captured on a single core must not
fail the gate on */par4 entries (a 4-domain pool on one core measures
scheduler contention, not the code), while serial entries keep gating
and --gate-entry still force-gates par4; and the RATIOS speedup table
held on the baseline. Stdlib only:

    python3 scripts/test_compare_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "compare_bench.py")


def capture(entries, host_cores):
    doc = {
        "schema_version": 1,
        "kind": "bench-regress",
        "workload": "synthetic",
        "switches": [16],
        "entries": [{"name": n, "ns": ns} for n, ns in entries.items()],
    }
    if host_cores is not None:
        doc["host_cores"] = host_cores
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(doc, fh)
    return path


def run(baseline, current, *extra):
    proc = subprocess.run(
        [sys.executable, SCRIPT, baseline, current, *extra],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


BASE = {
    "mlpc.solve/16": 100e6,
    "mlpc.solve/16/par4": 40e6,
    "verify.closure/16": 50e6,
}


class TestSingleCorePar4Skip(unittest.TestCase):
    def setUp(self):
        self.paths = []

    def tearDown(self):
        for p in self.paths:
            os.unlink(p)

    def cap(self, entries, host_cores):
        p = capture(entries, host_cores)
        self.paths.append(p)
        return p

    def test_par4_regression_skipped_on_one_core(self):
        # par4 3x slower, but the candidate host has one core: pass.
        base = self.cap(BASE, 1)
        cur = self.cap({**BASE, "mlpc.solve/16/par4": 120e6}, 1)
        code, out = run(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("host_cores: 1", out)
        self.assertIn("(not gated)", out)

    def test_par4_regression_fails_on_multicore(self):
        # Same regression with 4 cores: the gate must trip.
        base = self.cap(BASE, 1)
        cur = self.cap({**BASE, "mlpc.solve/16/par4": 120e6}, 4)
        code, out = run(base, cur)
        self.assertNotEqual(code, 0, out)
        self.assertIn("mlpc.solve/16/par4", out)

    def test_serial_regression_still_fails_on_one_core(self):
        # One core skips par4 only — serial entries keep gating.
        base = self.cap(BASE, 1)
        cur = self.cap({**BASE, "verify.closure/16": 200e6}, 1)
        code, out = run(base, cur)
        self.assertNotEqual(code, 0, out)
        self.assertIn("verify.closure/16", out)

    def test_gate_entry_forces_par4_even_on_one_core(self):
        base = self.cap(BASE, 1)
        cur = self.cap({**BASE, "mlpc.solve/16/par4": 120e6}, 1)
        code, out = run(base, cur, "--gate-entry", "*/par4")
        self.assertNotEqual(code, 0, out)

    def test_missing_host_cores_is_treated_as_multicore(self):
        # Old-format captures predate the field; don't silently skip.
        base = self.cap(BASE, 1)
        cur = self.cap({**BASE, "mlpc.solve/16/par4": 120e6}, None)
        code, out = run(base, cur)
        self.assertNotEqual(code, 0, out)

    def test_all_current_files_must_be_one_core(self):
        # Min-merge of a 1-core and a 4-core capture: par4 stays gated.
        base = self.cap(BASE, 1)
        cur1 = self.cap({**BASE, "mlpc.solve/16/par4": 120e6}, 1)
        cur2 = self.cap({**BASE, "mlpc.solve/16/par4": 130e6}, 4)
        code, out = run(base, cur1, cur2)
        self.assertNotEqual(code, 0, out)

    def test_clean_run_passes(self):
        base = self.cap(BASE, 1)
        cur = self.cap(BASE, 1)
        code, out = run(base, cur)
        self.assertEqual(code, 0, out)


class TestOneSidedEntries(unittest.TestCase):
    """Entries present in only one file are reported, never gated: a
    fresh bench entry (shard.plan/200, rulegraph.build/1000, ...) must
    not fail CI the day it is introduced, before the committed baseline
    has been recaptured — and a baseline-only entry must not fail a
    candidate measured at a smaller --switches subset."""

    def setUp(self):
        self.paths = []

    def tearDown(self):
        for p in self.paths:
            os.unlink(p)

    def cap(self, entries, host_cores=4):
        p = capture(entries, host_cores)
        self.paths.append(p)
        return p

    def test_candidate_only_entry_passes(self):
        base = self.cap(BASE)
        cur = self.cap({**BASE, "shard.plan/200": 900e6, "shard.build/1000": 1.3e9})
        code, out = run(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("(only in current)", out)

    def test_candidate_only_entry_passes_even_if_huge(self):
        # No baseline number means no ratio — magnitude is irrelevant.
        base = self.cap(BASE)
        cur = self.cap({**BASE, "plan.full/1000": 1e15})
        code, out = run(base, cur)
        self.assertEqual(code, 0, out)

    def test_candidate_only_entry_passes_under_only_switches(self):
        base = self.cap(BASE)
        cur = self.cap({**BASE, "shard.plan/200": 900e6})
        code, out = run(base, cur, "--only-switches", "200")
        self.assertEqual(code, 0, out)

    def test_baseline_only_entry_passes(self):
        # Candidate measured at a subset of the baseline's scales.
        base = self.cap({**BASE, "rulegraph.build/200": 2.2e9})
        cur = self.cap(BASE)
        code, out = run(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("(only in baseline)", out)

    def test_shared_entries_still_gate_alongside_one_sided(self):
        # Tolerating new names must not blunt the gate on shared ones.
        base = self.cap(BASE)
        cur = self.cap({**BASE, "verify.closure/16": 200e6, "shard.plan/200": 900e6})
        code, out = run(base, cur)
        self.assertNotEqual(code, 0, out)
        self.assertIn("verify.closure/16", out)


class TestRatioTable(unittest.TestCase):
    """The RATIOS speedup bounds, checked on the baseline capture."""

    def setUp(self):
        self.paths = []

    def tearDown(self):
        for p in self.paths:
            os.unlink(p)

    def run_on(self, extra):
        base = capture({**BASE, **extra}, 4)
        cur = capture(BASE, 4)
        self.paths += [base, cur]
        return run(base, cur)

    def test_row_meeting_its_bound_passes(self):
        code, out = self.run_on({"verify.closure/50": 3.0e9, "verify.edit/50": 60e6})
        self.assertEqual(code, 0, out)
        self.assertIn("50.00x", out)

    def test_row_below_its_bound_fails(self):
        code, out = self.run_on({"plan.full/200": 3.0e9, "shard.plan/200": 2.0e9})
        self.assertNotEqual(code, 0, out)
        self.assertIn("plan.full/200 / shard.plan/200", out)

    def test_row_with_one_entry_fails(self):
        code, out = self.run_on({"plan.full/50": 1.7e9})
        self.assertNotEqual(code, 0, out)
        self.assertIn("plan.edit/50 missing", out)

    def test_committed_baseline_meets_every_row(self):
        sys.path.insert(0, os.path.dirname(SCRIPT))
        import compare_bench

        bench = os.path.join(os.path.dirname(SCRIPT), os.pardir, "BENCH_10.json")
        entries, _ = compare_bench.load_entries(bench)
        names = [n for slow, fast, _ in compare_bench.RATIOS for n in (slow, fast)]
        for name in names + ["shard.build/1000"]:
            self.assertIn(name, entries)
        self.assertEqual(compare_bench.check_ratios(entries), [])


if __name__ == "__main__":
    unittest.main()
