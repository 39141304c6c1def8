#!/usr/bin/env python3
"""Unit tests for tools/biot_lint.py.

Runs the linter over the fixture trees in tests/lint_fixtures/: the `clean`
tree must pass (including the suppression paths — a justified allow() on an
enum switch and on a hot-path .at()), and the `violations` tree must trip
every rule with a finding at the seeded location. These negative cases are
what prove the gate gates: a linter that never fires passes CI vacuously.
"""

import pathlib
import subprocess
import sys
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent
LINT = REPO / "tools" / "biot_lint.py"
FIXTURES = REPO / "tests" / "lint_fixtures"


def run_lint(root: pathlib.Path):
    proc = subprocess.run(
        [sys.executable, str(LINT), "--root", str(root)],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout


class CleanTree(unittest.TestCase):
    def test_passes(self):
        code, out = run_lint(FIXTURES / "clean")
        self.assertEqual(code, 0, out)
        self.assertIn("biot-lint: clean", out)


class ViolationsTree(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.code, cls.out = run_lint(FIXTURES / "violations")

    def assert_finding(self, location: str, rule: str):
        needle = f"{location}: [{rule}]"
        self.assertIn(needle, self.out, f"expected {needle!r} in:\n{self.out}")

    def test_exit_code(self):
        self.assertEqual(self.code, 1, self.out)

    def test_enum_switch_default_arm(self):
        self.assert_finding("src/common/status.cpp:6", "enum-switch")
        self.assertIn("`default:` arm", self.out)

    def test_enum_switch_missing_enumerators(self):
        self.assertIn("does not handle: kBad, kUgly", self.out)

    def test_include_first_include_is_own_header(self):
        self.assert_finding("src/common/status.cpp:1", "include-hygiene")
        self.assertIn("include your own header first", self.out)

    def test_include_parent_escape(self):
        self.assert_finding("src/node/helper.h:1", "include-hygiene")
        self.assertIn("escapes the include root", self.out)

    def test_include_missing_pragma_once(self):
        self.assertIn("src/node/helper.h: [include-hygiene] src/ header is "
                      "missing `#pragma once`", self.out)

    def test_checked_at_unchecked(self):
        self.assert_finding("src/consensus/hot.cpp:5", "checked-at")

    def test_checked_at_allow_requires_rationale(self):
        self.assert_finding("src/consensus/hot.cpp:8", "checked-at")
        self.assertIn("without a rationale", self.out)

    def test_pow_midstate_in_consensus(self):
        self.assert_finding("src/consensus/hot.cpp:11", "pow-midstate")
        self.assertIn("grind through tangle::PowMidstate", self.out)

    def test_brute_force_twin_missing(self):
        self.assert_finding("src/node/helper.h:5", "brute-force-twin")
        self.assertIn("has no incremental twin", self.out)

    def test_brute_force_never_tested(self):
        self.assertIn("never cross-checked under tests/", self.out)

    def test_tangle_add_direct_call(self):
        self.assert_finding("src/node/ingress.cpp:3", "tangle-add")
        self.assertIn("bypasses the admission pipeline", self.out)

    def test_tangle_add_allow_requires_rationale(self):
        self.assert_finding("src/node/ingress.cpp:6", "tangle-add")

    def test_drain_batch_per_item_admit(self):
        self.assert_finding("src/node/drain.cpp:4", "drain-batch")
        self.assertIn("Gateway::admit_many()", self.out)

    def test_drain_batch_allow_requires_rationale(self):
        self.assert_finding("src/node/drain.cpp:6", "drain-batch")

    def test_bench_harness_missing_include(self):
        self.assertIn("bench/bad_timing.cpp: [bench-harness]", self.out)
        self.assertIn('does not include "harness.h"', self.out)

    def test_bench_harness_chrono_include(self):
        self.assert_finding("bench/bad_timing.cpp:2", "bench-harness")

    def test_bench_harness_chrono_usage(self):
        self.assert_finding("bench/bad_timing.cpp:5", "bench-harness")
        self.assertIn("hand-rolled `std::chrono`", self.out)

    def test_raw_sync_mutex(self):
        self.assert_finding("src/common/racy.cpp:4", "raw-sync")
        self.assertIn("capability-annotated wrappers", self.out)

    def test_raw_sync_lock_guard(self):
        self.assert_finding("src/common/racy.cpp:6", "raw-sync")

    def test_raw_sync_allow_requires_rationale(self):
        self.assert_finding("src/common/racy.cpp:9", "raw-sync")

    def test_raw_sync_thread_objects(self):
        self.assert_finding("src/node/spawner.cpp:5", "raw-sync")
        self.assert_finding("src/node/spawner.cpp:6", "raw-sync")
        self.assertIn("run the work on the one pool", self.out)
        # std::thread::hardware_concurrency names no thread object.
        self.assertNotIn("src/node/spawner.cpp:7", self.out)

    def test_guarded_field_unannotated_member(self):
        self.assert_finding("src/common/racy.h:10", "guarded-field")
        self.assertIn("no GUARDED_BY", self.out)

    def test_guarded_field_allow_requires_rationale(self):
        self.assert_finding("src/common/racy.h:12", "guarded-field")


class RealTree(unittest.TestCase):
    def test_repository_is_clean(self):
        # The gate over the real tree must hold; if this fails, a rule fired
        # on production code and either the code or an allow() needs fixing.
        code, out = run_lint(REPO)
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
