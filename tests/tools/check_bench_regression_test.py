#!/usr/bin/env python3
"""Like-for-like guards of tools/check_bench_regression.py.

    python3 tests/tools/check_bench_regression_test.py

Writes pairs of BENCH_kernels.json-style files that differ only in one
host field and checks that the tool refuses to compare them, and that it
still compares files that agree on the field or leave it undeclared.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
TOOL = os.path.join(REPO_ROOT, "tools", "check_bench_regression.py")


def bench_file(directory, name, host):
    path = os.path.join(directory, name)
    doc = {
        "host": host,
        "after": [{"name": "BM_Kernel/8", "run_type": "iteration",
                   "items_per_second": 1.0e6}],
    }
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


class HostFieldGuards(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def compare(self, seed_host, current_host):
        seed = bench_file(self.tmp.name, "seed.json", seed_host)
        current = bench_file(self.tmp.name, "current.json", current_host)
        return subprocess.run(
            [sys.executable, TOOL, "--seed", seed, "--current", current],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def test_native_arch_mismatch_is_refused(self):
        base = {"build_type": "Release"}
        r = self.compare(dict(base, native_arch="ON"),
                         dict(base, native_arch="OFF"))
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("native-arch mismatch", r.stderr)
        self.assertNotIn("OK:", r.stdout)

    def test_matching_native_arch_is_compared(self):
        host = {"build_type": "Release", "native_arch": "OFF"}
        r = self.compare(host, dict(host))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("OK: 1 benchmark(s)", r.stdout)

    def test_undeclared_native_arch_is_compared(self):
        r = self.compare({"build_type": "Release"},
                         {"build_type": "Release", "native_arch": "ON"})
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_build_type_mismatch_is_refused(self):
        r = self.compare({"build_type": "Release", "native_arch": "OFF"},
                         {"build_type": "Debug", "native_arch": "OFF"})
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("build-type mismatch", r.stderr)


if __name__ == "__main__":
    unittest.main()
