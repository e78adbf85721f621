#!/usr/bin/env python3
"""tools/critical_path.py and src/obs/critical_path.cpp compute one analysis.

    python3 tests/tools/critical_path_crosscheck_test.py <rank_trace binary>

examples/rank_trace runs a traced rank-parallel blast and writes both its
Chrome trace and the C++ analysis of it (ab.critical_path.v1). The Python
tool then analyzes the same trace offline. The two reports must name the
same steps, the same ranks (with the same span counts) and the same
critical chains, and agree on makespan, critical time, straggler score and
every per-rank busy/wait/idle fraction to 1e-6 relative: the C++ writer
prints 9 significant digits, so a faithful mirror differs by rounding only.
"""
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
TOOL = os.path.join(REPO_ROOT, "tools", "critical_path.py")
NPES, STEPS = 8, 4
REL_TOL = 1e-6
# Fractions that are zero in one report may carry a last-bit residue in the
# other, where relative error is meaningless; both are far below 1e-12.
ABS_TOL = 1e-12
RANK_TRACE = None  # set from argv


def close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class CriticalPathCrossCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        trace = os.path.join(cls.tmp.name, "trace.json")
        cpp_out = os.path.join(cls.tmp.name, "cpp.json")
        py_out = os.path.join(cls.tmp.name, "py.json")
        subprocess.run([RANK_TRACE, str(NPES), str(STEPS),
                        f"--trace={trace}", f"--critical-path={cpp_out}"],
                       check=True, stdout=subprocess.DEVNULL,
                       cwd=cls.tmp.name)
        subprocess.run([sys.executable, TOOL, trace, "--json", py_out],
                       check=True, stdout=subprocess.DEVNULL)
        with open(cpp_out, encoding="utf-8") as f:
            cls.cpp = json.load(f)
        with open(py_out, encoding="utf-8") as f:
            cls.py = json.load(f)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def steps(self):
        return zip(self.cpp["steps"], self.py["steps"])

    def test_same_schema_and_steps(self):
        self.assertEqual(self.cpp["schema"], "ab.critical_path.v1")
        self.assertEqual(self.py["schema"], self.cpp["schema"])
        cpp_steps = [s["step"] for s in self.cpp["steps"]]
        self.assertEqual([s["step"] for s in self.py["steps"]], cpp_steps)
        self.assertEqual(len(cpp_steps), STEPS)

    def test_same_ranks_and_fractions(self):
        for c, p in self.steps():
            self.assertEqual([r["rank"] for r in p["ranks"]],
                             [r["rank"] for r in c["ranks"]],
                             f"step {c['step']}")
            for rc, rp in zip(c["ranks"], p["ranks"]):
                where = f"step {c['step']} rank {rc['rank']}"
                self.assertEqual(rp["spans"], rc["spans"], where)
                for k in ("busy_frac", "wait_frac", "idle_frac"):
                    self.assertTrue(close(rp[k], rc[k]),
                                    f"{where} {k}: {rp[k]} vs {rc[k]}")

    def test_same_makespan_and_straggler(self):
        for c, p in self.steps():
            for k in ("makespan_s", "critical_s", "straggler"):
                self.assertTrue(close(p[k], c[k]),
                                f"step {c['step']} {k}: {p[k]} vs {c[k]}")

    def test_same_critical_chains(self):
        for c, p in self.steps():
            where = f"step {c['step']}"
            hops = [(h["rank"], h["name"], h["cat"])
                    for h in c["critical_path"]]
            self.assertTrue(hops, f"{where}: empty critical chain")
            self.assertEqual([(h["rank"], h["name"], h["cat"])
                              for h in p["critical_path"]], hops, where)
            for hc, hp in zip(c["critical_path"], p["critical_path"]):
                self.assertTrue(close(hp["dur_s"], hc["dur_s"]),
                                f"{where}: hop {hc} vs {hp}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: critical_path_crosscheck_test.py <rank_trace>")
    RANK_TRACE = sys.argv.pop(1)
    unittest.main()
