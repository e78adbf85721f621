#!/usr/bin/env python3
"""There is one stepping core: block updates and Heun combines have one home.

    python3 tests/tools/one_stepper_test.py

AmrSolver and RankSolver run the step through src/amr/stepping_core.hpp.
A second copy of the stage loop would let the serial and rank-parallel
paths drift apart bit by bit, so the per-block kernel entry point
(fv_block_update_tiled) and the Heun average (heun_combine_half) may be
called only in the core's stage loop and in AmrSolver's subcycled level
pass; never in src/parsim/.
"""
import os
import re
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SOURCE_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")
GUARDED = ("fv_block_update_tiled", "heun_combine_half")
# (file relative to the repo root, enclosing function) pairs allowed to
# call a guarded function.
ALLOWED = {
    ("src/amr/stepping_core.hpp", "update"),
    ("src/amr/stepping_core.hpp", "combine"),
    ("src/amr/solver.hpp", "advance_level"),
}
CALL = re.compile(r"\b(" + "|".join(GUARDED) + r")\s*[<(]")
DEFINITION = re.compile(r"\b(?!return\b)\w[\w:<>,]*\s+$")
HEADER_NAME = re.compile(r"(\w+)\s*\(")


def enclosing_function(lines, index):
    """Name of the function whose body holds lines[index]: the nearest line
    above it at class-member or namespace indentation that opens a
    parameter list."""
    for line in reversed(lines[:index]):
        stripped = line.strip()
        indent = len(line) - len(line.lstrip(" "))
        if indent > 2 or not stripped or stripped.startswith("//"):
            continue
        m = HEADER_NAME.search(stripped)
        if m:
            return m.group(1)
    return None


def guarded_calls(root, subdir):
    """(path, line number, callee, enclosing function) for every call of a
    guarded function in the sources under root/subdir."""
    calls = []
    for dirpath, _dirs, files in os.walk(os.path.join(root, subdir)):
        for name in sorted(files):
            if not name.endswith(SOURCE_EXTENSIONS):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                lines = f.read().split("\n")
            for i, line in enumerate(lines):
                code = line.split("//", 1)[0]
                for m in CALL.finditer(code):
                    if DEFINITION.search(code[:m.start()]):
                        continue  # the function's own definition
                    calls.append((rel, i + 1, m.group(1),
                                  enclosing_function(lines, i)))
    return calls


class OneStepperTest(unittest.TestCase):
    def test_parsim_has_no_stage_loop(self):
        calls = guarded_calls(REPO_ROOT, "src/parsim")
        self.assertEqual(
            [f"{p}:{n} calls {c} in {fn}" for p, n, c, fn in calls], [],
            "src/parsim/ must step through the stepping core")

    def test_amr_calls_only_in_the_core_and_the_level_pass(self):
        calls = guarded_calls(REPO_ROOT, "src/amr")
        stray = [f"{p}:{n} calls {c} in {fn}" for p, n, c, fn in calls
                 if (p, fn) not in ALLOWED]
        self.assertEqual(stray, [], "a second stage loop in src/amr/")
        # The allowed sites must exist, so a rename cannot hollow out the
        # guard.
        found = {(p, fn) for p, _n, _c, fn in calls}
        self.assertEqual(sorted(ALLOWED - found), [],
                         "allowed call sites not found")


if __name__ == "__main__":
    unittest.main()
