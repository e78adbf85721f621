#!/usr/bin/env python3
"""There is one transfer kernel: copy, restrict and prolong arithmetic has
one home in src/.

    python3 tests/tools/transfer_kernel_test.py

GhostExchanger's row executor (src/core/ghost.cpp) is the only copy/
restrict/prolong arithmetic in the library: the ghost fill, the packed
rank messages, the subcycled time blend and the refine/coarsen data
transfer all run it. The per-cell operators (prolong_value,
restrict_value, compute_op) are the test oracle in
tests/support/ghost_reference.hpp; a second copy of them under src/ would
let a production path drift from the executor the oracle checks, so no
source file under src/ may define or call them.
"""
import os
import re
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SOURCE_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")
PER_CELL = ("prolong_value", "restrict_value", "compute_op")
NAME = re.compile(r"\b(" + "|".join(PER_CELL) + r")\b")
ORACLE = "tests/support/ghost_reference.hpp"


def code_lines(path):
    """The lines of a C++ source with // comments and /* */ comments
    blanked, so prose may name the oracle."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                  text, flags=re.S)
    return [line.split("//", 1)[0] for line in text.split("\n")]


def per_cell_uses(root, subdir):
    """(path, line number, name) for every use of a per-cell operator in
    the sources under root/subdir."""
    uses = []
    for dirpath, _dirs, files in os.walk(os.path.join(root, subdir)):
        for name in sorted(files):
            if not name.endswith(SOURCE_EXTENSIONS):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            for i, code in enumerate(code_lines(path)):
                for m in NAME.finditer(code):
                    uses.append((rel, i + 1, m.group(1)))
    return uses


class TransferKernelTest(unittest.TestCase):
    def test_src_has_no_per_cell_operator(self):
        uses = per_cell_uses(REPO_ROOT, "src")
        self.assertEqual(
            [f"{p}:{n} uses {name}" for p, n, name in uses], [],
            "src/ must transfer through GhostExchanger's row executor")

    def test_oracle_defines_the_per_cell_operators(self):
        # The guard names the oracle's functions; they must exist, so a
        # rename cannot hollow it out.
        text = "\n".join(code_lines(os.path.join(REPO_ROOT, ORACLE)))
        for name in PER_CELL:
            self.assertRegex(text, r"\b" + name + r"\s*\(",
                             f"{ORACLE} does not define {name}")


if __name__ == "__main__":
    unittest.main()
