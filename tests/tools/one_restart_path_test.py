#!/usr/bin/env python3
"""There is one restart path: both solvers restore through the stepping core.

    python3 tests/tools/one_restart_path_test.py

SteppingCore::restore reads and checks the whole checkpoint, rebuilding
the saved topology into a forest of its own, before it changes anything in
the solver; then the ownership policy places the leaves. A second caller of
the checkpoint loader would be a second restore, free to mutate the solver
before the file is checked or to place leaves its own way. So outside the
loader's own files (src/io/checkpoint.*) load_checkpoint is called from
exactly one place in src/, the stepping core; neither solver header defines
a restore of its own; and the v1 reader (load_v1, kMagicV1) stays gone, so
there is one checkpoint decoder.
"""
import os
import re
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SOURCE_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")
CORE_FILE = "src/amr/stepping_core.hpp"
LOADER_FILES = ("src/io/checkpoint.hpp", "src/io/checkpoint.cpp")
SOLVER_FILES = ("src/amr/solver.hpp", "src/parsim/rank_solver.hpp")
LOADER_CALL = re.compile(r"\bload_checkpoint\s*(<[^<>()]*>)?\s*\(")
RESTORE_DEFINITION = re.compile(r"\bvoid\s+restore\s*\(")
V1_READER = re.compile(r"\b(load_v1|kMagicV1)\b")


def code_lines(path):
    """The lines of a C++ source with // and /* */ comments blanked, so
    prose may name the functions."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                  text, flags=re.S)
    return [line.split("//", 1)[0] for line in text.split("\n")]


def sources(root):
    """(path relative to root, code lines) for every C++ source in src/."""
    for dirpath, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if name.endswith(SOURCE_EXTENSIONS):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                yield rel, code_lines(path)


def matches(root, pattern, skip=()):
    """["path:line"] for every line of src/ code matching `pattern`."""
    return [f"{rel}:{i + 1}"
            for rel, lines in sources(root) if rel not in skip
            for i, code in enumerate(lines) if pattern.search(code)]


class OneRestartPathTest(unittest.TestCase):
    def test_the_loader_has_one_caller_in_the_stepping_core(self):
        sites = matches(REPO_ROOT, LOADER_CALL, skip=LOADER_FILES)
        self.assertEqual(len(sites), 1,
                         f"load_checkpoint must have one call site in src/, "
                         f"found {sites}")
        self.assertTrue(sites[0].startswith(CORE_FILE + ":"),
                        f"load_checkpoint at {sites[0]} is outside the "
                        f"stepping core")

    def test_no_solver_defines_its_own_restore(self):
        for rel in SOLVER_FILES:
            lines = code_lines(os.path.join(REPO_ROOT, rel))
            found = [f"{rel}:{i + 1}" for i, code in enumerate(lines)
                     if RESTORE_DEFINITION.search(code)]
            self.assertEqual(found, [],
                             "restore belongs to the stepping core")

    def test_there_is_no_v1_reader(self):
        self.assertEqual(matches(REPO_ROOT, V1_READER), [],
                         "the v1 checkpoint reader is gone")


if __name__ == "__main__":
    unittest.main()
