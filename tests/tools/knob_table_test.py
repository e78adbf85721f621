#!/usr/bin/env python3
"""README's runtime-knob table must match the environment reads in src/.

    python3 tests/tools/knob_table_test.py

Every `getenv("AB_...")` name in src/ must have a row in the README table
under "Runtime knobs", and every row there must name a variable src/ reads.
"""
import os
import re
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SOURCE_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")
GETENV = re.compile(r'getenv\(\s*"(AB_[A-Z0-9_]+)"')
TABLE_ROW = re.compile(r"^\|\s*`(AB_[A-Z0-9_]+)")


def env_reads(src_dir):
    """Names of the AB_* variables read through getenv anywhere in src_dir."""
    names = set()
    for root, _dirs, files in os.walk(src_dir):
        for name in files:
            if not name.endswith(SOURCE_EXTENSIONS):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as f:
                names.update(GETENV.findall(f.read()))
    return names


def knob_table(readme):
    """Names in the first column of the table under the knob heading."""
    names = set()
    in_section = False
    with open(readme, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                in_section = "Runtime knobs" in line
                continue
            if in_section:
                m = TABLE_ROW.match(line)
                if m:
                    names.add(m.group(1))
    return names


class KnobTableTest(unittest.TestCase):
    def test_table_matches_env_reads(self):
        read = env_reads(os.path.join(REPO_ROOT, "src"))
        documented = knob_table(os.path.join(REPO_ROOT, "README.md"))
        self.assertTrue(read, "found no getenv(\"AB_...\") read in src/")
        self.assertEqual(sorted(read - documented), [],
                         "read in src/ but missing from README's table")
        self.assertEqual(sorted(documented - read), [],
                         "in README's table but never read in src/")


if __name__ == "__main__":
    unittest.main()
