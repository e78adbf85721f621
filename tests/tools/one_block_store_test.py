#!/usr/bin/env python3
"""There is one block store and one block image.

    python3 tests/tools/one_block_store_test.py

Every BlockStore draws its blocks from a BlockPool, so block_store.hpp
names no AlignedBuffer backing and no pooled() switch. A block's interior
crosses every boundary through one codec (pack_interior/unpack_interior in
block_store.hpp): no file in src/ names the old migration-only payload
functions, and neither the checkpoint nor the migration code walks a
block's cells itself. The ghost plan reads the forest's explicit neighbor
table, so face_neighbor() is called only by the forest, which builds that
table from it.
"""
import os
import re
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SOURCE_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")
BLOCK_STORE = "src/core/block_store.hpp"
CODEC_USERS = ("src/io/checkpoint.cpp", "src/parsim/block_migration.hpp")
SECOND_BACKING = re.compile(r"\bAlignedBuffer\b|\bpooled\(")
OLD_PAYLOAD = re.compile(r"\b(un)?pack_block_payload\b")
CELL_WALK = re.compile(r"\bfor_each_(cell|row)<")
FACE_NEIGHBOR_CALL = re.compile(r"\bface_neighbor\(")
FOREST_FILES = re.compile(r"^src/core/forest\.[^/]+$")


def code_text(path):
    """A C++ source with // and /* */ comments blanked, so prose may name
    what the code must not use."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                  text, flags=re.S)
    return "\n".join(line.split("//", 1)[0] for line in text.split("\n"))


def src_sources(root):
    """(path relative to root, code text) for every C++ source in src/."""
    for dirpath, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if name.endswith(SOURCE_EXTENSIONS):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                yield rel, code_text(path)


def hits(pattern, rel, text):
    return [f"{rel}:{text.count(chr(10), 0, m.start()) + 1}"
            for m in pattern.finditer(text)]


class OneBlockStoreTest(unittest.TestCase):
    def test_block_store_has_one_backing(self):
        text = code_text(os.path.join(REPO_ROOT, BLOCK_STORE))
        self.assertEqual(hits(SECOND_BACKING, BLOCK_STORE, text), [],
                         "every BlockStore block is a BlockPool slab")

    def test_no_migration_only_payload_codec(self):
        found = [h for rel, text in src_sources(REPO_ROOT)
                 for h in hits(OLD_PAYLOAD, rel, text)]
        self.assertEqual(found, [], "block interiors travel through "
                                    "pack_interior/unpack_interior")

    def test_checkpoint_and_migration_walk_no_cells(self):
        found = [h for rel in CODEC_USERS
                 for h in hits(CELL_WALK, rel,
                               code_text(os.path.join(REPO_ROOT, rel)))]
        self.assertEqual(found, [], "the interior codec walks the cells")

    def test_only_the_forest_computes_face_neighbors(self):
        found = [h for rel, text in src_sources(REPO_ROOT)
                 if not FOREST_FILES.match(rel)
                 for h in hits(FACE_NEIGHBOR_CALL, rel, text)]
        self.assertEqual(found, [], "read Forest::neighbor(), the table the "
                                    "forest keeps")


if __name__ == "__main__":
    unittest.main()
