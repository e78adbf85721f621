#!/usr/bin/env python3
"""There is one wire: the shared-memory rings carry every framed payload.

    python3 tests/tools/one_wire_transport_test.py

Every wire channel is mapped before fork() inside one process tree, so
every worker can share the rings, and the framed wire has one backend. So
nothing in src/parsim/ opens a socketpair or names AF_UNIX; TransportKind
names exactly the in-process board and the shm wire; and the wire's byte
layer (src/parsim/wire/transport.hpp) is one concrete class, with no
virtual member left for a second backend to override.
"""
import os
import re
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SOURCE_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")
TRANSPORT_HEADER = "src/parsim/wire/transport.hpp"
SOCKET_USE = re.compile(r"\b(socketpair|AF_UNIX)\b")
ENUM_BODY = re.compile(r"\benum\s+class\s+TransportKind\b[^{]*\{([^}]*)\}")
ENUMERATOR = re.compile(r"^\s*([A-Za-z_]\w*)")
VIRTUAL = re.compile(r"\bvirtual\b")


def code_text(path):
    """A C++ source with // and /* */ comments blanked, so prose may name
    what the code must not use."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                  text, flags=re.S)
    return "\n".join(line.split("//", 1)[0] for line in text.split("\n"))


def parsim_sources(root):
    """(path relative to root, code text) for every C++ source in
    src/parsim/."""
    for dirpath, _dirs, files in os.walk(os.path.join(root, "src", "parsim")):
        for name in sorted(files):
            if name.endswith(SOURCE_EXTENSIONS):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                yield rel, code_text(path)


class OneWireTransportTest(unittest.TestCase):
    def test_parsim_opens_no_socket(self):
        found = [f"{rel}:{text.count(chr(10), 0, m.start()) + 1}"
                 for rel, text in parsim_sources(REPO_ROOT)
                 for m in SOCKET_USE.finditer(text)]
        self.assertEqual(found, [], "the shm rings are the only wire")

    def test_transport_kind_is_board_or_shm(self):
        text = code_text(os.path.join(REPO_ROOT, TRANSPORT_HEADER))
        body = ENUM_BODY.search(text)
        self.assertIsNotNone(body, f"no enum class TransportKind in "
                                   f"{TRANSPORT_HEADER}")
        names = [m.group(1) for item in body.group(1).split(",")
                 for m in [ENUMERATOR.match(item)] if m]
        self.assertEqual(names, ["Board", "Shm"])

    def test_the_byte_layer_has_no_virtual_member(self):
        text = code_text(os.path.join(REPO_ROOT, TRANSPORT_HEADER))
        lines = [i + 1 for i, line in enumerate(text.split("\n"))
                 if VIRTUAL.search(line)]
        self.assertEqual(lines, [], f"{TRANSPORT_HEADER} declares a virtual "
                                    f"member at lines {lines}")


if __name__ == "__main__":
    unittest.main()
