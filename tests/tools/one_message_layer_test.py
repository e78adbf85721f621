#!/usr/bin/env python3
"""There is one message layer: MessageBoard is the only code in src/ that
moves a payload across a rank boundary.

    python3 tests/tools/one_message_layer_test.py

Every exchange round of a rank run (ghost fills, flux corrections, coarsen
gathers, migration, topology deltas) packs into MessageBoard's channels,
and MessageBoard::flush/receive are the one place a payload meets the
lossy-wire model (FaultPlan::transmit) and the real wire (WireHub::send,
WireHub::recv). A second call site would be a second message layer, with
its own framing, fault draws and span bookkeeping, free to drift from the
cost model's one-message-per-rank-pair aggregation. So each of those calls
must appear exactly once under src/, inside class MessageBoard, and
BufferedExchange (the ghost plan's rank-pair layout) holds no wire, fault
or trace state of its own.
"""
import os
import re
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SOURCE_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")
BOARD_FILE = "src/parsim/buffered_exchange.hpp"
CALLS = ("->transmit(", "wire_->send(", "wire_->recv(")
# State that would make BufferedExchange a transport of its own.
EXCHANGE_STATE = re.compile(
    r"\b(FaultPlan|MsgTrace|WireHub)\s*\*|\bMsgSpanState\b")


def code_lines(path):
    """The lines of a C++ source with // and /* */ comments blanked, so
    prose may name the calls."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                  text, flags=re.S)
    return [line.split("//", 1)[0] for line in text.split("\n")]


def class_body(lines, name):
    """(first, last) 0-based line indices of `class name {` ... `};`, the
    class's closing brace being the first `};` at column 0 after it."""
    start = next(i for i, line in enumerate(lines)
                 if re.match(r"class\s+" + name + r"\b", line))
    end = next(i for i in range(start, len(lines))
               if lines[i].startswith("};"))
    return start, end


def call_sites(root):
    """{call: [(path, 0-based line)]} for every call in CALLS under src/."""
    sites = {call: [] for call in CALLS}
    for dirpath, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if not name.endswith(SOURCE_EXTENSIONS):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            for i, code in enumerate(code_lines(path)):
                for call in CALLS:
                    sites[call] += [(rel, i)] * code.count(call)
    return sites


class OneMessageLayerTest(unittest.TestCase):
    def test_each_wire_call_has_one_site_inside_message_board(self):
        lines = code_lines(os.path.join(REPO_ROOT, BOARD_FILE))
        first, last = class_body(lines, "MessageBoard")
        for call, sites in call_sites(REPO_ROOT).items():
            where = [f"{p}:{i + 1}" for p, i in sites]
            self.assertEqual(len(sites), 1,
                             f"{call} must have one call site in src/, "
                             f"found {where}")
            path, line = sites[0]
            self.assertTrue(path == BOARD_FILE and first <= line <= last,
                            f"{call} at {where[0]} is outside MessageBoard")

    def test_buffered_exchange_holds_no_transport_state(self):
        lines = code_lines(os.path.join(REPO_ROOT, BOARD_FILE))
        first, last = class_body(lines, "BufferedExchange")
        found = [f"{BOARD_FILE}:{i + 1}: {lines[i].strip()}"
                 for i in range(first, last + 1)
                 if EXCHANGE_STATE.search(lines[i])]
        self.assertEqual(found, [],
                         "BufferedExchange must send through a MessageBoard")


if __name__ == "__main__":
    unittest.main()
