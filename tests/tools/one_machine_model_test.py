#!/usr/bin/env python3
"""There is one machine model: a single function prices traffic on it.

    python3 tests/tools/one_machine_model_test.py

Figures 6-7, the ablations, the rank solver's per-step gauges and the
migration cost of ablation G all price a per-PE record on MachineModel.
A second function reading the model's rates would be a second machine, free
to charge messages, bytes or copies its own way, so that the rank gauges
and the figures describe different computers. So MachineModel's four rates
(flops_per_sec, latency_sec, bytes_per_sec, local_bytes_per_sec) may be
read in exactly one function across src/, bench/ and examples/ (tests may
set them), and the retired MessageAggregation switch stays gone.
"""
import os
import re
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SOURCE_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")
PRICED_TREES = ("src", "bench", "examples")
RATES = ("flops_per_sec", "latency_sec", "bytes_per_sec",
         "local_bytes_per_sec")
# A member access of a rate that is not an assignment to it.
READ = re.compile(r"(?:\.|->)\s*(" + "|".join(RATES) + r")\b(?!\s*=[^=])")
CONTROL = {"if", "for", "while", "switch", "catch", "return", "sizeof",
           "decltype", "alignof", "static_assert"}
SCOPE = re.compile(r"\b(namespace|class|struct|union|enum)\b")


def code_text(path):
    """A C++ source with comments and string/char literals blanked (same
    length, newlines kept), so prose and messages may name the rates."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    blank = lambda m: re.sub(r"[^\n]", " ", m.group(0))
    return re.sub(r'/\*.*?\*/|//[^\n]*|"(?:\\.|[^"\\\n])*"|'
                  r"'(?:\\.|[^'\\\n])*'", blank, text, flags=re.S)


def block_owner(head):
    """What a `{` opens, from the text since the previous `;`, `{` or `}`:
    the function's name for a function body, None for anything else (a
    namespace, type, control statement, lambda or initializer)."""
    head = re.sub(r"\s+", " ", head).strip()
    if SCOPE.search(head) or re.search(r"\]\s*(\(|$|mutable|->)", head):
        return None
    m = re.search(r"(\w+)\s*(<[^()]*>)?\s*\(", head)
    if m is None or m.group(1) in CONTROL or "=" in head[:m.start()]:
        return None
    return m.group(1)


def reads_by_function(path):
    """[(line number, rate, enclosing function)] for the rate reads in one
    source; the enclosing function is the innermost function body around
    the read (reads in a lambda count for the function holding it)."""
    text = code_text(path)
    reads = {m.start(): m.group(1) for m in READ.finditer(text)}
    out = []
    stack = []  # per open brace: the function it opens, or None
    head_start = 0
    line = 1
    for i, c in enumerate(text):
        if i in reads:
            fns = [f for f in stack if f is not None]
            out.append((line, reads[i], fns[-1] if fns else None))
        if c == "\n":
            line += 1
        elif c == "{":
            stack.append(block_owner(text[head_start:i]))
            head_start = i + 1
        elif c == "}":
            if stack:
                stack.pop()
            head_start = i + 1
        elif c == ";":
            head_start = i + 1
    return out


def sources(root, trees):
    for tree in trees:
        for dirpath, _dirs, files in os.walk(os.path.join(root, tree)):
            for name in sorted(files):
                if name.endswith(SOURCE_EXTENSIONS):
                    path = os.path.join(dirpath, name)
                    yield path, os.path.relpath(path, root).replace(os.sep,
                                                                   "/")


def rate_reads(root):
    """(path, line number, rate, enclosing function) for every read of a
    MachineModel rate under src/, bench/ and examples/."""
    return [(rel, n, rate, fn)
            for path, rel in sources(root, PRICED_TREES)
            for n, rate, fn in reads_by_function(path)]


class OneMachineModelTest(unittest.TestCase):
    def test_rates_are_read_in_one_function(self):
        reads = rate_reads(REPO_ROOT)
        readers = sorted({(p, fn) for p, _n, _r, fn in reads})
        self.assertEqual(
            len(readers), 1,
            "MachineModel's rates must be read in exactly one function; "
            "found " + ", ".join(f"{fn} in {p}" for p, fn in readers))
        # Every rate is read there, so a rename cannot hollow out the guard.
        self.assertEqual(sorted({r for _p, _n, r, _fn in reads}),
                         sorted(RATES), "a rate is never read")

    def test_message_aggregation_is_gone(self):
        found = [rel for path, rel in sources(REPO_ROOT,
                                               PRICED_TREES + ("tests",))
                 if re.search(r"\bMessageAggregation\b", code_text(path))]
        self.assertEqual(found, [], "MessageAggregation is back")


if __name__ == "__main__":
    unittest.main()
