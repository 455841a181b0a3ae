"""Regenerate verify_status.json from the status map the tests pin.

    python3 perfbench/regen_verify_status.py

The benchmark checks every `blockcheb verify` report against a copy of
tests/test_verify.py::EXPECTED_STATUS.  When a change to the
mathematics moves that map (and the test with it), run this to copy
the new map; it prints what changed.
"""

import ast
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.join(HERE, os.pardir, "tests", "test_verify.py")
TARGET = os.path.join(HERE, "verify_status.json")


def pinned_map() -> dict:
    with open(TESTS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "EXPECTED_STATUS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no EXPECTED_STATUS in {TESTS}")


def main() -> int:
    new = pinned_map()
    try:
        with open(TARGET, encoding="utf-8") as fh:
            old = json.load(fh)
    except FileNotFoundError:
        old = {}
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            print(f"{key}: {old.get(key)} -> {new.get(key)}")
    with open(TARGET, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
