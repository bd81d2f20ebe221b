"""Frozen shape, rank and op counts of every Smith form a fixed list of CLI runs forms.

Each entry of ``tests/data/smith_ledger.json`` lists, in the order they
are formed, the Smith forms of one ``diffchar`` command run in process:
``verify --trials 5 --seed 0`` on each of :data:`VERIFY_SPACES` and
``tables`` of lens:5,2, each as (nrows, ncols, rank, row ops, column
ops), the last two the elementary operations the elimination logged on
each side.  They are counted by wrapping the Smith elimination
(``test_exact._count_smith_forms``); the verify entries are
checked in the runs that ``test_hodge`` also reads its normal
factorizations from.

Run from the root of a checkout::

    PYTHONPATH=src python tests/smith_ledger.py           # compare
    PYTHONPATH=src python tests/smith_ledger.py --write   # regenerate

Both print each Smith form that differs from the file as
``label #i: old -> new`` and exit 1 when one does; ``--write`` also
rewrites the file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

from report_digests import run_cli
from test_exact import _count_smith_forms

LEDGER_FILE = Path(__file__).parent / "data" / "smith_ledger.json"

VERIFY_SPACES = ("cp2", "rp3", "torus_grid5", "lens:5,2")
COMMANDS = {
    **{
        f"verify {space}": ("verify", "--space", space, "--trials", "5", "--seed", "0")
        for space in VERIFY_SPACES
    },
    "tables lens:5,2": ("tables", "--space", "lens:5,2"),
}


def count(argv):
    """(exit code, [(nrows, ncols, rank, row ops, col ops), ...]) of one in-process run."""
    with pytest.MonkeyPatch.context() as mp:
        formed = _count_smith_forms(mp)
        code, _ = run_cli(*argv)
    return code, formed


def ledger():
    """{label: [[nrows, ncols, rank, row ops, col ops], ...]} over every command."""
    table = {}
    for label, argv in COMMANDS.items():
        code, formed = count(argv)
        if code != 0:
            raise RuntimeError(f"{label} exited {code}")
        table[label] = [list(entry) for entry in formed]
    return table


def load_frozen():
    return json.loads(LEDGER_FILE.read_text())


def changes(old, new):
    """Lines ``label #i: old -> new`` for every Smith form that differs.

    A Smith form present on one side only reads None on the other.
    """
    lines = []
    for label in sorted(set(old) | set(new)):
        a, b = old.get(label, []), new.get(label, [])
        for i in range(max(len(a), len(b))):
            x = a[i] if i < len(a) else None
            y = b[i] if i < len(b) else None
            if x != y:
                lines.append(f"{label} #{i}: {x} -> {y}")
    return lines


def frozen_entries(label):
    """The frozen Smith forms of one command, as tuples in the order of :func:`count`."""
    return [tuple(entry) for entry in load_frozen()[label]]


def _main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the ledger file")
    args = parser.parse_args(argv)
    new = ledger()
    old = load_frozen() if LEDGER_FILE.exists() else {}
    diff = changes(old, new)
    for line in diff:
        print(line)
    print(f"{sum(map(len, new.values()))} Smith forms in {len(new)} commands, "
          f"{len(diff)} changed")
    if args.write:
        LEDGER_FILE.write_text(
            "{\n" + ",\n".join(
                f" {json.dumps(label)}: {json.dumps(entries)}" for label, entries in new.items()
            ) + "\n}\n"
        )
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(_main())
