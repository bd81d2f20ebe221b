"""Frozen digests of every random draw of a fixed list of CLI runs.

Each entry of ``tests/data/draw_stream.json`` is one ``diffchar``
command run in process: ``verify --trials 20 --seed 0`` on each of
:data:`VERIFY_SPACES`, and ``spark new --k k --seed 0`` on cp2 for
every k in -1..4.  During a run, the CLI's ``random.Random`` is
:func:`logged_random`'s subclass, which logs every ``getrandbits(k)``
result as ``g{k} {value}`` and every ``random()`` result as
``r {value!r}``.  The entry holds the exit code, the number of draws
and the sha256 of the log, one draw per line, so a change to the order,
number or values of the draws shows even where the report reads only
booleans.

Run from the root of a checkout::

    PYTHONPATH=src python tests/draw_stream.py           # compare
    PYTHONPATH=src python tests/draw_stream.py --write   # regenerate

Both print each entry that differs from the file as
``label: old -> new`` and exit 1 when one does; ``--write`` also
rewrites the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from diffchar import cli
from report_digests import changes, run_cli

STREAM_FILE = Path(__file__).parent / "data" / "draw_stream.json"

VERIFY_SPACES = ("cp2", "torus_grid5")
COMMANDS = {
    **{
        f"verify {space}": ("verify", "--space", space, "--trials", "20", "--seed", "0")
        for space in VERIFY_SPACES
    },
    **{
        f"spark new cp2 --k {k}": ("spark", "new", "--space", "cp2", "--k", k, "--seed", "0")
        for k in range(-1, 5)
    },
}


def logged_random(log):
    """A ``random.Random`` subclass that appends each draw to ``log``."""

    class LoggedRandom(random.Random):
        def getrandbits(self, k):
            value = super().getrandbits(k)
            log.append(f"g{k} {value}")
            return value

        def random(self):
            value = super().random()
            log.append(f"r {value!r}")
            return value

    return LoggedRandom


def draws(argv):
    """(exit code, [logged draw, ...]) of one in-process run."""
    log = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli.random, "Random", logged_random(log))
        code, _ = run_cli(*argv)
    return code, log


def stream():
    """{label: {"exit": code, "draws": count, "sha256": digest}} over every command."""
    table = {}
    for label, argv in COMMANDS.items():
        code, log = draws(argv)
        digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
        table[label] = {"exit": code, "draws": len(log), "sha256": digest}
    return table


def load_frozen():
    return json.loads(STREAM_FILE.read_text())


def _main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the digest file")
    args = parser.parse_args(argv)
    new = stream()
    old = load_frozen() if STREAM_FILE.exists() else {}
    diff = changes(old, new)
    for line in diff:
        print(line)
    print(f"{len(new)} entries, {len(diff)} changed")
    if args.write:
        STREAM_FILE.write_text(json.dumps(new, sort_keys=True, indent=1) + "\n")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(_main())
