"""Frozen sha256 digests of a fixed battery of CLI reports.

Each entry of ``tests/data/cli_report_digests.json`` is the sha256 of
the stdout of one ``diffchar`` command, run in process, and its exit
code.  No command takes ``--out``, so no path is echoed; the input files
(cocycles, sparks, cycles, cochains, weights) are written to a temporary
directory, and reports record only their sha256.

Run from the root of a checkout::

    PYTHONPATH=src python tests/report_digests.py           # compare
    PYTHONPATH=src python tests/report_digests.py --write   # regenerate

Both print each entry that differs from the file as ``old -> new`` and
exit 1 when one does; ``--write`` also rewrites the file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from diffchar.builders import build_space
from diffchar.cli import canonical_json, main
from diffchar.cohomology import cohomology_generators, cycle_lattice_basis
from diffchar.complexes import scalar_str

DIGEST_FILE = Path(__file__).parent / "data" / "cli_report_digests.json"

VERIFY_SPACES = ("cp2", "torus_grid5", "rp3", "lens:5,2")
CG_VERIFY_SPACES = ("rp3", "lens:5,2")
SPARK_SPACES = ("torus", "rp3", "cp2")
DECOMPOSE_SPACES = ("rp2", "cp2")
DECOMPOSE_CHOICES = ("0", "1", "-2", "1/2", "-3/4", "5/3")
WEIGHT_CHOICES = ("1/2", "1", "3/2", "2", "5/2")


def run_cli(*argv):
    """(exit code, sha256 of stdout) of one in-process ``diffchar`` run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def _record(table, label, argv):
    code, out = run_cli(*argv)
    table[label] = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
    return out


def _write(path, obj):
    path.write_text(canonical_json(obj))
    return path


def _vector(k, values):
    return {"degree": k, "values": [scalar_str(v) for v in values]}


def battery():
    """{label: {"exit": code, "sha256": digest}} over the whole battery."""
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for space in VERIFY_SPACES:
            _record(table, f"verify {space}",
                    ("verify", "--space", space, "--trials", 20, "--seed", 0))
        for space in CG_VERIFY_SPACES:
            _record(table, f"verify {space} cg",
                    ("verify", "--space", space, "--method", "cg", "--trials", 20, "--seed", 0))
        for space in SPARK_SPACES:
            _spark_commands(table, tmp, space)
        for space in DECOMPOSE_SPACES:
            _decompose_commands(table, tmp, space)
        _record(table, "spark link rp3", ("spark", "link", "--space", "rp3", "--p", 2, "--q", 2))
        _record(table, "hodge aj torus_grid7",
                ("hodge", "aj", "--space", "torus_grid7", "--src", 0, "--dst", 24))
    return table


def _spark_commands(table, tmp, space):
    """The spark, hodge and morse commands on each generator.

    The generators are the free, then the torsion, cocycles of
    ``cohomology_generators`` in each degree 1..n.  Per generator:
    ``spark new``, ``hodge spark`` and ``morse spark`` of the cocycle;
    ``spark d1``, ``spark d2``, ``hodge normal`` and ``spark holonomy``
    of the spark that ``spark new`` printed, holonomy on the sum of the
    primitive integral (k-1)-cycles, k the degree of the cocycle;
    ``spark equiv`` of that spark and the one ``hodge spark`` printed;
    ``spark star`` and ``spark pair`` of that spark and the seeded
    random spark of the complementary degree n - k (``spark new --k
    n-k --seed 0``, recorded once per degree k), whose star is a
    top-degree spark.
    """
    K = build_space(space)
    n = K.dimension
    for k in range(1, n + 1):
        free, tor = cohomology_generators(K, k)
        gens = [("free", i, g) for i, g in enumerate(free)]
        gens += [("torsion", i, g) for i, (_, g, _) in enumerate(tor)]
        cycles = cycle_lattice_basis(K, k - 1)
        cycle = _write(tmp / f"{space}-z{k}.json",
                       _vector(k - 1, map(sum, zip(*cycles))))
        if gens:
            out = _record(table, f"spark new {space} k={n - k} seed 0",
                          ("spark", "new", "--space", space, "--k", n - k, "--seed", 0))
            partner = _write(tmp / "partner.json", json.loads(out)["results"]["spark"])
        for kind, i, g in gens:
            tag = f"{space} k={k} {kind} {i}"
            cocycle = _write(tmp / "cocycle.json", _vector(k, g.values))
            base = ("--space", space)
            out = _record(table, f"spark new {tag}",
                          ("spark", "new", *base, "--cocycle", cocycle))
            spark = _write(tmp / "spark.json", json.loads(out)["results"]["spark"])
            out = _record(table, f"hodge spark {tag}",
                          ("hodge", "spark", *base, "--cocycle", cocycle))
            harmonic = _write(tmp / "hodge-spark.json", json.loads(out)["results"]["spark"])
            _record(table, f"morse spark {tag}",
                    ("morse", "spark", *base, "--cocycle", cocycle))
            _record(table, f"spark d1 {tag}", ("spark", "d1", *base, spark))
            _record(table, f"spark d2 {tag}", ("spark", "d2", *base, spark))
            _record(table, f"hodge normal {tag}", ("hodge", "normal", *base, spark))
            _record(table, f"spark holonomy {tag}",
                    ("spark", "holonomy", *base, spark, "--cycle", cycle))
            _record(table, f"spark equiv {tag}", ("spark", "equiv", *base, spark, harmonic))
            _record(table, f"spark star {tag}",
                    ("spark", "star", *base, spark, partner))
            _record(table, f"spark pair {tag}",
                    ("spark", "pair", *base, spark, partner))


def _decompose_commands(table, tmp, space):
    """hodge decompose of one seeded cochain per degree, uniform and weighted.

    Each runs twice: with the default method and with ``--method cg``.
    """
    K = build_space(space)
    rng = random.Random(f"weights {space}")
    weights = _write(tmp / f"{space}-w.json", {
        str(k): [rng.choice(WEIGHT_CHOICES) for _ in range(K.n_simplices(k))]
        for k in range(K.dimension + 1)
    })
    for k in range(K.dimension + 1):
        rng = random.Random(f"cochain {space} {k}")
        values = [Fraction(rng.choice(DECOMPOSE_CHOICES)) for _ in range(K.n_simplices(k))]
        cochain = _write(tmp / f"{space}-u{k}.json", _vector(k, values))
        argv = ("hodge", "decompose", "--space", space, "--cochain", cochain)
        for suffix, method in (("", ()), (" cg", ("--method", "cg"))):
            _record(table, f"hodge decompose {space} k={k} uniform{suffix}", (*argv, *method))
            _record(table, f"hodge decompose {space} k={k} weighted{suffix}",
                    (*argv, *method, "--weights", weights))


def load_frozen():
    return json.loads(DIGEST_FILE.read_text())


def changes(old, new):
    """Lines ``label: old -> new`` for every entry that differs."""
    lines = []
    for label in sorted(set(old) | set(new)):
        if old.get(label) != new.get(label):
            lines.append(f"{label}: {old.get(label)} -> {new.get(label)}")
    return lines


def _main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the digest file")
    args = parser.parse_args(argv)
    new = battery()
    old = load_frozen() if DIGEST_FILE.exists() else {}
    diff = changes(old, new)
    for line in diff:
        print(line)
    print(f"{len(new)} entries, {len(diff)} changed")
    if args.write:
        DIGEST_FILE.write_text(json.dumps(new, sort_keys=True, indent=1) + "\n")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(_main())
