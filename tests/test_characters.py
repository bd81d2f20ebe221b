"""Character-group structure, duality predictions, sequence checks."""

import json
import random
from pathlib import Path

import pytest

from diffchar.builders import (
    build_space,
    circle,
    cp2,
    moebius_kuehnel_torus,
    rp2,
    rp3,
    sphere,
    surface_of_genus,
)
from diffchar import characters
from diffchar.characters import (
    character_structure,
    character_table,
    dual_structure,
    duality_match,
    kunneth_character_rows,
    verify_sequences,
)
from diffchar.cohomology import (
    AbelianGroupStructure,
    CircleGroupStructure,
    coboundary_smith_form,
    cohomology_generators,
    cohomology_structures,
    integer_cohomology,
)
from diffchar.exact import ScaledVector
from diffchar.hodge import spark_from_cocycle
from diffchar.sparks import Spark, curvature
from oracles import plant_coefficient

FROZEN_REPORTS = Path(__file__).parent / "data" / "verify_sequences_frozen.json"

Z = AbelianGroupStructure(1, ())
ZERO = AbelianGroupStructure(0, ())


def rows_of(K):
    return [
        (c.degree, c.torus_rank, c.exact_dim, c.discrete.format())
        for c in character_table(K)
    ]


# Exact dimensions below follow from the f-vector and the Betti numbers:
# rank(delta_k) = n_k - b_k - rank(delta_{k-1}) starting from rank(delta_-1)=0.


def test_character_table_torus():
    K = moebius_kuehnel_torus()
    assert K.f_vector() == (7, 21, 14)
    assert rows_of(K) == [
        (-1, 0, 0, "Z"),
        (0, 1, 6, "Z^2"),
        (1, 2, 13, "Z"),
        (2, 1, 0, "0"),
    ]


def test_character_table_genus_two():
    K = surface_of_genus(2)
    assert K.f_vector() == (11, 39, 26)
    assert rows_of(K) == [
        (-1, 0, 0, "Z"),
        (0, 1, 10, "Z^4"),
        (1, 4, 25, "Z"),
        (2, 1, 0, "0"),
    ]


def test_character_table_cp2():
    K = cp2()
    assert K.f_vector() == (9, 36, 84, 90, 36)
    assert rows_of(K) == [
        (-1, 0, 0, "Z"),
        (0, 1, 8, "0"),
        (1, 0, 28, "Z"),
        (2, 1, 55, "0"),
        (3, 0, 35, "Z"),
        (4, 1, 0, "0"),
    ]


def test_character_table_rp3():
    K = rp3()
    assert K.f_vector() == (40, 232, 384, 192)
    assert rows_of(K) == [
        (-1, 0, 0, "Z"),
        (0, 1, 39, "0"),
        (1, 0, 193, "Z_2"),
        (2, 0, 191, "Z"),
        (3, 1, 0, "0"),
    ]


def test_top_degree_is_bare_circle():
    for K in (sphere(2), moebius_kuehnel_torus(), cp2()):
        top = character_structure(K, K.dimension)
        assert (top.torus_rank, top.exact_dim) == (1, 0)
        assert top.discrete.is_trivial()
        assert top.format() == "S1"


def test_degree_minus_one_is_integers():
    c = character_structure(sphere(2), -1)
    assert (c.torus_rank, c.exact_dim) == (0, 0)
    assert c.discrete == Z
    assert c.format() == "Z"


def test_format_strings():
    assert character_structure(moebius_kuehnel_torus(), 1).format() == "(S1)^2 x Q^13 x Z"
    assert character_structure(rp3(), 1).format() == "Q^193 x Z_2"


def test_degree_out_of_range():
    K = sphere(2)
    with pytest.raises(ValueError):
        character_structure(K, -2)
    with pytest.raises(ValueError):
        character_structure(K, 3)
    for k in (-2, 3):
        with pytest.raises(ValueError):
            verify_sequences(K, k, rng=random.Random(0), trials=1)


@pytest.mark.parametrize(
    "build", [sphere(2), moebius_kuehnel_torus(), rp3(), cp2()], ids=["s2", "t2", "rp3", "cp2"]
)
def test_duality_match_closed_oriented(build):
    K = build
    for k in range(-1, K.dimension + 1):
        assert duality_match(K, k), f"duality mismatch at degree {k}"


def test_duality_detects_nonorientable():
    K = rp2()
    assert not duality_match(K, 0)


def test_dual_structure_rp3_degree_one():
    d = dual_structure(rp3(), 1)
    assert d.degree == 1
    assert d.torus_rank == 0
    assert d.exact_nonzero
    assert d.discrete == AbelianGroupStructure(0, (2,))


def test_kunneth_rows_cp2_squared():
    H = cohomology_structures(cp2())
    rows = kunneth_character_rows(H, H, 8)
    assert [(k, t, d.format()) for k, t, d in rows] == [
        (-1, 0, "Z"),
        (0, 1, "0"),
        (1, 0, "Z^2"),
        (2, 2, "0"),
        (3, 0, "Z^3"),
        (4, 3, "0"),
        (5, 0, "Z^2"),
        (6, 2, "0"),
        (7, 0, "Z"),
        (8, 1, "0"),
    ]


def test_kunneth_rows_match_direct_torus():
    Hc = cohomology_structures(circle(3))
    rows = kunneth_character_rows(Hc, Hc, 2)
    direct = character_table(moebius_kuehnel_torus())
    for (k, torus, disc), c in zip(rows, direct):
        assert k == c.degree
        assert torus == c.torus_rank
        assert disc == c.discrete


EXPECTED_CHECKS = [
    "class_map_surjective",
    "exact_charge_flattens",
    "curvature_map_surjective",
    "flat_torsion_generators",
    "flat_torus_family",
    "dimension_bookkeeping",
    "rational_rank_agreement",
    "curvature_class_agreement",
    "flat_subgroup_structure",
]


@pytest.mark.parametrize(
    "build", [circle(4), sphere(2), moebius_kuehnel_torus(), rp2()],
    ids=["circle", "s2", "t2", "rp2"],
)
def test_verify_sequences_all_degrees(build):
    K = build
    rng = random.Random(7)
    for k in range(-1, K.dimension + 1):
        report = verify_sequences(K, k, rng=rng, trials=3)
        assert [c.name for c in report.checks] == EXPECTED_CHECKS
        assert report.ok, [
            (c.name, c.detail) for c in report.checks if not c.ok
        ]


def test_verify_sequences_rp3_torsion_degree():
    report = verify_sequences(rp3(), 1, rng=random.Random(3), trials=2)
    assert report.ok, [(c.name, c.detail) for c in report.checks if not c.ok]
    names = {c.name: c for c in report.checks}
    assert names["flat_torsion_generators"].detail == "1 generators"


def test_flat_subgroup_check_is_independent(monkeypatch):
    # rp2 in degree 1: H^1(S^1) = Z_2 = tor H_1, predicted from homology
    K = rp2()
    report = verify_sequences(K, 1, rng=random.Random(1), trials=1)
    check = {c.name: c for c in report.checks}["flat_subgroup_structure"]
    assert check.ok and check.detail == "Z_2 == Z_2"

    def wrong(K, k):
        return CircleGroupStructure(1, ())

    monkeypatch.setattr(characters, "circle_cohomology_structure", wrong)
    report = verify_sequences(K, 1, rng=random.Random(1), trials=1)
    check = {c.name: c for c in report.checks}["flat_subgroup_structure"]
    assert not check.ok and check.detail == "S1 == Z_2"


def test_verify_sequences_reports_frozen():
    # every check's (name, ok, detail) in every degree, and the next draw
    # of the shared rng: a reordered, added or dropped draw moves
    # "next_random"
    frozen = json.loads(FROZEN_REPORTS.read_text())
    for space, want in frozen.items():
        K = build_space(space)
        rng = random.Random(11)
        got = {
            str(k): [
                [c.name, c.ok, c.detail]
                for c in verify_sequences(K, k, rng=rng, trials=3).checks
            ]
            for k in range(-1, K.dimension + 1)
        }
        assert got == want["reports"], space
        assert rng.random() == want["next_random"], space


def _first_row_axpy_off_by_one_in_degree_1(K, k):
    # the Smith form of delta_1 with one logged row operation wrong: same
    # rank, so only the certificate of check 7 can see it
    snf = coboundary_smith_form(K, k)
    return plant_coefficient(snf, "row_ops", 0) if k == 1 else snf


class _PreimagesOffByHalf:
    """A lattice quotient whose preimages have 1/2 added to every entry."""

    def __init__(self, Q):
        self._Q = Q

    def __getattr__(self, name):
        return getattr(self._Q, name)

    def preimage(self, v):
        x = self._Q.preimage(v)
        return x.combine(ScaledVector(2, [1] * len(x.nums)), 1)


# Each check reports its own counterexample when one of its collaborators
# is wrong (a collaborator that other checks share fails those too).
# Check 9 is also covered, from its other side, by
# test_flat_subgroup_check_is_independent.
FAILURES = [
    ("class_map_surjective", "torus", "d2_class",
     lambda K, s: ((7,), ()), "class mismatch ((7,), ()) != ((1,), ())"),
    ("exact_charge_flattens", "torus", "integer_cohomology",
     lambda K, k: _PreimagesOffByHalf(integer_cohomology(K, k)),
     "no integral primitive for exact charge"),
    ("curvature_map_surjective", "torus", "curvature",
     lambda K, s: curvature(K, s).scale(2), "curvature does not reproduce target"),
    ("flat_torsion_generators", "rp2", "flat_spark_from_torsion",
     lambda K, d, g, w: Spark(K.zero_cochain(1), K.zero_cochain(2)),
     "torsion spark trivial"),
    ("flat_torus_family", "torus", "spark_equivalent",
     lambda K, s, t: True, "fractional torus spark trivial"),
    ("dimension_bookkeeping", "torus", "delta_rank",
     lambda K, k: 0, "21 == 0 + 2 + 0"),
    ("rational_rank_agreement", "torus", "coboundary_smith_form",
     _first_row_axpy_off_by_one_in_degree_1, "delta_1: U delta != D V^-1"),
    ("curvature_class_agreement", "torus", "spark_from_cocycle",
     lambda K, R: spark_from_cocycle(K, R.scale(2)), "(2,) != (1,)"),
    ("flat_subgroup_structure", "rp2", "homology_structure",
     lambda K, k: AbelianGroupStructure(0, (3,)), "Z_2 == Z_3"),
]


def test_a_wrong_rank_fails_the_bookkeeping_alone(monkeypatch):
    # checks 7 and 9 read no coboundary rank: check 7 certifies the Smith
    # forms and check 9 reads b_k from integral homology, so neither
    # restates check 6
    K = build_space("torus")
    monkeypatch.setattr(characters, "delta_rank", lambda K, k: 0)
    report = verify_sequences(K, 1, rng=random.Random(1), trials=1)
    assert [c.name for c in report.checks if not c.ok] == ["dimension_bookkeeping"]
    checks = {c.name: c.detail for c in report.checks}
    assert checks["rational_rank_agreement"] == "delta_0 and delta_1 certified"
    assert checks["flat_subgroup_structure"] == "(S1)^2 == (S1)^2"


@pytest.mark.parametrize(
    "check, space, attr, fake, detail", FAILURES, ids=[f[0] for f in FAILURES]
)
def test_each_check_reports_its_failure(monkeypatch, check, space, attr, fake, detail):
    K = build_space(space)
    monkeypatch.setattr(characters, attr, fake)
    report = verify_sequences(K, 1, rng=random.Random(1), trials=1)
    got = {c.name: c for c in report.checks}[check]
    assert (got.ok, got.detail) == (False, detail)
    assert [c.name for c in report.checks] == EXPECTED_CHECKS


@pytest.mark.parametrize("space", ["rp2", "cp2"])
def test_one_witness_spark_per_generator(monkeypatch, space):
    # checks 1 and 8 read one witness per generator of H^{k+1}, free and
    # torsion (rp2 has a torsion class in degree 2)
    calls = []

    def counted(K, R):
        calls.append(R.degree)
        return spark_from_cocycle(K, R)

    monkeypatch.setattr(characters, "spark_from_cocycle", counted)
    K = build_space(space)
    rng = random.Random(2)
    for k in range(-1, K.dimension + 1):
        del calls[:]
        assert verify_sequences(K, k, rng=rng, trials=1).ok
        free, torsion = (
            cohomology_generators(K, k + 1) if k < K.dimension else ([], [])
        )
        assert calls == [k + 1] * (len(free) + len(torsion)), k
