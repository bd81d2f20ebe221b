"""Character-group structure, duality predictions, sequence checks."""

import random

import pytest

from diffchar.builders import (
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
    cohomology_structures,
)

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
