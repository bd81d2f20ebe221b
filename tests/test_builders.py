"""Fixture spaces: structural invariants, quotients, name parsing."""

from collections import Counter

import pytest

from diffchar.builders import (
    SimplexBudgetError,
    build_space,
    circle,
    cp2,
    lens_space,
    moebius_kuehnel_torus,
    point,
    product,
    rp2,
    rp3,
    simplex,
    sphere,
    surface_of_genus,
    torus_grid,
)
from diffchar.complexes import ComplexError


def cofacet_counts(K, k):
    counts = Counter()
    for simp in K.simplices[k + 1]:
        for drop in range(len(simp)):
            counts[simp[:drop] + simp[drop + 1:]] += 1
    return counts


def assert_closed_pseudomanifold(K):
    n = K.dimension
    counts = cofacet_counts(K, n - 1)
    assert set(counts) == set(K.simplices[n - 1])
    assert all(c == 2 for c in counts.values())


class TestElementary:
    def test_point(self):
        assert point().f_vector() == (1,)

    def test_simplex(self):
        assert simplex(3).f_vector() == (4, 6, 4, 1)
        assert simplex(3).euler_characteristic() == 1

    def test_circle(self):
        K = circle(5)
        assert K.f_vector() == (5, 5)
        assert K.euler_characteristic() == 0
        assert K.fundamental_cycle() is not None
        with pytest.raises(ComplexError):
            circle(2)

    def test_spheres(self):
        for n in (1, 2, 3):
            K = sphere(n)
            assert K.dimension == n
            assert K.euler_characteristic() == 1 + (-1) ** n
            assert K.fundamental_cycle() is not None
            assert_closed_pseudomanifold(K)


class TestSurfaces:
    def test_seven_vertex_torus(self):
        K = moebius_kuehnel_torus()
        assert K.f_vector() == (7, 21, 14)
        assert K.euler_characteristic() == 0
        assert K.fundamental_cycle() is not None
        assert_closed_pseudomanifold(K)

    def test_torus_grid(self):
        K = torus_grid(4)
        assert K.f_vector() == (16, 48, 32)
        assert K.euler_characteristic() == 0
        assert K.fundamental_cycle() is not None
        assert_closed_pseudomanifold(K)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_genus_surfaces(self, g):
        K = surface_of_genus(g)
        assert K.euler_characteristic() == 2 - 2 * g
        assert K.fundamental_cycle() is not None
        assert_closed_pseudomanifold(K)

    def test_rp2(self):
        K = rp2()
        assert K.f_vector() == (6, 15, 10)
        assert K.euler_characteristic() == 1
        assert K.fundamental_cycle() is None  # non-orientable
        assert_closed_pseudomanifold(K)


class TestThreeAndFour:
    def test_rp3_structure(self):
        K = rp3()
        assert K.f_vector() == (40, 232, 384, 192)
        assert K.euler_characteristic() == 0
        assert K.fundamental_cycle() is not None
        assert_closed_pseudomanifold(K)

    def test_lens_3_1(self):
        K = lens_space(3, 1)
        assert K.euler_characteristic() == 0
        assert K.fundamental_cycle() is not None
        assert_closed_pseudomanifold(K)

    def test_lens_rejects_bad_parameters(self):
        with pytest.raises(ComplexError):
            lens_space(4, 2)
        with pytest.raises(ComplexError):
            lens_space(1, 1)

    def test_cp2_structure(self):
        K = cp2()
        assert K.f_vector() == (9, 36, 84, 90, 36)
        # 3-neighborly: every pair and triple of vertices spans
        assert K.n_simplices(1) == 36
        assert K.n_simplices(2) == 84
        assert K.euler_characteristic() == 3
        assert K.fundamental_cycle() is not None
        assert_closed_pseudomanifold(K)


class TestProducts:
    def test_torus_as_product(self):
        K = product(circle(3), circle(3))
        assert K.f_vector() == (9, 27, 18)
        assert K.euler_characteristic() == 0
        assert_closed_pseudomanifold(K)

    def test_circle_times_sphere(self):
        K = product(circle(3), sphere(2))
        assert K.dimension == 3
        assert K.euler_characteristic() == 0
        assert K.fundamental_cycle() is not None
        assert_closed_pseudomanifold(K)

    def test_euler_multiplicativity(self):
        A, B = sphere(2), circle(4)
        K = product(A, B)
        assert (
            K.euler_characteristic()
            == A.euler_characteristic() * B.euler_characteristic()
        )

    def test_budget_guard(self):
        with pytest.raises(SimplexBudgetError):
            product(sphere(2), sphere(2), budget=10)


# every named family with a size, with its simplex count
NAMED_COUNTS = [
    ("sphere0", 2), ("sphere3", 30), ("sphere", 14),
    ("simplex0", 1), ("simplex4", 31), ("simplex", 7),
    ("circle3", 6), ("circle7", 14),
    ("torus_grid3", 54), ("torus_grid5", 150),
    ("genus1", 42), ("genus3", 110),
    ("lens:2,1", 848), ("lens:3,1", 1264), ("lens:5,2", 2096),
]


@pytest.mark.parametrize("name, count", NAMED_COUNTS, ids=[n for n, _ in NAMED_COUNTS])
def test_budget_bounds_every_named_space_by_its_simplex_count(name, count):
    # the closed form is the built count, and one simplex less is refused
    assert build_space(name, budget=count).total_simplices() == count
    with pytest.raises(SimplexBudgetError, match=f"budget is {count - 1}"):
        build_space(name, budget=count - 1)


@pytest.mark.parametrize("name", ["sphere40", "simplex60", "circle100000000",
                                  "torus_grid100000", "genus1000000", "lens:100000,1",
                                  "sphere" + "9" * 4000])
def test_oversized_named_spaces_refused_before_building(name):
    with pytest.raises(SimplexBudgetError, match="construction needs"):
        build_space(name)


def test_budget_none_builds_without_a_bound():
    assert build_space("sphere3", budget=None).total_simplices() == 30


class TestNames:
    @pytest.mark.parametrize(
        "name,dim",
        [
            ("point", 0),
            ("circle", 1),
            ("circle6", 1),
            ("sphere2", 2),
            ("sphere3", 3),
            ("torus", 2),
            ("torus_grid4", 2),
            ("genus2", 2),
            ("rp2", 2),
            ("rp3", 3),
            ("cp2", 4),
            ("lens:3,1", 3),
            ("product:circle,circle", 2),
            ("product:circle,product:circle,circle", 3),
        ],
    )
    def test_known_names(self, name, dim):
        assert build_space(name).dimension == dim

    def test_unknown_name(self):
        with pytest.raises(ComplexError):
            build_space("klein_bottle")

    def test_bad_lens_syntax(self):
        with pytest.raises(ComplexError):
            build_space("lens:3")


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
