"""Integer cohomology: structures, generators, witnesses, duality."""

import pytest

from diffchar.builders import (
    build_space,
    circle,
    cp2,
    lens_space,
    moebius_kuehnel_torus,
    point,
    rp2,
    rp3,
    sphere,
    surface_of_genus,
    torus_grid,
)
from diffchar.cohomology import (
    AbelianGroupStructure,
    CircleGroupStructure,
    LatticeQuotient,
    betti_below,
    boundary_smith_form,
    circle_cohomology_structure,
    cohomology_generators,
    cohomology_structure,
    cohomology_structures,
    cycle_lattice_basis,
    cycle_lattice_rows,
    delta_rank,
    homology_structure,
    integer_cohomology,
    integer_homology,
    kunneth_structure,
    poincare_dual,
)
from diffchar.complexes import Chain
from diffchar.exact import ScaledVector, rows_to_dense, smith_normal_form, transpose_rows
from oracles import rat_rank


def fmt(K):
    return [cohomology_structure(K, k).format() for k in range(K.dimension + 1)]


class TestStructures:
    def test_point(self):
        assert fmt(point()) == ["Z"]

    def test_spheres(self):
        assert fmt(sphere(1)) == ["Z", "Z"]
        assert fmt(sphere(2)) == ["Z", "0", "Z"]
        assert fmt(sphere(3)) == ["Z", "0", "0", "Z"]

    def test_torus_both_models(self):
        expected = ["Z", "Z^2", "Z"]
        assert fmt(moebius_kuehnel_torus()) == expected
        assert fmt(torus_grid(3)) == expected

    def test_genus_two(self):
        assert fmt(surface_of_genus(2)) == ["Z", "Z^4", "Z"]

    def test_rp2(self):
        assert fmt(rp2()) == ["Z", "0", "Z_2"]

    def test_rp3(self):
        assert fmt(rp3()) == ["Z", "0", "Z_2", "Z"]

    def test_lens_3_1(self):
        assert fmt(lens_space(3, 1)) == ["Z", "0", "Z_3", "Z"]

    def test_cp2(self):
        assert fmt(cp2()) == ["Z", "0", "Z", "0", "Z"]

    def test_out_of_range_trivial(self):
        K = sphere(2)
        assert cohomology_structure(K, -1).is_trivial()
        assert cohomology_structure(K, 3).is_trivial()

    def test_homology_shifts_torsion_down(self):
        # universal coefficients: tor H^{k+1} == tor H_k
        K = rp3()
        assert homology_structure(K, 1).torsion == (2,)
        assert cohomology_structure(K, 2).torsion == (2,)
        assert homology_structure(K, 2).torsion == ()

    def test_betti_numbers(self):
        for K, betti in ((cp2(), (1, 0, 1, 0, 1)), (surface_of_genus(3), (1, 6, 1))):
            ranks = tuple(cohomology_structure(K, k).free_rank for k in range(K.dimension + 1))
            assert ranks == betti


class TestGenerators:
    def test_free_generators_are_cocycles(self):
        K = moebius_kuehnel_torus()
        free, tor = cohomology_generators(K, 1)
        assert len(free) == 2 and not tor
        for g in free:
            assert K.delta(g).is_zero()
            assert g.is_integral()

    def test_each_call_returns_new_lists(self):
        # the cochains are cached on K, the lists are the caller's to change
        K = rp3()
        for k in range(K.dimension + 1):
            free, tor = cohomology_generators(K, k)
            want = (list(free), list(tor))
            assert want == cohomology_generators(rp3(), k)
            free.clear()
            tor.append((2, K.zero_cochain(k), K.zero_cochain(max(k - 1, 0))))
            again = cohomology_generators(K, k)
            assert again == want
            assert again[0] is not free and again[1] is not tor

    def test_torsion_witness_identity(self):
        for K, k, order in ((rp3(), 2, 2), (lens_space(3, 1), 2, 3), (rp2(), 2, 2)):
            free, tor = cohomology_generators(K, k)
            assert [d for d, _, _ in tor] == [order]
            d, g, w = tor[0]
            assert K.delta(g).is_zero()
            assert K.delta(w) == g.scale(d)

    def test_torsion_generator_not_exact(self):
        K = rp3()
        Q = integer_cohomology(K, 2)
        _, tor = cohomology_generators(K, 2)
        _, g, _ = tor[0]
        assert Q.coords(g.form) == ((), (1,))
        assert Q.coords(g.scale(2).form) == ((), (0,))

    def test_class_coords_linear(self):
        K = moebius_kuehnel_torus()
        Q = integer_cohomology(K, 1)
        (u1, u2), _ = cohomology_generators(K, 1)
        combo = u1.scale(3) - u2.scale(5)
        free, tor = Q.coords(combo.form)
        assert tor == ()
        # generator coordinate vectors are (1,0) and (0,1)
        c1 = Q.coords(u1.form)[0]
        c2 = Q.coords(u2.form)[0]
        got = tuple(3 * a - 5 * b for a, b in zip(c1, c2))
        assert free == got

    def test_coboundary_preimage(self):
        K = sphere(2)
        u = K.delta(K.cochain(0, (3, -1, 4, 1)))
        Q = integer_cohomology(K, 1)
        x = Q.preimage(u.form)
        assert x is not None
        assert K.delta(K.cochain(0, x.entries())) == u

    def test_non_kernel_vector_rejected(self):
        K = sphere(2)
        Q = integer_cohomology(K, 1)
        bad = [0] * K.n_simplices(1)
        bad[0] = 1  # an elementary cochain is not a cocycle on S^2
        with pytest.raises(ValueError, match="kernel"):
            Q.coords(ScaledVector(1, bad))


class TestCycleLattice:
    def test_circle_cycle_lattice(self):
        K = circle(4)
        basis = cycle_lattice_basis(K, 1)
        assert len(basis) == 1
        z = Chain(1, tuple(basis[0]))
        assert K.boundary(z).is_zero()
        assert all(abs(c) == 1 for c in basis[0])

    def test_rank_matches_homology(self):
        K = moebius_kuehnel_torus()
        basis = cycle_lattice_basis(K, 1)
        # dim of cycle space = n_1 - rank(boundary_1) = 21 - 6 = 15
        assert len(basis) == 15

    @pytest.mark.parametrize(
        "name", ["rp3", "cp2", "lens:5,2", "torus_grid5", "genus2", "rp2", "torus"]
    )
    def test_two_eliminations_give_one_cycle_lattice(self, name):
        # the cycle rows of the Smith form of delta_{k-1} and the kernel
        # columns of the Smith form of boundary_k, a second elimination,
        # span one lattice: each basis is integral in the other
        K = build_space(name)
        for k in range(K.dimension + 1):
            n_k = K.n_simplices(k)
            snf = integer_homology(K, k).snfA
            bases = [cycle_lattice_rows(K, k), snf.VT_rows[snf.rank:]]
            rank = rat_rank(K.boundary_rows(k), n_k)
            for rows in bases:
                assert len(rows) == n_k - rank
                for z in rows_to_dense(rows, n_k):
                    assert K.boundary(K.chain(k, z)).is_zero()
            for rows, other in (bases, bases[::-1]):
                columns = transpose_rows(other, n_k)
                in_other = smith_normal_form(columns, nrows=n_k, ncols=len(other))
                for z in rows_to_dense(rows, n_k):
                    c = in_other.solve(ScaledVector(1, z))
                    assert c is not None and all(isinstance(x, int) for x in c.entries())


@pytest.mark.parametrize(
    "name", ["rp2", "rp3", "cp2", "genus2", "torus_grid5", "lens:5,2"]
)
def test_betti_below_from_ranks_in_hand(name):
    # b_{k-1} = n_{k-1} - rank delta_{k-1} - rank delta_{k-2}, with rank
    # delta_{k-1} read off H^k's relation matrix, against the free rank
    # of H^{k-1} and against rational ranks, which no Smith form gives
    K = build_space(name)

    def rational_rank(j):
        return rat_rank(K.delta_rows(j), K.n_simplices(j)) if j >= 0 else 0

    for k in range(1, K.dimension):
        n = K.n_simplices(k - 1)
        b = n - integer_cohomology(K, k).snfW.rank - delta_rank(K, k - 2)
        assert betti_below(K, k) == b
        assert b == cohomology_structure(K, k - 1).free_rank
        assert b == n - rational_rank(k - 1) - rational_rank(k - 2)


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("name", ["circle5", "rp2", "cp2", "genus2", "lens:5,2"])
def test_h0_relations_share_h1_smith_form(name, first):
    # boundary_0 has no rows, so H_0's relation matrix is boundary_1: its
    # Smith form is formed once, whichever group comes first, and equals
    # (op logs included) the one LatticeQuotient forms from the relations
    K = build_space(name)
    integer_homology(K, first)
    H0, H1 = integer_homology(K, 0), integer_homology(K, 1)
    assert H0.snfW is H1.snfA is boundary_smith_form(K, 1)
    n0, n1 = K.n_simplices(0), K.n_simplices(1)
    assert H0.snfW == LatticeQuotient(K.boundary_rows(0), n0, K.boundary_rows(1), n1).snfW
    assert H1.snfA == smith_normal_form(K.boundary_rows(1), nrows=n0, ncols=n1)


def test_h0_of_a_point_forms_its_own_relations():
    K = point()
    assert integer_homology(K, 0).structure() == AbelianGroupStructure(1, ())
    assert integer_homology(K, 0).snfW.ncols == 0


class TestCircleCoefficients:
    def test_torus(self):
        s = circle_cohomology_structure(moebius_kuehnel_torus(), 1)
        assert s == CircleGroupStructure(2, ())
        assert s.format() == "(S1)^2"

    def test_rp3_degree_one_is_discrete(self):
        s = circle_cohomology_structure(rp3(), 1)
        assert s == CircleGroupStructure(0, (2,))

    def test_rp2_top(self):
        s = circle_cohomology_structure(rp2(), 2)
        # H^2(RP2; S1): b_2 = 0 over Q and no degree-3 torsion
        assert s == CircleGroupStructure(0, ())


class TestKunneth:
    def test_torus_from_circles(self):
        HS1 = {0: AbelianGroupStructure(1), 1: AbelianGroupStructure(1)}
        got = [kunneth_structure(HS1, HS1, k).format() for k in range(3)]
        assert got == ["Z", "Z^2", "Z"]

    def test_rp3_squared(self):
        R = cohomology_structures(rp3())
        got = [kunneth_structure(R, R, k).format() for k in range(7)]
        assert got == ["Z", "0", "Z_2 + Z_2", "Z^2 + Z_2", "Z_2", "Z_2 + Z_2", "Z"]

    def test_cp2_squared(self):
        C = cohomology_structures(cp2())
        got = [kunneth_structure(C, C, k).format() for k in range(9)]
        assert got == ["Z", "0", "Z^2", "0", "Z^3", "0", "Z^2", "0", "Z"]

    def test_torsion_tensor_rule(self):
        # Z_4 (x) Z_6 = Z_2 plus Tor contribution Z_2 one degree up
        A = {0: AbelianGroupStructure(1), 1: AbelianGroupStructure(0, (4,))}
        B = {0: AbelianGroupStructure(1), 1: AbelianGroupStructure(0, (6,))}
        assert kunneth_structure(A, B, 2).torsion == (2,)
        # degree 1: Z_4 and Z_6 tensor summands plus Tor(Z_4, Z_6) = Z_2
        assert kunneth_structure(A, B, 1).torsion == (2, 2, 12)

    def test_rp2_squared_against_the_built_product(self):
        # the Tor terms checked against a triangulated product
        R = cohomology_structures(rp2())
        P = build_space("product:rp2,rp2")
        got = [kunneth_structure(R, R, k) for k in range(5)]
        assert got == [cohomology_structure(P, k) for k in range(5)]
        assert [g.format() for g in got] == ["Z", "0", "Z_2 + Z_2", "Z_2", "Z_2"]


class TestDuality:
    def test_cp2_cup_square_unimodular(self):
        K = cp2()
        (g,), _ = cohomology_generators(K, 2)
        val = K.evaluate(K.cup(g, g), K.fundamental_cycle())
        assert val in (1, -1)

    def test_torus_cup_matrix_symplectic(self):
        K = moebius_kuehnel_torus()
        (u1, u2), _ = cohomology_generators(K, 1)
        fc = K.fundamental_cycle()
        m = [[K.evaluate(K.cup(a, b), fc) for b in (u1, u2)] for a in (u1, u2)]
        assert m[0][0] == 0 and m[1][1] == 0
        assert abs(m[0][1]) == 1 and m[1][0] == -m[0][1]

    def test_poincare_dual_torus_class(self):
        K = moebius_kuehnel_torus()
        (u1, u2), _ = cohomology_generators(K, 1)
        fc = K.fundamental_cycle()
        Q = integer_cohomology(K, 1)
        for u in (u1, u2):
            z = K.cap(fc, u)
            assert K.boundary(z).is_zero()
            dual = poincare_dual(K, z)
            assert dual is not None
            assert Q.coords((dual - u).form) == ((0, 0), ())

    def test_poincare_dual_rp3_torsion(self):
        K = rp3()
        d, zvec, _ = integer_homology(K, 1).torsion_generator_vectors()[0]
        assert d == 2
        u = poincare_dual(K, Chain(1, tuple(zvec)))
        assert u is not None
        Q = integer_cohomology(K, 2)
        assert Q.coords(u.form) == ((), (1,))

    def test_poincare_dual_sphere_point(self):
        K = sphere(2)
        pt = Chain(0, (1, 0, 0, 0))
        u = poincare_dual(K, pt)
        assert u is not None
        # the dual of a point caps back to a 0-cycle of total weight 1
        fc0 = K.cap(K.fundamental_cycle(), u)
        assert sum(fc0.values) == 1


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
