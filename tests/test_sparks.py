"""Spark calculus: products, equivalence, holonomy, linking."""

import functools
import hashlib
import json
import random
from dataclasses import fields
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from diffchar.builders import (
    build_space,
    circle,
    lens_space,
    moebius_kuehnel_torus,
    rp2,
    rp3,
    sphere,
    surface_of_genus,
)
from diffchar import hodge, sparks
from diffchar.cli import canonical_json
from diffchar.cohomology import cohomology_generators, cycle_lattice_basis
from diffchar.complexes import (
    Chain,
    Cochain,
    ComplexError,
    SimplicialComplex,
    simplicial_chain_maps,
)
from diffchar.sparks import (
    Spark,
    SparkError,
    curvature,
    d2_class,
    duality_pair,
    flat_spark_from_torsion,
    holonomy,
    linking_number,
    pullback_spark,
    random_equivalent_shift,
    random_spark,
    spark_from_json,
    spark_to_json,
    star,
    torsion_linking_matrix,
    validate_spark,
)
from diffchar.exact import scaled_product
from diffchar.hodge import HodgeContext, spark_from_cocycle
from oracles import elementary_cochain, randint_entries, typed_by_value, varied_weights

F = Fraction
DATA = Path(__file__).parent / "data"


class TestBasics:
    def test_validate_catches_rational_R(self):
        K = sphere(2)
        s = Spark(K.zero_cochain(0), K.cochain(1, (Fraction(1, 2),) + (0,) * 5))
        with pytest.raises(SparkError, match="integral"):
            validate_spark(K, s)

    def test_validate_catches_non_cocycle(self):
        K = sphere(2)
        R = elementary_cochain(K, (0, 1))
        with pytest.raises(SparkError, match="cocycle"):
            validate_spark(K, Spark(K.zero_cochain(0), R))

    def test_validate_catches_impossible_degree(self):
        K = sphere(2)
        for k in (-4, 3, 7):
            empty = Spark(K.zero_cochain(k), K.zero_cochain(k + 1))
            with pytest.raises(SparkError, match=f"degree {k} outside -1..2"):
                validate_spark(K, empty)

    def test_random_spark_degree_range(self):
        K = moebius_kuehnel_torus()
        for k in (-1, K.dimension):
            validate_spark(K, random_spark(K, k, random.Random(k)))
        for k in (-2, K.dimension + 1):
            with pytest.raises(SparkError, match="degree"):
                random_spark(K, k, random.Random(0))

    def test_curvature_periods_integral(self):
        rng = random.Random(0)
        K = moebius_kuehnel_torus()
        for _ in range(20):
            s = random_spark(K, 1, rng)
            phi = curvature(K, s)
            assert K.delta(phi).is_zero()
            for z in cycle_lattice_basis(K, 2):
                period = sum(c * v for c, v in zip(phi.values, z))
                assert Fraction(period).denominator == 1

    def test_group_operations(self):
        rng = random.Random(1)
        K = sphere(2)
        s, t = random_spark(K, 1, rng), random_spark(K, 1, rng)
        assert (s + t) - t == s
        assert (-s).a == -s.a


class TestRandomCochain:
    """``random_cochain`` reads the bits that the ``randint`` loop reads."""

    def test_matches_the_randint_loop(self):
        # the values, the type of each entry and the generator state after
        complexes = {n: SimplicialComplex([], n_vertices=n) for n in (0, 1, 7, 40)}
        rng, ref = random.Random(), random.Random()
        for seed in range(200):
            start = random.Random(seed).getstate()
            for bound in (0, 1, 2, 3, 4, 5, 6, 12):
                for dmax in range(1, 7):
                    for n, K in complexes.items():
                        rng.setstate(start)
                        ref.setstate(start)
                        got = sparks.random_cochain(K, 0, rng, bound, dmax).values
                        want = randint_entries(ref, n, bound, dmax)
                        case = (seed, bound, dmax, n)
                        assert list(got) == want, case
                        assert list(map(type, got)) == list(map(type, want)), case
                        assert rng.getstate() == ref.getstate(), case

    def test_choice_of_four_draws_as_randint(self):
        # the Hodge cochains of verify drew their denominators by choice
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            got = [rng.choice((1, 2, 3, 4)) for _ in range(50)]
            assert got == [ref.randint(1, 4) for _ in range(50)], seed
            assert rng.getstate() == ref.getstate(), seed


class TestConstructors:
    def test_spark_from_cocycle_normal_equations(self):
        # the curvature is orthogonal to every coboundary
        K = moebius_kuehnel_torus()
        free, _ = cohomology_generators(K, 2)
        R = free[0]
        s = spark_from_cocycle(K, R)
        phi = curvature(K, s)
        D = K.delta_rows(1)
        for col in range(K.n_simplices(1)):
            val = sum(
                row.get(col, 0) * phi.values[i] for i, row in enumerate(D)
            )
            assert val == 0

    def test_spark_from_cocycle_frozen(self):
        # potentials frozen by hand: the normal-equations solve of the
        # earlier construction, and the canonical one; b_k = b_{k-1} = 0
        # on both spaces, so they present the same character
        K = sphere(2)
        R = cohomology_generators(K, 2)[0][0]
        assert R.values == (0, 0, 0, 1)
        old = Spark(K.cochain(1, (F(1, 4), F(1, 2), 0, 0, 0, F(-3, 4))), R)
        s = spark_from_cocycle(K, R)
        assert s.a.values == (F(1, 4), F(-1, 4), 0, F(-3, 4), 0, 0)
        assert curvature(K, s) == curvature(K, old)
        assert sparks.spark_equivalent(K, s, old)
        K = rp2()
        R = cohomology_generators(K, 2)[1][0][1]
        assert R.values == (0, 0, 0, 0, 0, 0, 1, 0, 0, 0)
        h = F(1, 2)
        old = Spark(K.cochain(1, (0, 0, 0, 0, 0, -h, -h, 0, 0, 0, 0, -h, h, 0, -h)), R)
        s = spark_from_cocycle(K, R)
        assert s.a.values == (0, -h, 0, -h, 0, -1, -h, -h, 0, h, 0, 0, 0, 0, 0)
        assert curvature(K, s) == curvature(K, old)
        assert sparks.spark_equivalent(K, s, old)

    def test_spark_from_cocycle_rp3_frozen(self):
        # rp3's Z_2 generator in degree 2: the spark of the earlier
        # normal-equations construction is stored as data (its sha256 was
        # fe0829df...); the canonical spark presents the same character,
        # and the sha256 of its canonical JSON is frozen
        K = rp3()
        free, tor = cohomology_generators(K, 2)
        assert free == [] and [m for m, _, _ in tor] == [2]
        text = (DATA / "rp3_z2_spark_parent.json").read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "fe0829df765e4ec3969c850545161c4018b4a142247404c1f260591dd44fdab8"
        )
        old = spark_from_json(K, json.loads(text))
        s = spark_from_cocycle(K, tor[0][1])
        assert old.R == s.R
        assert curvature(K, s) == curvature(K, old)
        assert sparks.spark_equivalent(K, s, old)
        text = canonical_json(spark_to_json(s))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bb74331c86c223341a1d5095035ecf96d66763f494f306aabcd36e4e050410e7"
        )

    def test_spark_from_cocycle_reuses_factorization(self, monkeypatch):
        K = moebius_kuehnel_torus()
        g1, g2 = cohomology_generators(K, 1)[0]
        s1 = spark_from_cocycle(K, g1)
        cached = K._cache[("normal", 0)]

        def no_elimination(*args, **kwargs):
            raise AssertionError("normal matrix eliminated again")

        monkeypatch.setattr(hodge, "SymmetricSolver", no_elimination)
        assert spark_from_cocycle(K, g1) == s1
        spark_from_cocycle(K, g2)
        assert K._cache[("normal", 0)] is cached

    @pytest.mark.parametrize("name", ["torus", "genus2"])
    def test_spark_curvature_is_harmonic_projection(self, name):
        K = build_space(name)
        ctx = HodgeContext(K)
        for k in range(K.dimension + 1):
            for g in cohomology_generators(K, k)[0]:
                phi = curvature(K, spark_from_cocycle(K, g))
                assert phi == ctx.harmonic_projection(g)

    def test_spark_from_cocycle_deterministic(self):
        K = sphere(2)
        R = K.delta(K.cochain(1, tuple(range(6))))
        assert spark_from_cocycle(K, R) == spark_from_cocycle(K, R)

    def test_spark_from_cocycle_rejects_non_cocycle(self):
        K = sphere(2)
        with pytest.raises(SparkError):
            spark_from_cocycle(K, elementary_cochain(K, (0, 1)))

    def test_flat_spark_is_flat(self):
        K = rp3()
        _, tor = cohomology_generators(K, 2)
        d, g, w = tor[0]
        s = flat_spark_from_torsion(K, d, g, w)
        assert curvature(K, s).is_zero()
        free, torsion = d2_class(K, s)
        assert not any(free)
        assert torsion == (1,)  # -1 == +1 mod 2

    def test_flat_spark_full_order_is_trivial(self):
        from diffchar.sparks import spark_equivalent

        K = rp3()
        _, tor = cohomology_generators(K, 2)
        d, g, w = tor[0]
        s = flat_spark_from_torsion(K, d, g, w)
        s = Spark(s.a.scale(d), s.R.scale(d))
        zero = Spark(K.zero_cochain(1), K.zero_cochain(2))
        assert spark_equivalent(K, s, zero)


@functools.lru_cache(maxsize=None)
def _shared(name):
    """One complex per name for the canonicality tests, so the normal
    factorizations they need are made once."""
    return build_space(name)


def _generators(K, k):
    free, tor = cohomology_generators(K, k)
    return free + [g for _, g, _ in tor]


def _relabelled(K, seed=3):
    """K with its vertices permuted: (L, vertex map K -> L)."""
    perm = list(range(K.n_vertices))
    random.Random(seed).shuffle(perm)
    L = SimplicialComplex(
        [[perm[v] for v in t] for k in K.simplices for t in K.simplices[k]]
    )
    return L, perm


class TestCanonical:
    """Generators get their harmonic spark; characters follow the class."""

    @pytest.mark.parametrize(
        "name", ["torus", "genus2", "rp2", "rp3", "cp2", "torus_grid5"]
    )
    def test_spark_from_cocycle_is_hodge_spark_class(self, name):
        K = _shared(name)
        ctx = HodgeContext(K)
        for k in range(K.dimension + 1):
            for g in _generators(K, k):
                s, h = spark_from_cocycle(K, g), ctx.hodge_spark(g)
                assert curvature(K, s) == curvature(K, h)
                assert sparks.spark_equivalent(K, s, h)

    @pytest.mark.parametrize("name", ["torus", "genus2", "rp3"])
    def test_relabelling_keeps_the_hodge_spark(self, name):
        # build on the relabelled complex, pull back, and compare with the
        # spark built on K from the pulled-back charge
        K = _shared(name)
        L, perm = _relabelled(K)
        ctx_K, ctx_L = HodgeContext(K), HodgeContext(L)
        for k in range(K.dimension + 1):
            for g in _generators(L, k):
                pulled = pullback_spark(K, L, perm, ctx_L.hodge_spark(g))
                assert sparks.spark_equivalent(K, ctx_K.hodge_spark(pulled.R), pulled)

    @pytest.mark.parametrize("name", ["torus", "genus2", "rp3"])
    def test_relabelling_keeps_spark_from_cocycle_class(self, name):
        # the pulled-back charge is no generator of K: curvature and class
        # agree, and the characters agree wherever b_{k-1} = 0
        K = _shared(name)
        L, perm = _relabelled(K)
        for k in range(K.dimension + 1):
            for g in _generators(L, k):
                pulled = pullback_spark(K, L, perm, spark_from_cocycle(L, g))
                s = spark_from_cocycle(K, pulled.R)
                assert curvature(K, s) == curvature(K, pulled)
                assert d2_class(K, s) == d2_class(K, pulled)
                if not HodgeContext(K).harmonic_basis(k - 1):
                    assert sparks.spark_equivalent(K, s, pulled)

    @pytest.mark.parametrize("name", ["torus", "rp3"])
    def test_cohomologous_cocycles_give_one_character(self, name):
        K = _shared(name)
        rng = random.Random(4)
        for k in range(1, K.dimension + 1):
            n = K.n_simplices(k - 1)
            S = K.cochain(k - 1, [rng.randint(-2, 2) for _ in range(n)])
            for g in _generators(K, k):
                moved = spark_from_cocycle(K, g + K.delta(S))
                assert sparks.spark_equivalent(K, moved, spark_from_cocycle(K, g))

    def test_hodge_spark_moves_by_the_flat_spark_of_the_shift(self):
        # torus top generator R and integral S: hodge_spark(R + delta S) is
        # hodge_spark(R) plus the flat spark (H_1 S, 0), which is not
        # trivial here, so the two harmonic sparks differ
        K = _shared("torus")
        ctx = HodgeContext(K)
        R = _generators(K, 2)[0]
        rng = random.Random(0)
        S = K.cochain(1, [rng.randint(-2, 2) for _ in range(K.n_simplices(1))])
        flat = Spark(ctx.harmonic_projection(S), K.zero_cochain(2))
        zero = Spark(K.zero_cochain(1), K.zero_cochain(2))
        assert not sparks.spark_equivalent(K, flat, zero)
        s, moved = ctx.hodge_spark(R), ctx.hodge_spark(R + K.delta(S))
        assert sparks.spark_equivalent(K, moved, s + flat)
        assert not sparks.spark_equivalent(K, moved, s)
        assert sparks.spark_equivalent(K, spark_from_cocycle(K, R + K.delta(S)), s)

    def test_weighted_hodge_spark_is_harmonic(self):
        K = _shared("torus")
        ctx = HodgeContext(K, weights=varied_weights(K, random.Random(5)))
        for k in range(K.dimension + 1):
            for g in _generators(K, k):
                s = ctx.hodge_spark(g)
                assert curvature(K, s) == ctx.harmonic_projection(g)
                assert ctx.harmonic_projection(s.a).is_zero()
                assert sparks.spark_equivalent(
                    K, s, Spark(ctx.harmonic_potential(g), g)
                )

    def test_torsion_charge_factors_no_normal_matrix(self):
        # b_1 = b_2 = 0 on rp3: the Z_2 charge needs only the Smith forms
        K = rp3()
        _, tor = cohomology_generators(K, 2)
        spark_from_cocycle(K, tor[0][1])
        assert ("normal", 1) not in K._cache
        assert not [key for key in K._cache if key[0] == "normal"]


class TestTypedByValue:
    """Every vector the library computes has an int entry exactly where
    the value is integral, whatever the pivot order, gauge or terms."""

    @pytest.mark.parametrize("name", ["cp2", "rp3", "torus_grid5", "lens:5,2"])
    def test_computed_vectors_are_typed_by_value(self, name):
        K = _shared(name)
        n = K.dimension
        rng = random.Random(f"typed {name}")
        contexts = [HodgeContext(K), HodgeContext(K, varied_weights(K, rng))]
        vectors = []
        for k in range(1, n + 1):
            for g in _generators(K, k):
                vectors += _parts(spark_from_cocycle(K, g))
                for ctx in contexts:
                    vectors += _parts(ctx.hodge_spark(g))
        for k in range(n + 1):
            u = K.cochain(k, [F(rng.randint(-6, 6), rng.randint(1, 4))
                              for _ in range(K.n_simplices(k))])
            for ctx in contexts:
                vectors += _parts(ctx.decompose(u))
                vectors += ctx.harmonic_basis(k)
            vectors += _parts(HodgeContext(K, method="cg").decompose(u))
            vectors.append(K.cap(K.fundamental_cycle(), u))
        for k in range(-1, n + 1):
            s = random_spark(K, k, rng)
            vectors += _parts(s) + _parts(random_equivalent_shift(K, s, rng))
            vectors += _parts(star(K, s, random_spark(K, n - 1 - k, rng)))
        assert all(typed_by_value(v.values) for v in vectors)
        # both types occur, so the rule is not met by accident
        entries = [x for v in vectors for x in v.values]
        assert any(type(x) is Fraction for x in entries)
        assert sum(type(x) is int for x in entries) > 100


def _parts(x):
    """The fields of a spark or decomposition: its chains and cochains."""
    return tuple(getattr(x, f.name) for f in fields(x))


class TestEquivalence:
    def test_random_shifts_equivalent(self):
        from diffchar.sparks import spark_equivalent

        rng = random.Random(2)
        for K, k in ((sphere(2), 0), (moebius_kuehnel_torus(), 1), (rp3(), 1)):
            for _ in range(15):
                s = random_spark(K, k, rng)
                assert spark_equivalent(K, s, random_equivalent_shift(K, s, rng))

    def test_distinct_classes_not_equivalent(self):
        from diffchar.sparks import spark_equivalent

        K = rp3()
        _, tor = cohomology_generators(K, 2)
        d, g, w = tor[0]
        flat = flat_spark_from_torsion(K, d, g, w)
        zero = Spark(K.zero_cochain(1), K.zero_cochain(2))
        assert not spark_equivalent(K, flat, zero)

    def test_curvature_mismatch_not_equivalent(self):
        from diffchar.sparks import spark_equivalent

        K = sphere(2)
        rng = random.Random(3)
        s = random_spark(K, 1, rng)
        bumped = Spark(s.a + K.cochain(1, (Fraction(1, 7),) + (0,) * 5), s.R)
        assert not spark_equivalent(K, s, bumped)

    def test_fractional_period_shift_not_equivalent(self):
        from diffchar.sparks import spark_equivalent

        K = moebius_kuehnel_torus()
        free, _ = cohomology_generators(K, 1)
        u = free[0]
        s = Spark(K.zero_cochain(1), K.zero_cochain(2))
        t = Spark(u.scale(Fraction(1, 3)), K.zero_cochain(2))
        # same curvature (both flat), same R, but periods differ by 1/3
        assert not spark_equivalent(K, s, t)

    def test_curvature_difference_with_integer_periods_not_equivalent(self):
        from diffchar.sparks import periods, spark_equivalent

        # an integral non-cocycle moves the curvature but no period off Z
        K = moebius_kuehnel_torus()
        s = random_spark(K, 1, random.Random(6))
        bump = K.cochain(1, (1,) + (0,) * (K.n_simplices(1) - 1))
        t = Spark(s.a + bump, s.R)
        assert d2_class(K, s) == d2_class(K, t)
        assert all(p.denominator == 1 for p in map(Fraction, periods(K, bump).entries()))
        assert not spark_equivalent(K, s, t)

    @pytest.mark.parametrize("name", ["torus", "rp2", "cp2"])
    def test_verdict_matches_curvature_comparison(self, name):
        from diffchar.sparks import spark_equivalent

        def compared_curvatures(K, s1, s2):
            # both curvatures, then a dense period per lattice cycle
            if s1.degree != s2.degree:
                return False
            if curvature(K, s1) != curvature(K, s2) or d2_class(K, s1) != d2_class(K, s2):
                return False
            diff = s1.a - s2.a
            return all(
                Fraction(sum(c * v for c, v in zip(diff.values, z) if v)).denominator == 1
                for z in cycle_lattice_basis(K, s1.degree)
            )

        K = _shared(name)
        rng = random.Random(7)
        verdicts = []
        for i in range(50):
            k = rng.randrange(-1, K.dimension + 1)
            s = random_spark(K, k, rng)
            t = random_equivalent_shift(K, s, rng)
            kind = i % 4
            if kind == 1 and K.n_simplices(k):
                t = Spark(t.a + _bump(K, k, rng), t.R)
            elif kind == 2:
                free, _ = cohomology_generators(K, k) if k >= 0 else ([], [])
                if free:
                    t = Spark(t.a + free[0].scale(Fraction(1, rng.randint(2, 5))), t.R)
            elif kind == 3:
                t = random_spark(K, k, rng)
            got = spark_equivalent(K, s, t)
            assert got == compared_curvatures(K, s, t)
            verdicts.append(got)
        assert True in verdicts and False in verdicts


def _bump(K, k, rng):
    """A k-cochain with one rational entry."""
    n = K.n_simplices(k)
    j = rng.randrange(n)
    return K.cochain(k, tuple(Fraction(1, 3) if i == j else 0 for i in range(n)))


class TestPeriods:
    @pytest.mark.parametrize("name", ["torus", "genus2", "rp3", "cp2"])
    def test_periods_are_evaluations_on_the_cycle_basis(self, name):
        from diffchar.sparks import periods

        K = _shared(name)
        rng = random.Random(11)
        for k in range(K.dimension + 1):
            n = K.n_simplices(k)
            # mixed int and nonzero Fraction values, zeros as int 0
            values = tuple(
                rng.choice((0, rng.randint(1, 3), F(rng.randint(1, 7), rng.randint(2, 9))))
                for _ in range(n)
            )
            u = K.cochain(k, values)
            want = [K.evaluate(u, K.chain(k, z)) for z in cycle_lattice_basis(K, k)]
            got = periods(K, u).entries()
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert type(a) is type(b) and a == b
            # a Fraction(0) entry is a Fraction term for evaluate but skipped
            # by the sparse product; the values agree either way
            fracs = K.cochain(k, tuple(Fraction(v) for v in values))
            assert periods(K, fracs).entries() == [
                K.evaluate(fracs, K.chain(k, z)) for z in cycle_lattice_basis(K, k)
            ]


class TestHolonomy:
    def test_invariance_under_shifts(self):
        rng = random.Random(4)
        K = surface_of_genus(2)
        cycles = [Chain(1, tuple(z)) for z in cycle_lattice_basis(K, 1)[:5]]
        for _ in range(10):
            s = random_spark(K, 1, rng)
            s2 = random_equivalent_shift(K, s, rng)
            for z in cycles:
                assert holonomy(K, s, z) == holonomy(K, s2, z)

    def test_range_and_additivity(self):
        rng = random.Random(5)
        K = moebius_kuehnel_torus()
        z = Chain(1, tuple(cycle_lattice_basis(K, 1)[0]))
        s, t = random_spark(K, 1, rng), random_spark(K, 1, rng)
        hs, ht = holonomy(K, s, z), holonomy(K, t, z)
        assert 0 <= hs < 1
        assert holonomy(K, s + t, z) == (hs + ht) % 1

    def test_rejects_non_cycle(self):
        K = sphere(2)
        s = Spark(K.zero_cochain(1), K.zero_cochain(2))
        nz = Chain(1, (1,) + (0,) * 5)
        with pytest.raises(SparkError, match="cycle"):
            holonomy(K, s, nz)


def star_alternate(K, s1, s2):
    """The other distribution of the star product, an oracle for star().

    a~ = a_1 cup R_2 + (-1)^{k+1} phi_1 cup a_2, same R component.
    Differs from star() by the coboundary of (-1)^k a_1 cup a_2, so the
    two results are equivalent sparks.
    """
    k = s1.degree
    phi1 = curvature(K, s1)
    a_alt = K.cup(s1.a, s2.R) + K.cup(phi1, s2.a).scale((-1) ** (k + 1))
    return Spark(a_alt, K.cup(s1.R, s2.R))


class TestStar:
    @pytest.mark.parametrize(
        "space,kpairs",
        [
            (sphere(2), [(0, 0), (0, 1), (1, 0)]),
            (moebius_kuehnel_torus(), [(0, 0), (0, 1), (1, 1)]),
            (sphere(3), [(1, 1), (0, 2)]),
        ],
    )
    def test_leibniz_identity(self, space, kpairs):
        rng = random.Random(6)
        K = space
        for k1, k2 in kpairs:
            for _ in range(15):
                s1, s2 = random_spark(K, k1, rng), random_spark(K, k2, rng)
                st = star(K, s1, s2)
                lhs = K.delta(st.a)
                rhs = K.cup(curvature(K, s1), curvature(K, s2)) - K.cup(
                    s1.R, s2.R
                )
                assert lhs == rhs

    def test_star_curvature_multiplicative(self):
        rng = random.Random(7)
        K = sphere(3)
        s1, s2 = random_spark(K, 1, rng), random_spark(K, 0, rng)
        st = star(K, s1, s2)
        assert curvature(K, st) == K.cup(curvature(K, s1), curvature(K, s2))

    def test_star_alternate_equivalent(self):
        from diffchar.sparks import spark_equivalent

        rng = random.Random(8)
        K = moebius_kuehnel_torus()
        for k1, k2 in ((0, 0), (0, 1)):
            for _ in range(10):
                s1, s2 = random_spark(K, k1, rng), random_spark(K, k2, rng)
                assert spark_equivalent(
                    K, star(K, s1, s2), star_alternate(K, s1, s2)
                )

    def test_star_well_defined_both_slots(self):
        from diffchar.sparks import spark_equivalent

        rng = random.Random(9)
        K = moebius_kuehnel_torus()
        for _ in range(10):
            s1, s2 = random_spark(K, 0, rng), random_spark(K, 1, rng)
            st = star(K, s1, s2)
            assert spark_equivalent(
                K, st, star(K, random_equivalent_shift(K, s1, rng), s2)
            )
            assert spark_equivalent(
                K, st, star(K, s1, random_equivalent_shift(K, s2, rng))
            )

    def test_integer_unit_action(self):
        rng = random.Random(10)
        K = sphere(2)
        s = random_spark(K, 1, rng)
        assert star(K, 1, s) == s
        assert star(K, -2, s) == Spark(s.a.scale(-2), s.R.scale(-2))
        assert star(K, s, 3) == Spark(s.a.scale(3), s.R.scale(3))

    def test_degree_minus_one_sparks_act_as_integers(self):
        # on a connected complex a degree -1 spark is (0, n * 1), and its
        # star product in either slot is the action of the integer n
        rng = random.Random(12)
        K = moebius_kuehnel_torus()
        for n in (-2, 1, 3):
            unit = Spark(K.zero_cochain(-1), K.cochain(0, (n,) * K.n_vertices))
            for k in range(-1, K.dimension + 1):
                s = random_spark(K, k, rng)
                assert star(K, unit, s) == star(K, n, s)
                assert star(K, s, unit) == star(K, n, s)

    def test_d2_multiplicative_on_classes(self):
        # the degree-two class of a star product only depends on classes
        rng = random.Random(11)
        K = sphere(3)
        for _ in range(10):
            s1, s2 = random_spark(K, 1, rng), random_spark(K, 1, rng)
            shifted = random_equivalent_shift(K, s1, rng)
            a = d2_class(K, star(K, s1, s2))
            b = d2_class(K, star(K, shifted, s2))
            assert a == b


class TestDualityPair:
    def test_invariance_under_equivalence(self):
        rng = random.Random(12)
        K = moebius_kuehnel_torus()
        for _ in range(15):
            s0, s1 = random_spark(K, 0, rng), random_spark(K, 1, rng)
            p = duality_pair(K, s0, s1)
            assert p == duality_pair(K, random_equivalent_shift(K, s0, rng), s1)
            assert p == duality_pair(K, s0, random_equivalent_shift(K, s1, rng))

    def test_bilinearity(self):
        rng = random.Random(13)
        K = moebius_kuehnel_torus()
        for _ in range(15):
            s0, s0b = random_spark(K, 0, rng), random_spark(K, 0, rng)
            s1 = random_spark(K, 1, rng)
            assert duality_pair(K, s0 + s0b, s1) == (
                duality_pair(K, s0, s1) + duality_pair(K, s0b, s1)
            ) % 1

    def test_degree_mismatch_rejected(self):
        K = sphere(2)
        s = Spark(K.zero_cochain(0), K.zero_cochain(1))
        with pytest.raises(SparkError, match="degrees"):
            duality_pair(K, s, s)


LENS_SPACES = [
    ("rp3", 2, 1), ("lens:3,1", 3, 1), ("lens:5,1", 5, 1), ("lens:5,2", 5, 2),
    ("lens:7,1", 7, 1), ("lens:7,2", 7, 2), ("lens:7,3", 7, 3),
]


def seifert_classes(p, q):
    """Residues of +-q a^2 modulo p over the units a modulo p."""
    return {sign * q * a * a % p for a in range(1, p) if gcd(a, p) == 1 for sign in (1, -1)}


class TestLinking:
    def test_rp3_half(self):
        assert torsion_linking_matrix(rp3(), 2, 2) == [[Fraction(1, 2)]]

    def test_lens3_nondegenerate(self):
        M = torsion_linking_matrix(lens_space(3, 1), 2, 2)
        assert M[0][0] in (Fraction(1, 3), Fraction(2, 3))

    @pytest.mark.parametrize("space, p, q", LENS_SPACES)
    def test_flat_pairing_is_minus_the_linking_form(self, space, p, q):
        # the pairing goes through star, cup and holonomy on [X], the
        # linking form through one witness cup: each route checks the other
        K = _shared(space)
        (m, g, w), = cohomology_generators(K, 2)[1]
        assert m == p
        s = flat_spark_from_torsion(K, m, g, w)
        assert duality_pair(K, s, s) == (-linking_number(K, (m, g, w), g)) % 1

    @pytest.mark.parametrize("space, p, q", LENS_SPACES)
    def test_linking_form_in_the_seifert_square_class(self, space, p, q):
        # Seifert: the linking form of L(p, q) is q/p up to a unit square
        # and a sign, an oracle read off (p, q) alone
        K = _shared(space)
        (m, g, w), = cohomology_generators(K, 2)[1]
        value = p * linking_number(K, (m, g, w), g)
        assert value.denominator == 1
        assert int(value) % p in seifert_classes(p, q)

    def test_seifert_classes_separate_lens_spaces_of_equal_homology(self):
        # 2 is no square modulo 5, and -1 is one
        assert seifert_classes(5, 1) == {1, 4} and seifert_classes(5, 2) == {2, 3}

    def test_witness_independence(self):
        K = rp3()
        _, tor = cohomology_generators(K, 2)
        d, g, w = tor[0]
        base = linking_number(K, (d, g, w), g)
        # witness shifted by an integral cocycle (here a coboundary)
        c = K.delta(K.cochain(0, tuple(range(K.n_simplices(0)))))
        assert linking_number(K, (d, g, w + c), g) == base
        # generator representative shifted: (g + delta e, w + d*e)
        e = K.cochain(1, tuple((i * 7) % 3 - 1 for i in range(K.n_simplices(1))))
        g2 = g + K.delta(e)
        w2 = w + e.scale(d)
        assert K.delta(w2) == g2.scale(d)
        assert linking_number(K, (d, g2, w2), g) == base


class TestPullback:
    def winding_spark(self, K):
        # vertex phases 0, 1/3, 2/3 around the triangle circle; the
        # integer correction carries one full turn
        a = K.cochain(0, (0, Fraction(1, 3), Fraction(2, 3)))
        step = K.delta(a)
        R = Cochain(1, tuple(-1 if v == Fraction(2, 3) else 0 for v in step.values))
        s = Spark(a, R)
        validate_spark(K, s)
        return s

    def test_identity_map(self):
        rng = random.Random(31)
        K = moebius_kuehnel_torus()
        s = random_spark(K, 1, rng)
        assert pullback_spark(K, K, list(range(K.n_vertices)), s) == s

    def test_non_integral_charge_refused_not_truncated(self):
        # R = (3/2) g pulls back to itself; rounded to ints it would read
        # as the valid charge g
        K = build_space("torus")
        g = cohomology_generators(K, 2)[0][0]
        s = Spark(K.zero_cochain(1), g.scale(Fraction(3, 2)))
        with pytest.raises(SparkError, match="R must be integral"):
            pullback_spark(K, K, list(range(K.n_vertices)), s)

    def test_double_cover_doubles_the_class(self):
        K3, K6 = circle(3), circle(6)
        s = self.winding_spark(K3)
        assert K3.evaluate(s.R, K3.fundamental_cycle()) == 1
        pulled = pullback_spark(K6, K3, [i % 3 for i in range(6)], s)
        z6 = K6.fundamental_cycle()
        assert K6.evaluate(pulled.R, z6) == 2
        assert K6.evaluate(curvature(K6, pulled), z6) == 2
        # evaluation against the pushed cycle says the same thing
        maps = simplicial_chain_maps(K6, K3, [i % 3 for i in range(6)])
        pushed = scaled_product(maps[1], z6.form).entries()
        assert pushed == [2 * v for v in K3.fundamental_cycle().values]

    def test_functorial(self):
        K3, K6, K12 = circle(3), circle(6), circle(12)
        s = self.winding_spark(K3)
        f = [i % 6 for i in range(12)]
        g = [i % 3 for i in range(6)]
        composite = [g[f[i]] for i in range(12)]
        twice = pullback_spark(K12, K6, f, pullback_spark(K6, K3, g, s))
        assert twice == pullback_spark(K12, K3, composite, s)

    def test_constant_map_flattens(self):
        rng = random.Random(33)
        K = sphere(2)
        C = circle(4)
        s = random_spark(K, 0, rng)
        pulled = pullback_spark(C, K, [2] * C.n_vertices, s)
        assert pulled.R.is_zero()
        assert curvature(C, pulled).is_zero()
        assert len(set(pulled.a.values)) == 1

    def test_non_simplicial_map_rejected(self):
        C = circle(4)
        s = Spark(C.zero_cochain(0), C.zero_cochain(1))
        with pytest.raises(ComplexError):
            pullback_spark(C, C, [0, 2, 0, 2], s)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(14)
        K = moebius_kuehnel_torus()
        s = random_spark(K, 1, rng)
        data = spark_to_json(s)
        s2 = spark_from_json(K, data)
        assert s2 == s

    def test_bad_data_rejected(self):
        K = sphere(2)
        s = Spark(K.zero_cochain(0), elementary_cochain(K, (0, 1)))
        data = spark_to_json(s)
        with pytest.raises(SparkError):
            spark_from_json(K, data)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
