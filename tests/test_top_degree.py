"""The top degree n, where delta_n = 0.

Harmonic n-cochains are W^{-1} z for the rational n-cycles z, so the
harmonic projection needs only the cycle lattice, and H^n has the
coboundary delta_{n-1} itself as its relation matrix.  These tests pin
the values against the route g - delta x through the normal matrix
N_{n-1} (a test-local copy), freeze the spark and Smith-form outputs,
and check that neither N_{n-1} nor a second Smith form of delta_{n-1}
is formed.
"""

import functools
import hashlib
import random
from fractions import Fraction

import pytest

from diffchar import cohomology
from diffchar.builders import build_space
from diffchar.cohomology import (
    cohomology_generators,
    integer_cohomology,
    integer_homology,
)
from diffchar.complexes import SimplicialComplex
from diffchar.exact import RatElim, ScaledVector, gram_rows, scaled_product
from diffchar.hodge import HodgeContext, spark_from_cocycle
from oracles import typed_by_value, varied_weights

SPHERE = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
EXTRA = {
    # b_2 = 2: one fundamental class per component
    "two_spheres": SPHERE + [tuple(v + 4 for v in t) for t in SPHERE],
    # the edge adds no 2-simplex and no 2-cycle
    "sphere_dangling_edge": SPHERE + [(3, 4)],
}
SPACES = ["rp3", "torus", "genus2", "cp2", "torus_grid5", "rp2", *sorted(EXTRA)]


def _fresh(name):
    return SimplicialComplex(EXTRA[name]) if name in EXTRA else build_space(name)


_space = functools.lru_cache(maxsize=None)(_fresh)


def _weights(K):
    return varied_weights(K, random.Random(7))


def normal_route_harmonics(K, weights=None):
    """g - delta x with N_{n-1} x = delta^T W g, for each free generator g of H^n."""
    n = K.dimension
    free, _ = cohomology_generators(K, n)
    D = K.delta_rows(n - 1)
    m = K.n_simplices(n - 1)
    rhs = []
    for g in free:
        wg = g.values if weights is None else [w * v for w, v in zip(weights, g.values)]
        rhs.append(scaled_product(D, ScaledVector.of(wg), m).entries())
    N = RatElim(gram_rows(D, m, weights), m, rhs=rhs)
    out = []
    for i, g in enumerate(free):
        h = g - K.delta(K.cochain(n - 1, N.solution(i)))
        out.append(tuple(Fraction(v) for v in h.values))
    return out


@pytest.mark.parametrize("name", SPACES)
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "varied"])
def test_top_harmonics_match_normal_route(name, weighted):
    K = _space(name)
    n = K.dimension
    w = _weights(K)[n] if weighted else None
    expected = normal_route_harmonics(K, w)
    got = [b.values for b in HodgeContext(K, {n: w} if w else None, "exact").harmonic_basis(n)]
    assert got == expected
    assert all(map(typed_by_value, got))
    ctx = HodgeContext(K, weights=_weights(K) if weighted else None, method="exact")
    assert [b.values for b in ctx.harmonic_basis(n)] == expected


@pytest.mark.parametrize("name, b_n", [("rp2", 0), ("two_spheres", 2), ("torus", 1)])
def test_top_harmonic_count(name, b_n):
    K = _space(name)
    assert len(HodgeContext(K, method="exact").harmonic_basis(K.dimension)) == b_n


def _top_generators(K):
    free, torsion = cohomology_generators(K, K.dimension)
    return free + [g for _, g, _ in torsion]


# sha256 of repr((spark_from_cocycle, uniform hodge_spark, varied
# hodge_spark)) over the free then torsion generators of H^n, frozen
# from the normal-matrix route; lens:5,2 from normal forms whose N_{n-2}
# was eliminated over Q by RatElim.  cp2, rp2, sphere_dangling_edge and
# two_spheres were re-frozen when every entry came to be typed by its
# value: integral entries that term-by-term arithmetic had made
# Fractions became ints (all zeros in the uniform hodge_spark
# potentials, and one -1 in rp2's spark_from_cocycle potential), and no
# value moved (FROZEN_SPARK_VALUES)
FROZEN_SPARKS = {
    "lens:5,2": "31a8d4c8ed64ae248c2faa2ef122d0eba777412170e7a7e433e544d6731d04b9",
    "rp3": "6430ccf87fa2e99c3be8ed09996909c967d5444511453e61d90763aae10ac980",
    "torus": "164a8e3247012b2b1adea088be0a6899a18625aa0d9c2f65a616b43a49ba545e",
    "genus2": "f1757466b606b4f8c2cd60e0de3aee34e4a1fff14ff205ab426b040b431aee0c",
    "cp2": "18bd01eafb9d5ecd6061cdc129d01b5515463fdd45bdde48115fe4d32edaf2bd",
    "torus_grid5": "020cc08e6c296244311c911040378406971f007b34fbab7d01431ca6c6734b5e",
    "rp2": "d5e599aa24a29779564b7d8888c0dfd2c35b6ea401a0f8f21adfbf839178d44b",
    "sphere_dangling_edge": "fdf2b14b56f8dc3b9a4f0e3db81dc7b028d4486c77ca4b2a47888fe85478823f",
    "two_spheres": "88ad1f212ced972830d123f2059f3060b0789ba4dd44c0178a7c9eeb38720411",
}


@pytest.mark.parametrize("name", SPACES)
def test_top_sparks_frozen(name):
    K = _fresh(name)
    n = K.dimension
    contexts = [
        HodgeContext(K, method="exact"),
        HodgeContext(K, weights=_weights(K), method="exact"),
    ]
    h = hashlib.sha256()
    for g in _top_generators(K):
        sparks = (spark_from_cocycle(K, g), *(ctx.hodge_spark(g) for ctx in contexts))
        assert all(typed_by_value(v.values) for s in sparks for v in (s.a, s.R))
        h.update(repr(sparks).encode())
    assert h.hexdigest() == FROZEN_SPARKS[name]
    for cache in [K._cache] + [ctx._cache for ctx in contexts]:
        assert ("normal", n - 1) not in cache


def _erased(s):
    """A spark's degrees and values, every entry a Fraction: no int/Fraction type."""
    return tuple((v.degree, tuple(map(Fraction, v.values))) for v in (s.a, s.R))


# sha256 of the same sparks as FROZEN_SPARKS with every entry mapped
# through Fraction, so only values count
FROZEN_SPARK_VALUES = {
    "lens:5,2": "9421526235c5cf057dd478d347dc0f01db232fdd8196328d330986c618b61968",
    "rp3": "f2300489a9b109887a7c2e247e0fadd6477b61b04dbb524e5179589e9dea54fa",
    "torus": "11b3e8acac7e068f965ef1f20dd0fe8aba0907ea56c295e1d866fb424931eb9d",
    "genus2": "b783639f2fed0f2e44b7876deee15cc94604770d6cd7b6badfe9274fd0e6947b",
    "cp2": "5dc264102fd5337a16276c683f12af6ab2274cff71f54834cdd3893f496fcbaf",
    "torus_grid5": "2c9a405600cddf78b78c5ef9860fa869f52ff519da0e535927d6197a65dd2418",
    "rp2": "c7ba8a9e1baae5d1c8cda6457ab1f155f4cdee3f340219d18f92189a5f2d929b",
    "sphere_dangling_edge": "ed091045e12f5879b6c6c045324ba44197d9e10e1b63af5eac9b95f06aaec592",
    "two_spheres": "5f0bf5e6482aa9da3523ce1f2084c25944ceda043f95f0613588109ecb1f1f73",
}


@pytest.mark.parametrize("name", [*SPACES, "lens:5,2"])
def test_top_spark_values_frozen(name):
    K = _fresh(name)
    contexts = [
        HodgeContext(K, method="exact"),
        HodgeContext(K, weights=_weights(K), method="exact"),
    ]
    h = hashlib.sha256()
    for g in _top_generators(K):
        sparks = (spark_from_cocycle(K, g), *(ctx.hodge_spark(g) for ctx in contexts))
        h.update(repr(tuple(map(_erased, sparks))).encode())
    assert h.hexdigest() == FROZEN_SPARK_VALUES[name]


@pytest.mark.parametrize("name", ["rp3", "lens:5,2"])
def test_top_sparks_factor_no_normal_matrix(name):
    # the normal form of a potential factors N_{n-2} and nothing else
    K = build_space(name)
    n = K.dimension
    contexts = [
        HodgeContext(K, method="exact"),
        HodgeContext(K, weights=_weights(K), method="exact"),
    ]
    h = hashlib.sha256()
    for g in _top_generators(K):
        sparks = (spark_from_cocycle(K, g), *(ctx.hodge_spark(g) for ctx in contexts))
        assert all(typed_by_value(v.values) for s in sparks for v in (s.a, s.R))
        h.update(repr(sparks).encode())
    assert h.hexdigest() == FROZEN_SPARKS[name]
    for ctx in contexts:
        assert len(ctx.harmonic_basis(n)) == 1
    for cache in [K._cache] + [ctx._cache for ctx in contexts]:
        assert all(key == ("normal", n - 2) for key in cache if key[0] == "normal")


SNF_SPACES = ["rp3", "lens:5,2", "lens:7,2", "cp2"]

# sha256 of repr((rank, diag, U_rows, UinvT_rows, VT_rows, Vinv_rows)) over
# snfA and snfW of integer_cohomology then integer_homology, degrees
# -1..n+1, frozen from two fresh Smith forms per quotient
FROZEN_SNF = {
    "rp3": "6972750fc8ba1f2e04664a0f8a9277d63b6c76ec240858422734d03f1f269431",
    "lens:5,2": "f5425f2b5504c5f5049adcf95c9a535efc4c4c95aa81f9758342ed4ff77c69b6",
    "lens:7,2": "2ab9a219e555756e4215c4347110e58dbcbeccd95ce443e87daf0eca5b640362",
    "cp2": "13bbdd0b7278b3db1331a2d17b4442e2110e92d01af0bd577f670d3c36506215",
}


@pytest.mark.parametrize("name", SNF_SPACES)
def test_smith_transforms_frozen_all_degrees(name):
    K = build_space(name)
    h = hashlib.sha256()
    for k in range(-1, K.dimension + 2):
        for q in (integer_cohomology(K, k), integer_homology(K, k)):
            for s in (q.snfA, q.snfW):
                h.update(repr(
                    (s.rank, s.diag, s.U_rows, s.UinvT_rows, s.VT_rows, s.Vinv_rows)
                ).encode())
    assert h.hexdigest() == FROZEN_SNF[name]


@pytest.mark.parametrize("name", ["rp3", "lens:5,2", "cp2", "torus"])
def test_top_relations_are_the_coboundary_smith_form(name):
    K = build_space(name)
    n = K.dimension
    assert integer_cohomology(K, n).snfW is integer_cohomology(K, n - 1).snfA


@pytest.mark.parametrize("name", ["rp3", "lens:5,2", "cp2"])
def test_lone_top_cohomology_smith_calls(monkeypatch, name):
    # two at the parent: the empty delta_n and the relation matrix delta_{n-1}
    K = build_space(name)
    calls = []
    real = cohomology.smith_normal_form

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cohomology, "smith_normal_form", counted)
    integer_cohomology(K, K.dimension)
    assert len(calls) <= 2
