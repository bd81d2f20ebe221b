"""Spark calculus: cochain models of circle-valued characters.

A spark of degree k is a pair (a, R): a rational k-cochain together
with an integral (k+1)-cocycle.  Its curvature is phi = delta(a) + R,
a rational cocycle with integer periods.  Two sparks present the same
character when they differ by (delta b - S, delta S) for a rational
(k-1)-cochain b and an integral k-cochain S; the membership test here
decides that relation exactly.  It and the holonomy check of
``diffchar verify`` read a cochain's values on the primitive integral
cycle basis through one kernel, :func:`periods`: a sparse integer
product with the basis rows of the cached Smith form of the boundary.

Sparks are built from integral cocycles on the Smith forms that the
cohomology generators already cached.  The harmonic potential of a
cocycle R makes the curvature the harmonic projection of R and is
orthogonal to the harmonic cochains; it is natural (independent of
pivot order and vertex labels) but moves with R inside its class.
spark_from_cocycle applies it to the generator combination of R's
class and so depends on the class alone.  The harmonic projection
(coboundary normal matrices below the top degree, the cycle lattice in
the top degree, plus a Gram system on the projected generators) lives
here, shared with weighted Hodge theory.

The star product pairs sparks of degrees k and l into one of degree
k + l + 1, satisfying the Leibniz identity
delta(a*) = phi_1 cup phi_2 - R_1 cup R_2 on the nose, which makes the
degree-(n-1) pairing on a closed oriented space well defined.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cohomology import (
    cohomology_generators,
    integer_cohomology,
    integer_homology,
)
from .complexes import (
    Chain,
    Cochain,
    SimplicialComplex,
    is_integer,
    pull_cochain,
    simplicial_chain_maps,
)
from .exact import RatElim, gram_rows, mat_vec, transpose_apply, transpose_rows


class SparkError(ValueError):
    """Data that does not satisfy the spark conditions."""


@dataclass(frozen=True)
class Spark:
    """Pair (a, R): rational k-cochain and integral (k+1)-cocycle."""

    a: Cochain
    R: Cochain

    @property
    def degree(self):
        return self.a.degree

    def __add__(self, other):
        return Spark(self.a + other.a, self.R + other.R)

    def __sub__(self, other):
        return Spark(self.a - other.a, self.R - other.R)

    def __neg__(self):
        return Spark(-self.a, -self.R)


def validate_spark(K: SimplicialComplex, s: Spark):
    if s.R.degree != s.a.degree + 1:
        raise SparkError(
            f"degree mismatch: a has degree {s.a.degree}, R degree {s.R.degree}"
        )
    if len(s.a.values) != K.n_simplices(s.a.degree):
        raise SparkError("cochain a has wrong length for this complex")
    if len(s.R.values) != K.n_simplices(s.R.degree):
        raise SparkError("cocycle R has wrong length for this complex")
    if not s.R.is_integral():
        raise SparkError("R must be integral")
    if not K.delta(s.R).is_zero():
        raise SparkError("R must be a cocycle")


def curvature(K: SimplicialComplex, s: Spark) -> Cochain:
    """phi = delta(a) + R; closed, with integer periods on cycles."""
    return K.delta(s.a) + s.R


def d2_class(K: SimplicialComplex, s: Spark):
    """Class of R in H^{k+1}(K; Z) as (free coords, torsion coords)."""
    Q = integer_cohomology(K, s.R.degree)
    return Q.coords([int(v) if is_integer(v) else v for v in s.R.values])


def mod1(x) -> Fraction:
    return Fraction(x) % 1


# ---------------------------------------------------------------------------
# constructors


def degree_weights(weights, k):
    """Degree-k entry of a weight profile, None when it is uniform.

    ``weights`` maps degree to per-simplex weights (None: all uniform).
    A None result makes the functions below use K's cache, shared by
    every caller with uniform weights in that degree.
    """
    w = weights.get(k) if weights else None
    return None if w is None or all(x == 1 for x in w) else w


def normal_factorization(K: SimplicialComplex, k, weights=None, cache=None):
    """The factored normal matrix N_k = delta_k^T W delta_k, eliminated once.

    W is the diagonal of the degree-(k+1) ``weights``.  Uniform weights
    (None) are cached on K, so spark_from_cocycle and every uniform
    HodgeContext on K share one factorization per degree; any other
    profile is cached in ``cache``.
    """
    if weights is None:
        cache = K._cache
    key = ("normal", k)
    if key not in cache:
        n_k = K.n_simplices(k)
        cache[key] = RatElim(gram_rows(K.delta_rows(k), n_k, weights), n_k).run()
    return cache[key]


def exact_potential(K: SimplicialComplex, u: Cochain, weights=None, cache=None):
    """(k-1)-cochain x whose coboundary is the exact part of the k-cochain u.

    Solves N_{k-1} x = delta^T W u over Q (see
    :func:`normal_factorization`), so delta x is the orthogonal
    projection of u onto the coboundaries, W the diagonal of the
    degree-k ``weights`` (standard inner product when None).  Free
    variables of the pivoted solve are set to zero, so the output is
    deterministic.
    """
    k = u.degree - 1
    n_k = K.n_simplices(k)
    wu = u.values if weights is None else [w * v for w, v in zip(weights, u.values)]
    x = normal_factorization(K, k, weights, cache).solve(
        transpose_apply(K.delta_rows(k), wu, n_k)
    )
    if x is None:
        raise AssertionError("normal equations must be consistent")
    return K.cochain(k, x)


def harmonic_vectors(K: SimplicialComplex, k, weights=None, cache=None):
    """Harmonic projections of the free generators g of H^k(K; Z).

    The projection is orthogonal under the degree-k ``weights`` W.
    Below the top degree it is g - delta x, delta x the
    :func:`exact_potential` of g.  In the top degree n, delta_n = 0, so
    the harmonic n-cochains are W^{-1} z for the rational n-cycles z:
    with Z the rows of :func:`~diffchar.cohomology.cycle_lattice_basis`,
    already sparse in the cached Smith form of the boundary, the
    projection is W^{-1} Z^T c with (Z W^{-1} Z^T) c = Z g, a b_n x b_n
    Gram system, and no normal matrix is factored.  The vectors (tuples
    of Fractions) are cached like :func:`normal_factorization`.
    """
    if weights is None:
        cache = K._cache
    key = ("harmonics", k)
    if key not in cache:
        free, _ = cohomology_generators(K, k)
        if k == K.dimension:
            vectors = _cycle_harmonics(K, free, weights)
        else:
            vectors = [
                (g - K.delta(exact_potential(K, g, weights, cache))).values
                for g in free
            ]
        cache[key] = [tuple(Fraction(v) for v in h) for h in vectors]
    return cache[key]


def _cycle_harmonics(K: SimplicialComplex, free, weights):
    """W^{-1} Z^T c with (Z W^{-1} Z^T) c = Z g for each top-degree g in ``free``."""
    if not free:
        return []
    n = K.dimension
    n_n = K.n_simplices(n)
    snf = integer_homology(K, n).snfA
    Z = snf.VT_rows[snf.rank:]
    winv = None if weights is None else [1 / Fraction(w) for w in weights]
    gram = RatElim(gram_rows(transpose_rows(Z, n_n), len(Z), winv), len(Z)).run()
    out = []
    for g in free:
        c = gram.solve(periods(K, g))
        if c is None:
            raise AssertionError("cycle Gram system must be solvable")
        h = transpose_apply(Z, c, n_n)
        out.append(h if winv is None else [x * w for x, w in zip(h, winv)])
    return out


def harmonic_projection(K: SimplicialComplex, u: Cochain, weights=None, cache=None):
    """Orthogonal projection of u onto the harmonic k-cochains.

    The inner product is weighted by the degree-k ``weights``.  The
    harmonic part is sum_i c_i b_i over the :func:`harmonic_vectors`
    b_i, with G c = (<b_i, u>)_i for the b_k x b_k Gram matrix
    G_ij = <b_i, b_j>, factored once and cached like the vectors.  Zero
    when b_k = 0, with no factorization at all.
    """
    k = u.degree
    basis = harmonic_vectors(K, k, weights, cache)
    if not basis:
        return K.zero_cochain(k)
    if weights is None:
        cache = K._cache

    def inner(b, v):
        return sum(x * y for x, y in zip(b, v) if x)

    key = ("gram", k)
    if key not in cache:
        wb = basis if weights is None else [
            [w * x for w, x in zip(weights, b)] for b in basis
        ]
        rows = [{j: g for j, c in enumerate(wb) if (g := inner(b, c))} for b in basis]
        cache[key] = RatElim(rows, len(basis)).run()
    wu = u.values if weights is None else [w * x for w, x in zip(weights, u.values)]
    coeffs = cache[key].solve([inner(b, wu) for b in basis])
    if coeffs is None:
        raise AssertionError("Gram system must be solvable")
    h = [Fraction(0)] * len(u.values)
    for c, b in zip(coeffs, basis):
        for r, x in enumerate(b):
            if x:
                h[r] += c * x
    return Cochain(k, tuple(h))


def _check_charge(K: SimplicialComplex, R: Cochain):
    if not R.is_integral():
        raise SparkError("R must be integral")
    if not K.delta(R).is_zero():
        raise SparkError("R must be a cocycle")
    if R.degree < 0:
        raise SparkError("cocycle degree must be nonnegative")


def harmonic_potential(
    K: SimplicialComplex, R: Cochain, weights=None, cache=None
) -> Cochain:
    """Potential a with harmonic curvature delta a + R, orthogonal to harmonics.

    With H_j the harmonic projection in degree j, a = -(x - H_{k-1} x)
    for any rational x with delta x = R - H_k R, taken from the Smith
    form of :func:`~diffchar.cohomology.integer_cohomology` that the
    generators already use.  Two such x differ by a rational cocycle,
    that is a harmonic part plus a coboundary, so the character of
    (a, R) does not depend on the choice of x, on pivot order or on
    vertex labels.  No normal matrix is factored when
    b_k = b_{k-1} = 0, nor in the top degree k = n when b_{n-1} = 0
    (see :func:`harmonic_vectors`).  The character moves with R inside
    its class: for an integral S, (a, R + delta S) presents the
    character of (a, R) plus the flat spark (H_{k-1} S, 0).

    ``weights`` is an optional weight profile (degree -> weights) for
    both projections, with ``cache`` (a fresh dict when None) holding
    its non-uniform factorizations; the default is the standard inner
    product.  R must be an integral cocycle (SparkError otherwise).
    """
    _check_charge(K, R)
    if cache is None:
        cache = {}
    k = R.degree
    h = harmonic_projection(K, R, degree_weights(weights, k), cache)
    x = integer_cohomology(K, k).preimage_rat((R - h).values)
    if x is None:
        raise AssertionError("R minus its harmonic part must be exact")
    x = K.cochain(k - 1, x)
    return harmonic_projection(K, x, degree_weights(weights, k - 1), cache) - x


def spark_from_cocycle(K: SimplicialComplex, R: Cochain) -> Spark:
    """Spark with the given integral cocycle as its second component.

    R is split on the cached Smith form as G + delta y: G is the
    combination of :func:`~diffchar.cohomology.cohomology_generators`
    with R's free and torsion coordinates, y an integral
    (k-1)-cochain.  The potential is the :func:`harmonic_potential` of
    G minus y, so the curvature is the harmonic projection of R, a
    generator gets exactly its harmonic spark, and cohomologous
    cocycles get equivalent sparks.  Class invariance costs
    naturality: when b_{k-1} > 0 the character of a cocycle that is no
    generator depends on the generators chosen (the flat spark
    (H_{k-1} y, 0) of :func:`harmonic_potential`).
    """
    _check_charge(K, R)
    k = R.degree
    values = [int(v) for v in R.values]
    Q = integer_cohomology(K, k)
    free, torsion = cohomology_generators(K, k)
    free_coords, torsion_coords = Q.coords(values)
    G = K.zero_cochain(k)
    for c, g in zip(free_coords + torsion_coords, free + [g for _, g, _ in torsion]):
        if c:
            G = G + g.scale(c)
    y = Q.preimage_int([v - w for v, w in zip(values, G.values)])
    if y is None:
        raise AssertionError("R minus its generator combination must be a coboundary")
    return Spark(harmonic_potential(K, G) - K.cochain(k - 1, y), R)


def flat_spark_from_torsion(K, order, gen: Cochain, witness: Cochain, j=1) -> Spark:
    """Flat spark from torsion data delta(witness) = order * gen.

    Returns (a, R) = ((j/order) * witness, -j * gen); its curvature is
    zero and its degree-two class is -j times the class of gen.
    """
    a = witness.scale(Fraction(j, order))
    R = gen.scale(-j)
    return Spark(a, R)


# ---------------------------------------------------------------------------
# equivalence and holonomy


def periods(K: SimplicialComplex, u: Cochain) -> list:
    """Values of the k-cochain u on the primitive basis of integral k-cycles.

    The basis is :func:`~diffchar.cohomology.cycle_lattice_basis`: the
    columns of V past the rank in the cached Smith form of boundary_k,
    kept sparse there.  One :func:`~diffchar.exact.mat_vec` over the lcm
    of u's denominators gives all periods; an entry is a ``Fraction``
    when a nonzero ``Fraction`` value of u lies on the cycle, else an
    int.  Every integral k-cycle is an integer combination of the basis,
    so these values mod 1 determine the holonomy of a spark with
    potential u on every integral cycle.
    """
    snf = integer_homology(K, u.degree).snfA
    return mat_vec(snf.VT_rows[snf.rank:], u.values)


def spark_equivalent(K: SimplicialComplex, s1: Spark, s2: Spark) -> bool:
    """Decide whether two sparks present the same character.

    Exact test: equal curvatures, that is delta(a_1 - a_2) = R_2 - R_1,
    equal integral classes of R, and integer :func:`periods` of
    a_1 - a_2.  Sufficiency: with [R_1] = [R_2] pick integral S with
    delta S = R_2 - R_1; then a_2 - a_1 + S is a rational cocycle with
    integer periods, hence an integral cocycle plus a rational
    coboundary, which is exactly the allowed shift.
    """
    if s1.degree != s2.degree:
        return False
    diff = s1.a - s2.a
    if K.delta(diff) != s2.R - s1.R:
        return False
    if d2_class(K, s1) != d2_class(K, s2):
        return False
    return all(is_integer(p) for p in periods(K, diff))


def holonomy(K: SimplicialComplex, s: Spark, z: Chain) -> Fraction:
    """Value of the character on an integral cycle, in [0, 1)."""
    if z.degree != s.degree:
        raise SparkError("cycle degree must match spark degree")
    if not z.is_integral():
        raise SparkError("holonomy needs an integral cycle")
    if not K.boundary(z).is_zero():
        raise SparkError("holonomy needs a cycle, boundary is nonzero")
    return mod1(K.evaluate(s.a, z))


def pullback_spark(
    src: SimplicialComplex, tgt: SimplicialComplex, vertex_map, s: Spark
) -> Spark:
    """Pull a spark on ``tgt`` back along a simplicial vertex map.

    Both components pull back as cochains, so curvature, evaluation on
    pushed cycles and the integral class all transform contravariantly,
    and the operation is functorial: pulling back along a composite map
    equals pulling back twice, exactly.  Degenerate image simplices
    contribute zero, which is what collapses everything for a constant
    map.
    """
    maps = simplicial_chain_maps(src, tgt, vertex_map)
    k = s.degree
    if k == -1:
        a = s.a
    else:
        a = pull_cochain(maps, s.a, src.n_simplices(k))
    R = pull_cochain(maps, s.R, src.n_simplices(k + 1))
    R = Cochain(R.degree, tuple(int(v) for v in R.values))
    out = Spark(a, R)
    validate_spark(src, out)
    return out


# ---------------------------------------------------------------------------
# products


def star(K: SimplicialComplex, s1, s2) -> Spark:
    """Star product of sparks; integers act as the degree -1 units.

    For sparks of degrees k and l the result has degree k + l + 1 with
    a* = a_1 cup phi_2 + (-1)^{k+1} R_1 cup a_2 and R* = R_1 cup R_2.
    """
    if isinstance(s1, int):
        return Spark(s2.a.scale(s1), s2.R.scale(s1))
    if isinstance(s2, int):
        return Spark(s1.a.scale(s2), s1.R.scale(s2))
    k = s1.degree
    phi2 = curvature(K, s2)
    a_star = K.cup(s1.a, phi2) + K.cup(s1.R, s2.a).scale((-1) ** (k + 1))
    R_star = K.cup(s1.R, s2.R)
    return Spark(a_star, R_star)


def duality_pair(K: SimplicialComplex, s1: Spark, s2: Spark) -> Fraction:
    """Character pairing: holonomy of the star product on [X].

    Needs degrees k + l = n - 1 on a closed oriented complex.
    """
    fc = K.fundamental_cycle()
    if fc is None:
        raise SparkError("duality pairing needs a fundamental cycle")
    if s1.degree + s2.degree != K.dimension - 1:
        raise SparkError(
            f"degrees {s1.degree} + {s2.degree} must add to {K.dimension - 1}"
        )
    return holonomy(K, star(K, s1, s2), fc)


# ---------------------------------------------------------------------------
# torsion linking


def linking_number(K: SimplicialComplex, torsion_u, gen_v: Cochain) -> Fraction:
    """Linking pairing of torsion classes via a division witness.

    ``torsion_u`` is (order m, generator T_u, witness S) with
    delta S = m * T_u.  Returns (1/m) <S cup T_v, [X]> mod 1, which is
    independent of the chosen witness because the ambiguity is an
    integral cocycle paired against a torsion class.
    """
    fc = K.fundamental_cycle()
    if fc is None:
        raise SparkError("linking needs a fundamental cycle")
    m, _gen_u, witness = torsion_u
    val = K.evaluate(K.cup(witness, gen_v), fc)
    return mod1(Fraction(val, m))


def torsion_linking_matrix(K: SimplicialComplex, p, q):
    """All pairwise linkings of torsion generators of H^p and H^q."""
    if not (0 <= p <= K.dimension and 0 <= q <= K.dimension):
        raise SparkError(f"linking degrees must lie in 0..{K.dimension}")
    if p + q != K.dimension + 1:
        raise SparkError("linking degrees must add to dimension + 1")
    _, tor_p = cohomology_generators(K, p)
    _, tor_q = cohomology_generators(K, q)
    return [
        [linking_number(K, (m, g, w), g2) for _, g2, _ in tor_q]
        for m, g, w in tor_p
    ]


# ---------------------------------------------------------------------------
# randomized material for identity checking


def random_spark(K: SimplicialComplex, k, rng: random.Random, denom=6) -> Spark:
    """Random spark of degree k with mixed exact and topological charge.

    k runs over -1..dimension, the degrees of the character groups.
    """
    if not -1 <= k <= K.dimension:
        raise SparkError(f"spark degree {k} outside -1..{K.dimension}")
    n_k = K.n_simplices(k)
    a = K.cochain(
        k,
        tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, denom))
            for _ in range(n_k)
        ),
    )
    # R: an exact part plus a random generator combination
    chi = K.cochain(
        k + 1, tuple(0 for _ in range(K.n_simplices(k + 1)))
    )
    if k + 1 <= K.dimension:
        chi = chi + K.delta(
            K.cochain(k, tuple(rng.randint(-2, 2) for _ in range(n_k)))
        )
        free, tor = cohomology_generators(K, k + 1)
        for g in free:
            c = rng.randint(-2, 2)
            if c:
                chi = chi + g.scale(c)
        for _, g, _ in tor:
            c = rng.randint(-1, 1)
            if c:
                chi = chi + g.scale(c)
    return Spark(a, chi)


def random_equivalent_shift(K: SimplicialComplex, s: Spark, rng: random.Random) -> Spark:
    """Equivalent spark via a random allowed shift (delta b - S, delta S)."""
    k = s.degree
    S = K.cochain(
        k, tuple(rng.randint(-3, 3) for _ in range(K.n_simplices(k)))
    )
    a_new = s.a - S
    if k >= 1:
        b = K.cochain(
            k - 1,
            tuple(
                Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                for _ in range(K.n_simplices(k - 1))
            ),
        )
        a_new = a_new + K.delta(b)
    return Spark(a_new, s.R + K.delta(S))


# ---------------------------------------------------------------------------
# serialization


def spark_to_json(s: Spark):
    from .complexes import scalar_str

    return {
        "degree": s.degree,
        "a": {
            "degree": s.a.degree,
            "ring": s.a.ring(),
            "values": [scalar_str(v) for v in s.a.values],
        },
        "R": {
            "degree": s.R.degree,
            "ring": "INT",
            "values": [scalar_str(v) for v in s.R.values],
        },
    }


def spark_from_json(K: SimplicialComplex, data) -> Spark:
    from .complexes import json_int, json_scalars

    a = K.cochain(
        json_int(data["a"]["degree"], "spark a degree"),
        json_scalars(data["a"]["values"], "spark a values"),
    )
    R = K.cochain(
        json_int(data["R"]["degree"], "spark R degree"),
        json_scalars(data["R"]["values"], "spark R values"),
    )
    s = Spark(a, R)
    validate_spark(K, s)
    return s
