"""Spark calculus: cochain models of circle-valued characters.

A spark of degree k is a pair (a, R): a rational k-cochain together
with an integral (k+1)-cocycle.  Its curvature is phi = delta(a) + R,
a rational cocycle with integer periods.  Two sparks present the same
character when they differ by (delta b - S, delta S) for a rational
(k-1)-cochain b and an integral k-cochain S; the membership test here
decides that relation exactly.  It and the holonomy check of
``diffchar verify`` read a cochain's values on the primitive integral
cycle basis through one kernel, :func:`periods`: a sparse integer
product with the cycle rows of the cached Smith form of the coboundary
one degree down.

Sparks with harmonic curvature are built from integral cocycles in
:mod:`diffchar.hodge` (``spark_from_cocycle`` and
``HodgeContext.hodge_spark``), which owns the harmonic projection and
the normal and Gram systems behind it; this module keeps the calculus
that needs no solver.

The star product pairs sparks of degrees k and l into one of degree
k + l + 1, satisfying the Leibniz identity
delta(a*) = phi_1 cup phi_2 - R_1 cup R_2 on the nose, which makes the
degree-(n-1) pairing on a closed oriented space well defined.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cohomology import (
    class_cocycle,
    cohomology_generators,
    cycle_lattice_rows,
    integer_cohomology,
)
from .complexes import (
    Chain,
    Cochain,
    SimplicialComplex,
    json_int,
    json_vector,
    pull_cochain,
    simplicial_chain_maps,
)
from .exact import ScaledVector, scaled_product


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
    if not -1 <= s.degree <= K.dimension:
        raise SparkError(f"spark degree {s.degree} outside -1..{K.dimension}")
    if s.R.degree != s.a.degree + 1:
        raise SparkError(
            f"degree mismatch: a has degree {s.a.degree}, R degree {s.R.degree}"
        )
    if len(s.a.values) != K.n_simplices(s.a.degree):
        raise SparkError("cochain a has wrong length for this complex")
    if len(s.R.values) != K.n_simplices(s.R.degree):
        raise SparkError("cocycle R has wrong length for this complex")
    check_charge(K, s.R)


def check_charge(K: SimplicialComplex, R: Cochain):
    """Refuse R unless it is an integral cocycle of nonnegative degree."""
    if not R.is_integral():
        raise SparkError("R must be integral")
    if not K.delta(R).is_zero():
        raise SparkError("R must be a cocycle")
    if R.degree < 0:
        raise SparkError("cocycle degree must be nonnegative")


def curvature(K: SimplicialComplex, s: Spark) -> Cochain:
    """phi = delta(a) + R; closed, with integer periods on cycles."""
    return K.delta(s.a) + s.R


def d2_class(K: SimplicialComplex, s: Spark):
    """Class of R in H^{k+1}(K; Z) as (free coords, torsion coords)."""
    Q = integer_cohomology(K, s.R.degree)
    return Q.coords(s.R.form)


def mod1(x) -> Fraction:
    return Fraction(x) % 1


# ---------------------------------------------------------------------------
# constructors


def flat_spark_from_torsion(K, order, gen: Cochain, witness: Cochain) -> Spark:
    """Flat spark from torsion data delta(witness) = order * gen.

    Returns (a, R) = (witness / order, -gen); its curvature is zero and
    its degree-two class is minus the class of gen.
    """
    return Spark(witness.scale(Fraction(1, order)), gen.scale(-1))


# ---------------------------------------------------------------------------
# equivalence and holonomy


def periods(K: SimplicialComplex, u: Cochain) -> ScaledVector:
    """Values of the k-cochain u on the primitive basis of integral k-cycles.

    The basis is :func:`~diffchar.cohomology.cycle_lattice_rows`: the
    rows of U past the rank in the cached Smith form of delta_{k-1}
    (the identity for k = 0), kept sparse there.  One
    :func:`~diffchar.exact.scaled_product` of u's scaled form gives all
    periods, as a :class:`~diffchar.exact.ScaledVector`.  Every
    integral k-cycle is an integer combination of the basis, so these
    values mod 1 determine the holonomy of a spark with potential u on
    every integral cycle.
    """
    return scaled_product(cycle_lattice_rows(K, u.degree), u.form)


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
    return periods(K, diff).is_integral()


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


def random_cochain(K: SimplicialComplex, k, rng: random.Random, bound, dmax=1) -> Cochain:
    """Random k-cochain with entries n / d, n in -bound..bound, d in 1..dmax.

    Entry by entry it draws n as ``rng.randint(-bound, bound)`` would,
    then, when dmax > 1, d as ``rng.randint(1, dmax)`` would.  A draw
    from a range of width w reads ``rng.getrandbits(w.bit_length())``
    and reads again while the result is w or more, which is randint's
    own rule for a ``random.Random``.  So the bits consumed and every
    value equal those of the loop
    ``Fraction(rng.randint(-bound, bound), rng.randint(1, dmax))`` (for
    dmax = 1, of ``rng.randint(-bound, bound)`` alone, which draws no
    denominator).  The numerators sit over lcm(1..dmax), with no
    ``Fraction`` formed; each entry reads by its value.
    """
    getrandbits = rng.getrandbits
    width = 2 * bound + 1
    nbits, dbits = width.bit_length(), dmax.bit_length()
    den = lcm(*range(1, dmax + 1))
    mult = [den // d for d in range(1, dmax + 1)]
    nums = []
    for _ in range(K.n_simplices(k)):
        r = getrandbits(nbits)
        while r >= width:
            r = getrandbits(nbits)
        d = 0
        if dmax > 1:
            d = getrandbits(dbits)
            while d >= dmax:
                d = getrandbits(dbits)
        nums.append((r - bound) * mult[d])
    return Cochain.from_scaled(k, ScaledVector(den, nums))


def random_spark(K: SimplicialComplex, k, rng: random.Random) -> Spark:
    """Random spark of degree k with mixed exact and topological charge.

    k runs over -1..dimension, the degrees of the character groups.  The
    potential is a :func:`random_cochain` with entries n / d, |n| <= 6,
    1 <= d <= 6; the charge is the coboundary of an integral one with
    entries in -2..2 plus a random combination of the cached
    :func:`~diffchar.cohomology.cohomology_generators` of H^{k+1}, free
    ones with coefficients in -2..2 and torsion ones in -1..1, summed by
    :func:`~diffchar.cohomology.class_cocycle`.
    """
    if not -1 <= k <= K.dimension:
        raise SparkError(f"spark degree {k} outside -1..{K.dimension}")
    a = random_cochain(K, k, rng, 6, 6)
    if k == K.dimension:
        return Spark(a, K.zero_cochain(k + 1))
    chi = K.delta(random_cochain(K, k, rng, 2))
    free, tor = cohomology_generators(K, k + 1)
    free_coeffs = [rng.randint(-2, 2) for _ in free]
    return Spark(a, chi + class_cocycle(K, k + 1, free_coeffs, [rng.randint(-1, 1) for _ in tor]))


def random_equivalent_shift(K: SimplicialComplex, s: Spark, rng: random.Random) -> Spark:
    """Equivalent spark via a random allowed shift (delta b - S, delta S).

    S is a :func:`random_cochain` with integer entries in -3..3 and, in
    degree k >= 1, b one with entries n / d, |n| <= 4, 1 <= d <= 5.
    """
    k = s.degree
    S = random_cochain(K, k, rng, 3)
    a_new = s.a - S
    if k >= 1:
        a_new = a_new + K.delta(random_cochain(K, k - 1, rng, 4, 5))
    return Spark(a_new, s.R + K.delta(S))


# ---------------------------------------------------------------------------
# serialization


def spark_to_json(s: Spark):
    return {"degree": s.degree, "a": s.a.to_json_dict(), "R": s.R.to_json_dict()}


def spark_from_json(K: SimplicialComplex, data, where="spark") -> Spark:
    """The spark of K in ``data``, as :func:`spark_to_json` writes it.

    A ``degree`` that ``data`` declares must be that of ``a``, as a
    complex file's declared dimension must be its own (SparkError).
    """
    try:
        a, R = data["a"], data["R"]
    except (KeyError, TypeError) as exc:
        raise SparkError(f"{where}: malformed spark ({exc})") from exc
    s = Spark(
        json_vector(K, a, f"{where} a"),
        json_vector(K, R, f"{where} R", top=K.dimension + 1),
    )
    declared = data.get("degree")
    if "degree" in data and json_int(declared, f"{where}: degree") != s.degree:
        raise SparkError(f"{where}: declared degree {declared} but a has degree {s.degree}")
    validate_spark(K, s)
    return s
