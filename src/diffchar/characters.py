"""Structure of the circle-valued character groups.

In each degree k from -1 to the dimension, the character group of a
finite complex splits as a torus of rank b_k, a rational vector space
of curvature degrees of freedom whose dimension is the rank of the
degree-k coboundary, and the discrete group H^{k+1}(Z).  This module
computes those structures, their predicted duals on a closed oriented
space, and runs constructive checks of the two short exact sequences
that pin the character group between cohomology with circle
coefficients and cocycles with integer periods.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cohomology import (
    AbelianGroupStructure,
    CircleGroupStructure,
    TRIVIAL_GROUP,
    circle_cohomology_structure,
    cohomology_generators,
    cohomology_structure,
    group_name,
    homology_structure,
    integer_cohomology,
    kunneth_structure,
)
from .complexes import SimplicialComplex, is_integer
from .exact import rat_rank
from .hodge import spark_from_cocycle
from .sparks import (
    Spark,
    curvature,
    d2_class,
    flat_spark_from_torsion,
    spark_equivalent,
)


@dataclass(frozen=True)
class CharacterStructure:
    """Isomorphism data of the degree-k character group."""

    degree: int
    torus_rank: int
    exact_dim: int
    discrete: AbelianGroupStructure

    def format(self):
        return group_name([
            ("S1", self.torus_rank),
            ("Q", self.exact_dim),
            (self.discrete.format(), int(not self.discrete.is_trivial())),
        ], " x ")

    def to_json_dict(self):
        return {
            "degree": self.degree,
            "torus_rank": self.torus_rank,
            "exact_dim": self.exact_dim,
            "discrete": self.discrete.to_json_dict(),
        }


def delta_rank(K: SimplicialComplex, k) -> int:
    """Rank of the degree-k coboundary operator."""
    if k < 0 or k > K.dimension:
        return 0
    return integer_cohomology(K, k).snfA.rank


def _rational_delta_rank(K: SimplicialComplex, k) -> int:
    """Rank of delta_k over Q, cached on K.

    A fraction-free elimination, independent of the Smith form behind
    :func:`delta_rank`, so check 7 of :func:`verify_sequences` compares
    two routes.
    """
    if k < 0 or k > K.dimension:
        return 0
    key = ("rat_rank", k)
    if key not in K._cache:
        K._cache[key] = rat_rank(K.delta_rows(k), K.n_simplices(k))
    return K._cache[key]


def character_structure(K: SimplicialComplex, k) -> CharacterStructure:
    """Structure of the degree-k character group, -1 <= k <= dim."""
    n = K.dimension
    if not (-1 <= k <= n):
        raise ValueError(f"degree {k} out of range [-1, {n}]")
    if k == -1:
        return CharacterStructure(
            degree=-1,
            torus_rank=0,
            exact_dim=0,
            discrete=cohomology_structure(K, 0),
        )
    return CharacterStructure(
        degree=k,
        torus_rank=cohomology_structure(K, k).free_rank,
        exact_dim=delta_rank(K, k),
        discrete=cohomology_structure(K, k + 1),
    )


def character_table(K: SimplicialComplex):
    return [character_structure(K, k) for k in range(-1, K.dimension + 1)]


# ---------------------------------------------------------------------------
# duality


@dataclass(frozen=True)
class DualStructure:
    """Predicted structure of the complementary-degree character group.

    Assembled from degree-k data only: on a closed oriented space the
    degree-(n-k-1) characters should have torus rank b_{k+1}, discrete
    part Z^{b_k} plus the torsion of H^{k+1}, and a curvature part that
    is nonzero exactly when the degree-k one is.
    """

    degree: int
    torus_rank: int
    exact_nonzero: bool
    discrete: AbelianGroupStructure

    def format(self):
        return group_name([
            ("S1", self.torus_rank),
            ("Q", "+" if self.exact_nonzero else 0),
            (self.discrete.format(), int(not self.discrete.is_trivial())),
        ], " x ")


def dual_structure(K: SimplicialComplex, k) -> DualStructure:
    """Dual prediction for degree n-k-1, computed from degree-k data."""
    n = K.dimension
    if not (-1 <= k <= n):
        raise ValueError(f"degree {k} out of range [-1, {n}]")
    h_next = cohomology_structure(K, k + 1)
    b_k = cohomology_structure(K, k).free_rank if k >= 0 else 0
    if k == -1:
        # dual of the integers: a bare torus of rank b_0 = components
        b_k = 0
    return DualStructure(
        degree=n - k - 1,
        torus_rank=h_next.free_rank,
        exact_nonzero=delta_rank(K, k) > 0,
        discrete=AbelianGroupStructure(b_k, h_next.torsion),
    )


def duality_match(K: SimplicialComplex, k) -> bool:
    """Does the degree-k dual prediction match the actual structure?"""
    pred = dual_structure(K, k)
    actual = character_structure(K, pred.degree)
    return (
        pred.torus_rank == actual.torus_rank
        and pred.exact_nonzero == (actual.exact_dim > 0)
        and pred.discrete == actual.discrete
    )


# ---------------------------------------------------------------------------
# product tables without building the product


def kunneth_character_rows(factors_a, factors_b, total_dim):
    """Topological character columns of a product space.

    Returns (degree, torus_rank, discrete) rows for -1 <= k <= total
    dimension; the curvature dimension needs cochain counts and is not
    available through this route.
    """
    rows = []
    for k in range(-1, total_dim + 1):
        torus = (
            kunneth_structure(factors_a, factors_b, k).free_rank if k >= 0 else 0
        )
        disc = (
            kunneth_structure(factors_a, factors_b, k + 1)
            if k + 1 <= total_dim
            else TRIVIAL_GROUP
        )
        rows.append((k, torus, disc))
    return rows


# ---------------------------------------------------------------------------
# sequence verification


@dataclass(frozen=True)
class SequenceCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class SequenceReport:
    degree: int
    checks: tuple

    @property
    def ok(self):
        return all(c.ok for c in self.checks)


def verify_sequences(K: SimplicialComplex, k, rng=None, trials=4) -> SequenceReport:
    """Constructive checks of both degree-k exact sequences.

    Produces explicit witness sparks for surjectivity of the curvature
    and class maps, flattens kernel elements, and cross-checks the
    dimension bookkeeping through independent rank computations.
    """
    if rng is None:
        rng = random.Random(0)
    n = K.dimension
    checks = []

    H_next = integer_cohomology(K, k + 1) if k + 1 <= n else None
    free_next, tor_next = (
        cohomology_generators(K, k + 1) if k + 1 <= n else ([], [])
    )

    # 1. every integral class downstairs is hit by a spark class map
    ok, bad = True, ""
    for g in free_next + [t[1] for t in tor_next]:
        s = spark_from_cocycle(K, g)
        want = H_next.coords(list(g.values))
        got = d2_class(K, s)
        if got != want:
            ok, bad = False, f"class mismatch {got} != {want}"
            break
        if not K.delta(curvature(K, s)).is_zero():
            ok, bad = False, "curvature of witness not closed"
            break
    checks.append(
        SequenceCheck(
            "class_map_surjective",
            ok,
            bad or f"{len(free_next) + len(tor_next)} generator witnesses",
        )
    )

    # 2. sparks with exact charge flatten to charge zero
    ok, bad = True, ""
    if k + 1 <= n:
        for _ in range(trials):
            a = K.cochain(
                k,
                tuple(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(K.n_simplices(k))
                ),
            )
            x = K.cochain(
                k, tuple(rng.randint(-3, 3) for _ in range(K.n_simplices(k)))
            )
            s = Spark(a, K.delta(x))
            S = H_next.preimage([int(v) for v in s.R.values])
            if S is None or not all(map(is_integer, S)):
                ok, bad = False, "no integral primitive for exact charge"
                break
            flattened = Spark(s.a + K.cochain(k, S), K.zero_cochain(k + 1))
            if not spark_equivalent(K, s, flattened):
                ok, bad = False, "flattened spark not equivalent"
                break
    checks.append(
        SequenceCheck(
            "exact_charge_flattens",
            ok,
            bad or (f"{trials} trials" if k + 1 <= n else "vacuous"),
        )
    )

    # 3. every closed rational cochain with integer periods is a curvature
    ok, bad = True, ""
    if k + 1 <= n:
        for _ in range(trials):
            S0 = K.zero_cochain(k + 1)
            for g in free_next:
                c = rng.randint(-2, 2)
                if c:
                    S0 = S0 + g.scale(c)
            for _, g, _ in tor_next:
                c = rng.randint(-1, 1)
                if c:
                    S0 = S0 + g.scale(c)
            b0 = K.cochain(
                k,
                tuple(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                    for _ in range(K.n_simplices(k))
                ),
            )
            w = S0 + K.delta(b0)
            # reconstruct a preimage from w alone
            coords = H_next.coords(list(w.values))[0]
            if any(c.denominator != 1 for c in coords):
                ok, bad = False, "periods not integral"
                break
            S = K.zero_cochain(k + 1)
            for c, g in zip(coords, free_next):
                if c:
                    S = S + g.scale(int(c))
            b_vec = H_next.preimage(
                [x - y for x, y in zip(w.values, S.values)]
            )
            if b_vec is None:
                ok, bad = False, "residual not exact over Q"
                break
            s = Spark(K.cochain(k, b_vec), S)
            if curvature(K, s) != w:
                ok, bad = False, "curvature does not reproduce target"
                break
    checks.append(
        SequenceCheck(
            "curvature_map_surjective",
            ok,
            bad or (f"{trials} trials" if k + 1 <= n else "vacuous"),
        )
    )

    # 4. torsion classes carry flat sparks of the right order
    ok, bad = True, ""
    zero = Spark(K.zero_cochain(k), K.zero_cochain(k + 1))
    for d, g, w in tor_next:
        s = flat_spark_from_torsion(K, d, g, w)
        if not curvature(K, s).is_zero():
            ok, bad = False, "torsion spark not flat"
            break
        if spark_equivalent(K, s, zero):
            ok, bad = False, "torsion spark trivial"
            break
        full = Spark(s.a.scale(d), s.R.scale(d))
        if not spark_equivalent(K, full, zero):
            ok, bad = False, f"order of torsion spark exceeds {d}"
            break
    checks.append(
        SequenceCheck(
            "flat_torsion_generators", ok, bad or f"{len(tor_next)} generators"
        )
    )

    # 5. each free degree-k class gives a circle family of flat sparks
    ok, bad = True, ""
    if 0 <= k <= n:
        free_k, _ = cohomology_generators(K, k)
        for g in free_k:
            s = Spark(g.scale(Fraction(1, 3)), K.zero_cochain(k + 1))
            if not curvature(K, s).is_zero():
                ok, bad = False, "torus spark not flat"
                break
            if spark_equivalent(K, s, zero):
                ok, bad = False, "fractional torus spark trivial"
                break
            whole = Spark(g, K.zero_cochain(k + 1))
            if not spark_equivalent(K, whole, zero):
                ok, bad = False, "integral cocycle spark should be trivial"
                break
        checks.append(
            SequenceCheck(
                "flat_torus_family", ok, bad or f"{len(free_k)} generators"
            )
        )
    else:
        checks.append(SequenceCheck("flat_torus_family", True, "vacuous"))

    # 6. dimension bookkeeping n_k = rank d_k + b_k + rank d_{k-1}
    if 0 <= k <= n:
        n_k = K.n_simplices(k)
        b_k = cohomology_structure(K, k).free_rank
        lhs = n_k
        rhs = delta_rank(K, k) + b_k + delta_rank(K, k - 1)
        checks.append(
            SequenceCheck(
                "dimension_bookkeeping",
                lhs == rhs,
                f"{lhs} == {delta_rank(K, k)} + {b_k} + {delta_rank(K, k - 1)}",
            )
        )
    else:
        checks.append(SequenceCheck("dimension_bookkeeping", True, "vacuous"))

    # 7. integer and rational routes agree on the torus rank
    if 0 <= k <= n:
        r_k, r_km1 = _rational_delta_rank(K, k), _rational_delta_rank(K, k - 1)
        b_rat = K.n_simplices(k) - r_k - r_km1
        b_int = cohomology_structure(K, k).free_rank
        checks.append(
            SequenceCheck(
                "rational_rank_agreement", b_rat == b_int, f"{b_rat} == {b_int}"
            )
        )
    else:
        checks.append(SequenceCheck("rational_rank_agreement", True, "vacuous"))

    # 8. curvature classes of witnesses match their integral classes
    ok, bad = True, ""
    for g in free_next:
        s = spark_from_cocycle(K, g)
        phi = curvature(K, s)
        got = H_next.coords(list(phi.values))[0]
        want = H_next.coords(list(g.values))[0]
        if got != want:
            ok, bad = False, f"{got} != {want}"
            break
    checks.append(
        SequenceCheck(
            "curvature_class_agreement", ok, bad or f"{len(free_next)} classes"
        )
    )

    # 9. the flat subgroup H^k(S^1) has the universal coefficient
    # structure Hom(H_k, S^1) = (S^1)^{b_k} x tor H_k, with b_k from the
    # rational coboundary ranks and the torsion from integral homology
    if 0 <= k <= n:
        got = circle_cohomology_structure(K, k)
        want = CircleGroupStructure(b_rat, homology_structure(K, k).torsion)
        checks.append(
            SequenceCheck(
                "flat_subgroup_structure",
                got == want,
                f"{got.format()} == {want.format()}",
            )
        )
    else:
        checks.append(SequenceCheck("flat_subgroup_structure", True, "vacuous"))

    return SequenceReport(degree=k, checks=tuple(checks))
