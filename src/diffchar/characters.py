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
    class_cocycle,
    coboundary_smith_form,
    cohomology_generators,
    cohomology_structure,
    delta_rank,
    group_name,
    homology_structure,
    integer_cohomology,
    kunneth_structure,
)
from .complexes import Cochain, SimplicialComplex, cached
from .exact import ScaledVector
from .hodge import spark_from_cocycle
from .sparks import (
    Spark,
    curvature,
    d2_class,
    flat_spark_from_torsion,
    random_cochain,
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


@cached("smith_certificate")
def _broken_identity(K: SimplicialComplex, k):
    """The identity the Smith form of delta_k breaks, as "delta_k: ...", or None; cached on K."""
    if not 0 <= k <= K.dimension:
        return None
    bad = coboundary_smith_form(K, k).broken_identity(K.delta_rows(k))
    return bad and f"delta_{k}: {bad}"


def character_structure(K: SimplicialComplex, k) -> CharacterStructure:
    """Structure of the degree-k character group, -1 <= k <= dim."""
    n = K.dimension
    if not (-1 <= k <= n):
        raise ValueError(f"degree {k} out of range [-1, {n}]")
    return CharacterStructure(
        degree=k,
        torus_rank=cohomology_structure(K, k).free_rank if k >= 0 else 0,
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
    # k = -1 is dual to the integers: a bare torus of rank b_0 = components
    b_k = cohomology_structure(K, k).free_rank if k >= 0 else 0
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


def _check(failures, detail):
    """The check that the generator ``failures`` runs, under its name.

    ``failures`` lazily yields failure messages.  Only its first message
    is drawn, so a failing check stops there and reports that message; a
    check that yields none passes with ``detail``.
    """
    bad = next(failures, None)
    return SequenceCheck(failures.__name__, bad is None, detail if bad is None else bad)


def verify_sequences(K: SimplicialComplex, k, rng=None, trials=4) -> SequenceReport:
    """Constructive checks of both degree-k exact sequences, -1 <= k <= dim.

    Produces explicit witness sparks for surjectivity of the curvature
    and class maps, flattens kernel elements, and cross-checks the
    dimension bookkeeping against certified Smith forms (check 7).  Each
    free and torsion generator of H^{k+1} gets one witness spark, which
    checks 1 and 8 both read.

    A failing check's detail is its first counterexample; a passing
    check's detail says what it checked, or is "vacuous" when its degree
    range is empty (k = -1 for the degree-k checks, k = dim for the
    random trials in degree k + 1).  A vacuous check draws nothing from
    ``rng``.
    """
    n = K.dimension
    if not (-1 <= k <= n):
        raise ValueError(f"degree {k} out of range [-1, {n}]")
    if rng is None:
        rng = random.Random(0)
    # H^{k+1}, its generators and one witness spark for each of them
    has_next = k < n
    H_next = integer_cohomology(K, k + 1) if has_next else None
    free_next, tor_next = cohomology_generators(K, k + 1) if has_next else ([], [])
    generators = free_next + [g for _, g, _ in tor_next]
    witnesses = [(g, spark_from_cocycle(K, g)) for g in generators]
    trial_detail = f"{trials} trials" if has_next else "vacuous"
    zero = Spark(K.zero_cochain(k), K.zero_cochain(k + 1))

    # degree k: b_k and the coboundary ranks, certified once per complex
    free_k, torus_detail = [], "vacuous"
    bookkeeping = rational = flat_subgroup = (True, "vacuous")
    if k >= 0:
        n_k = K.n_simplices(k)
        b_k = cohomology_structure(K, k).free_rank
        # the ranks of the cached Smith forms that check 7 certifies
        r_k, r_prev = delta_rank(K, k), delta_rank(K, k - 1)
        free_k = cohomology_generators(K, k)[0]
        torus_detail = f"{len(free_k)} generators"
        # 6. dimension bookkeeping n_k = rank d_k + b_k + rank d_{k-1}
        bookkeeping = (
            n_k == r_k + b_k + r_prev, f"{n_k} == {r_k} + {b_k} + {r_prev}"
        )
        # 7. the Smith forms of delta_{k-1} and delta_k, whose ranks check
        # 6 reads, are certified
        bad = _broken_identity(K, k - 1) or _broken_identity(K, k)
        certified = " and ".join(f"delta_{j}" for j in (k - 1, k) if j >= 0)
        rational = (not bad, bad or f"{certified} certified")
        # 9. the flat subgroup H^k(S^1) has the universal coefficient
        # structure Hom(H_k, S^1) = (S^1)^{b_k} x tor H_k, read from
        # integral homology alone, not from the coboundaries
        H_k = homology_structure(K, k)
        got = circle_cohomology_structure(K, k)
        want = CircleGroupStructure(H_k.free_rank, H_k.torsion)
        flat_subgroup = (got == want, f"{got.format()} == {want.format()}")

    def class_map_surjective():
        # 1. every integral class downstairs is hit by a spark class map
        for g, s in witnesses:
            want = H_next.coords(g.form)
            got = d2_class(K, s)
            if got != want:
                yield f"class mismatch {got} != {want}"
            if not K.delta(curvature(K, s)).is_zero():
                yield "curvature of witness not closed"

    def exact_charge_flattens():
        # 2. sparks with exact charge flatten to charge zero
        for _ in range(trials if has_next else 0):
            a = random_cochain(K, k, rng, 5, 4)
            x = random_cochain(K, k, rng, 3)
            s = Spark(a, K.delta(x))
            S = H_next.preimage(s.R.form)
            if S is None or not S.is_integral():
                yield "no integral primitive for exact charge"
            flattened = Spark(s.a + Cochain.from_scaled(k, S), K.zero_cochain(k + 1))
            if not spark_equivalent(K, s, flattened):
                yield "flattened spark not equivalent"

    def curvature_map_surjective():
        # 3. every closed rational cochain with integer periods is a curvature
        for _ in range(trials if has_next else 0):
            free_coeffs = [rng.randint(-2, 2) for _ in free_next]
            w = class_cocycle(K, k + 1, free_coeffs, [rng.randint(-1, 1) for _ in tor_next])
            w = w + K.delta(random_cochain(K, k, rng, 4, 4))
            # reconstruct a preimage from w alone
            coords = H_next.coords(w.form)[0]
            if not ScaledVector.of(coords).is_integral():
                yield "periods not integral"
            S = class_cocycle(K, k + 1, map(int, coords))
            b_vec = H_next.preimage((w - S).form)
            if b_vec is None:
                yield "residual not exact over Q"
            if curvature(K, Spark(Cochain.from_scaled(k, b_vec), S)) != w:
                yield "curvature does not reproduce target"

    def flat_torsion_generators():
        # 4. torsion classes carry flat sparks of the right order
        for d, g, w in tor_next:
            s = flat_spark_from_torsion(K, d, g, w)
            if not curvature(K, s).is_zero():
                yield "torsion spark not flat"
            if spark_equivalent(K, s, zero):
                yield "torsion spark trivial"
            if not spark_equivalent(K, Spark(s.a.scale(d), s.R.scale(d)), zero):
                yield f"order of torsion spark exceeds {d}"

    def flat_torus_family():
        # 5. each free degree-k class gives a circle family of flat sparks
        for g in free_k:
            s = Spark(g.scale(Fraction(1, 3)), K.zero_cochain(k + 1))
            if not curvature(K, s).is_zero():
                yield "torus spark not flat"
            if spark_equivalent(K, s, zero):
                yield "fractional torus spark trivial"
            if not spark_equivalent(K, Spark(g, K.zero_cochain(k + 1)), zero):
                yield "integral cocycle spark should be trivial"

    def curvature_class_agreement():
        # 8. curvature classes of witnesses match their integral classes
        for g, s in witnesses[:len(free_next)]:
            got = H_next.coords(curvature(K, s).form)[0]
            want = H_next.coords(g.form)[0]
            if got != want:
                yield f"{got} != {want}"

    return SequenceReport(degree=k, checks=(
        _check(class_map_surjective(), f"{len(witnesses)} generator witnesses"),
        _check(exact_charge_flattens(), trial_detail),
        _check(curvature_map_surjective(), trial_detail),
        _check(flat_torsion_generators(), f"{len(tor_next)} generators"),
        _check(flat_torus_family(), torus_detail),
        SequenceCheck("dimension_bookkeeping", *bookkeeping),
        SequenceCheck("rational_rank_agreement", *rational),
        _check(curvature_class_agreement(), f"{len(free_next)} classes"),
        SequenceCheck("flat_subgroup_structure", *flat_subgroup),
    ))
