"""Circle-valued phases in every low degree, on one chart or glued.

One construction covers the classical models.  Rational phases theta on
the k-simplices, read mod 1, have a phase curvature: the principal
value of delta(theta) on each (k+1)-simplex.  They give the spark

    (theta mod 1, phase_curvature - delta(theta mod 1)),

whose integral part is a cocycle unless the phases wind around a
(k+2)-simplex, and their holonomy on an integral k-cycle is theta on
that cycle, mod 1.  Gauge moves add the coboundary of (k-1)-phases and
an integral k-cochain; none of these values moves.  Degree 0 is a
circle-valued function, degree 1 a lattice circle connection, whose
phase curvature is its field strength with integer total flux (the
Chern number) on a closed oriented surface, and degree 2 a gerbe.  In
every degree k >= 1, flat phases trivialize on each closed vertex star
through an explicit cone primitive.

Every degree k also comes in glued form: over a PatchCover, layer m
carries (k-m)-phases per (m+1)-fold overlap, m = 0..k; gerbes are
k = 2, with triangle phases per patch, edge data per double overlap
and vertex data per triple overlap.  The total differential returns
the glued curvature together with the integer obstruction on
(k+2)-fold overlaps.  Glued along assignments of simplices to patches,
the layers give one spark, whose holonomy and equivalence class are
those of the layered data.

Principal values live in (-1/2, 1/2]; a value landing exactly on 1/2
where a branch has to be chosen raises PhaseError rather than picking
a side silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cohomology import cohomology_structure
from .complexes import (
    Chain,
    Cochain,
    ComplexEmbedding,
    SimplicialComplex,
    _sort_sign,
    closed_star,
    induced_subcomplex,
)
from .sparks import Spark, holonomy, mod1


class GerbeError(ValueError):
    """Cover or layer data that does not fit together."""


class PhaseError(ValueError):
    """Phases on the branch cut, or phases that wind."""


def principal_value(x) -> Fraction:
    """Representative of x mod 1 in (-1/2, 1/2]."""
    f = mod1(x)
    return f if f <= Fraction(1, 2) else f - 1


def _integral(u: Cochain) -> Cochain:
    if not u.is_integral():
        raise AssertionError("integer correction must be integral")
    return u


def _phases_mod1(u: Cochain) -> Cochain:
    return Cochain(u.degree, tuple(mod1(x) for x in u.values))


# ---------------------------------------------------------------------------
# phases on one chart, in any degree


def phase_curvature(K: SimplicialComplex, theta: Cochain) -> Cochain:
    """Principal values of delta(theta), one per (k+1)-simplex.

    For edge phases this is the field strength of the connection.  It
    is unchanged by gauge moves, which shift delta(theta) by integers.
    """
    vals = tuple(principal_value(x) for x in K.delta(theta).values)
    if Fraction(1, 2) in vals:
        raise PhaseError(
            f"a degree-{theta.degree + 1} phase step of one half sits on the branch cut"
        )
    return Cochain(theta.degree + 1, vals)


def phase_spark(K: SimplicialComplex, theta: Cochain) -> Spark:
    """The spark (theta mod 1, phase_curvature - delta(theta mod 1)).

    Its curvature is the phase curvature and its holonomy that of
    theta; integer lifts of the phases give the same spark.  When the
    principal values fail to close up around a (k+2)-simplex the
    charge is no cocycle: the phases wind and no spark exists.
    """
    a = _phases_mod1(theta)
    R = _integral(phase_curvature(K, theta) - K.delta(a))
    if not K.delta(R).is_zero():
        raise PhaseError(
            f"degree-{theta.degree} phase winds around a {theta.degree + 2}-simplex"
        )
    return Spark(a, R)


def spark_phases(s: Spark) -> Cochain:
    """Phases in [0, 1) of a spark: the inverse of phase_spark."""
    return _phases_mod1(s.a)


def phase_holonomy(K: SimplicialComplex, theta: Cochain, z: Chain) -> Fraction:
    """Phase mod 1 of theta on an integral k-cycle z.

    This is the holonomy of the spark (theta, 0), so z goes through the
    spark checks: matching degree, integral, closed.  Gauge moves do
    not change it.
    """
    return holonomy(K, Spark(theta, K.zero_cochain(theta.degree + 1)), z)


def gauge(K: SimplicialComplex, theta: Cochain, lam: Cochain, shift=None) -> Cochain:
    """theta plus the coboundary of (k-1)-phases plus an integral shift."""
    out = theta + K.delta(lam)
    if shift is None:
        return out
    if not shift.is_integral():
        raise ValueError("shift must be integral")
    return out + shift


def chern_cocycle(K: SimplicialComplex, theta: Cochain):
    """Field strength of a connection together with its integer part.

    Returns (F, N) with delta(theta) = F + N: F is the phase curvature
    and N is integral.  Against a closed surface cycle the F-total
    equals minus the N-total, so it is an integer, the Chern number; F
    itself is invariant under gauge moves.
    """
    F = phase_curvature(K, theta)
    return F, _integral(K.delta(theta) - F)


def total_flux(K: SimplicialComplex, theta: Cochain):
    """Integer total flux through a closed oriented surface."""
    z = K.fundamental_cycle()
    if z is None or K.dimension != 2:
        raise PhaseError("total flux needs a closed oriented surface")
    flux = K.evaluate(phase_curvature(K, theta), z)
    if isinstance(flux, Fraction):
        raise AssertionError("total flux must be an integer")
    return flux


def star_trivialization(K: SimplicialComplex, t: Cochain, v):
    """Cone primitive of k-phases, k >= 1, on the closed star of vertex v.

    Returns {(k-1)-simplex: phase} on the star's (k-1)-simplices; those
    through v carry 0 and every other one s receives the phase of the
    cone k-simplex on v and s, signed by the position of v in the
    sorted cone.  For flat phases the mod-1 differential of this
    primitive reproduces t on every k-simplex of the closed star.
    """
    k = t.degree
    if k < 1:
        raise ValueError("the cone primitive needs phases of degree at least 1")
    index = K.index[k]
    alpha = {}
    for s in K.simplices[k - 1]:
        cone = tuple(sorted(set(s) | {v}))
        if v in s:
            alpha[s] = Fraction(0)
        elif cone in index:
            alpha[s] = (-1) ** cone.index(v) * Fraction(t.values[index[cone]])
    return alpha


# ---------------------------------------------------------------------------
# the cover model, in any degree
#
# A degree-k character can also be presented in layers over a cover:
# layer m holds a rational (k-m)-cochain per (m+1)-fold overlap,
# antisymmetric in the patch indices, for m = 0..k.  The layers are
# stored as ambient cochains supported on their overlap, which keeps
# restriction maps trivial.  The total differential of such a package
# splits into a glued curvature (k+1)-cochain and an integral
# obstruction on (k+2)-fold overlaps; gauge moves shift the layers by a
# (k-1-m)-cochain per (m+1)-fold overlap plus integer constants on the
# last layer.  Gerbes are k = 2, with patch, pair and triple layers.


@dataclass(frozen=True)
class PatchCover:
    """Cover of a complex by face-closed patches, with its overlaps.

    ``embeddings[i]`` is the i-th patch as a ComplexEmbedding.
    ``acyclicity_flags`` records every patch, double and triple overlap
    whose reduced rational cohomology fails to vanish in degrees 0
    through 2; flagged covers are still accepted, but closed layer
    entries on a flagged overlap need not have a primitive there.
    """

    K: SimplicialComplex
    embeddings: tuple
    simplex_sets: tuple
    _levels: list = field(default_factory=list, repr=False, compare=False)

    @property
    def n_patches(self):
        return len(self.embeddings)

    def overlaps(self, n):
        """The nonempty n-fold overlaps, keyed by sorted index tuples."""
        levels = self._levels
        if not levels:
            levels.append({(i,): emb for i, emb in enumerate(self.embeddings)})
        # an n-fold overlap extends an (n-1)-fold one by a higher index; it
        # can be nonempty only if all its (n-1)-fold faces are overlaps
        while len(levels) < n:
            lower, level = levels[-1], {}
            for key in sorted(lower):
                for last in range(key[-1] + 1, self.n_patches):
                    new = key + (last,)
                    if all(new[:m] + new[m + 1:] in lower for m in range(len(key))):
                        inter = frozenset.intersection(*(self.simplex_sets[i] for i in new))
                        if inter:
                            level[new] = induced_subcomplex(self.K, inter)
            levels.append(level)
        return levels[n - 1]

    @cached_property
    def acyclicity_flags(self):
        return tuple(
            flag
            for n, kind in enumerate(("patch", "double", "triple"), start=1)
            for key, emb in self.overlaps(n).items()
            for flag in _reduced_flags(kind, key, emb.sub)
        )

    def patch_of(self, simp):
        """Lowest patch index containing the simplex, or None."""
        for i, s in enumerate(self.simplex_sets):
            if simp in s:
                return i
        return None


def _embedding_simplices(emb: ComplexEmbedding):
    out = set()
    for k, table in emb.simplex_to_parent.items():
        for p in table:
            out.add(emb.parent.simplices[k][p])
    return frozenset(out)


def _reduced_flags(kind, key, sub: SimplicialComplex):
    flags = []
    for k in range(0, min(sub.dimension, 2) + 1):
        rank = cohomology_structure(sub, k).free_rank
        reduced = rank - 1 if k == 0 else rank
        if reduced:
            flags.append((kind, key, k, reduced))
    return flags


def patch_cover(K: SimplicialComplex, patch_simplices) -> PatchCover:
    """Build a cover from lists of simplices, one list per patch.

    Each patch is replaced by its face closure.  The patches must
    jointly contain every simplex of the complex, else the glued
    curvature would have holes.
    """
    if not patch_simplices:
        raise GerbeError("a cover needs at least one patch")
    embeddings = [induced_subcomplex(K, simps) for simps in patch_simplices]
    sets = [_embedding_simplices(emb) for emb in embeddings]
    covered = frozenset().union(*sets)
    for k in range(K.dimension + 1):
        for t in K.simplices[k]:
            if t not in covered:
                raise GerbeError(f"cover misses simplex {t}")
    return PatchCover(K, tuple(embeddings), tuple(sets))


def star_cover(K: SimplicialComplex) -> PatchCover:
    """The default cover: one closed vertex star per vertex."""
    return patch_cover(K, [closed_star(K, v) for v in range(K.n_vertices)])


@dataclass(frozen=True)
class CechGerbe:
    """Layered data of degree k = len(layers) - 1 over a PatchCover.

    ``layers[m]`` maps sorted (m+1)-fold overlap keys to ambient
    (k-m)-cochains supported on the overlap; absent keys are zero, and
    unsorted index requests are resolved through the antisymmetry sign.
    """

    cover: PatchCover
    layers: tuple


def _parent_indices(emb: ComplexEmbedding, k):
    return emb.simplex_to_parent.get(k, [])


def _support_ok(emb: ComplexEmbedding, u: Cochain) -> bool:
    inside = set(_parent_indices(emb, u.degree))
    return all(not v for idx, v in enumerate(u.values) if idx not in inside)


def _layer(cover: PatchCover, n, layer, degree):
    """Validated copy of one layer, {sorted n-fold overlap key: cochain}.

    Every key must name an overlap of the cover and every value be an
    ambient cochain of the given degree supported on that overlap.
    """
    K = cover.K
    overlaps = cover.overlaps(n)
    what = {1: "patch", 2: "double overlap", 3: "triple overlap"}.get(n, f"{n}-fold overlap")
    out = {}
    for key in sorted(layer or {}):
        u = layer[key]
        key = tuple(key)
        if key != tuple(sorted(key)) or key not in overlaps:
            raise GerbeError(f"{key} is not a sorted {what} of the cover")
        if u.degree != degree or len(u.values) != K.n_simplices(degree):
            raise GerbeError(f"{what} layer entries are ambient {degree}-cochains")
        if not _support_ok(overlaps[key], u):
            raise GerbeError(f"{what} cochain {key} has support outside its overlap")
        out[key] = u
    return out


def _cech(layer, key, zero):
    """Cech coboundary of a layer at a sorted overlap key."""
    out = zero
    for m in range(len(key)):
        u = layer.get(key[:m] + key[m + 1:], zero)
        out = out - u if m % 2 else out + u
    return out


def cech_gerbe(cover: PatchCover, layers):
    """Assemble and validate the layers L_0..L_k of degree-k data over a cover.

    A layer given as None is zero.  Every supplied cochain has to be
    supported on its overlap and carry the right degree.
    """
    k = len(layers) - 1
    return CechGerbe(
        cover, tuple(_layer(cover, m + 1, layer, k - m) for m, layer in enumerate(layers))
    )


def gerbe_total_differential(g: CechGerbe):
    """Split the total differential into curvature and obstruction.

    Returns (phi, R): phi is the glued ambient (k+1)-cochain of
    patchwise coboundaries, R maps each (k+2)-fold overlap to its
    integral 0-cochain of alternating sums of the last layer.  Raises
    GerbeError when the patchwise curvatures disagree on an overlap,
    when a middle layer of the total differential fails to vanish, or
    when R is not integral.
    """
    cover = g.cover
    K = cover.K
    k = len(g.layers) - 1
    # the middle layers: the Cech coboundary of one layer plus (-1)^n
    # times the simplicial coboundary of the next, on each n-fold overlap
    for n in range(2, k + 2):
        lower, upper, d = g.layers[n - 2], g.layers[n - 1], k + 2 - n
        for key, emb in sorted(cover.overlaps(n).items()):
            d_upper = K.delta(upper.get(key, K.zero_cochain(d - 1)))
            mism = _cech(lower, key, K.zero_cochain(d)) + d_upper.scale((-1) ** n)
            if any(mism.values[idx] for idx in _parent_indices(emb, d)):
                raise GerbeError(f"layers {n - 2} and {n - 1} inconsistent on overlap {key}")
    phi_vals = [None] * K.n_simplices(k + 1)
    for key, emb in cover.overlaps(1).items():
        local_phi = K.delta(g.layers[0].get(key, K.zero_cochain(k)))
        for idx in _parent_indices(emb, k + 1):
            v = local_phi.values[idx]
            if phi_vals[idx] is None:
                phi_vals[idx] = v
            elif phi_vals[idx] != v:
                raise GerbeError("curvature mismatch between patches")
    phi = Cochain(k + 1, tuple(v if v is not None else 0 for v in phi_vals))
    R = {}
    for key, emb in sorted(cover.overlaps(k + 2).items()):
        r = _cech(g.layers[k], key, K.zero_cochain(0))
        vals = [0] * K.n_simplices(0)
        for idx in _parent_indices(emb, 0):
            v = r.values[idx]
            if v != int(v):
                raise GerbeError(f"non-integral obstruction on overlap {key}")
            vals[idx] = int(v)
        R[key] = Cochain(0, tuple(vals))
    return phi, R


def _assignment(cover: PatchCover, d, given):
    """One subordinate patch index per d-simplex."""
    simplices = cover.K.simplices.get(d, [])
    if given is None:
        return [cover.patch_of(simp) for simp in simplices]
    if len(given) != len(simplices):
        raise GerbeError(
            f"an assignment names one patch per {d}-simplex: "
            f"{len(given)} given for {len(simplices)}"
        )
    for simp, i in zip(simplices, given):
        if not 0 <= i < cover.n_patches or simp not in cover.simplex_sets[i]:
            raise GerbeError(f"assignment of {simp} to patch {i} is not subordinate")
    return list(given)


def _entry(layer, key, idx):
    """Value at simplex idx of an antisymmetric layer, at a key in any order."""
    u = layer.get(tuple(sorted(key))) if len(set(key)) == len(key) else None
    return 0 if u is None else _sort_sign(key) * u.values[idx]


def gerbe_spark(g: CechGerbe, assignments=None) -> Spark:
    """The spark of degree-k layers, glued along patch assignments.

    ``assignments`` maps a degree d to one subordinate patch per
    d-simplex; degrees left out take the lowest patch.  The potential
    on a k-simplex sums L_m over the chains of codimension-one faces
    sigma = tau_0 > tau_1 > ... > tau_m: L_m is read on tau_m at the
    patches of tau_m, ..., tau_0, in that order, and the chain is
    signed by (-1)^(a+j) for tau_(j+1) the a-th face of tau_j.  The
    charge is the glued curvature minus delta(a); the layer checks of
    gerbe_total_differential make it an integral cocycle.  Other
    subordinate assignments and gauge moves give equivalent sparks.
    """
    phi, _ = gerbe_total_differential(g)
    return _glued_spark(g, phi, assignments)


def _glued_spark(g: CechGerbe, phi, assignments=None) -> Spark:
    """:func:`gerbe_spark` of g, given its checked glued curvature phi."""
    cover = g.cover
    K = cover.K
    k = len(g.layers) - 1
    assignments = assignments or {}
    if not set(assignments) <= set(range(k + 1)):
        raise GerbeError(f"assignments are given for degrees 0..{k}")
    rho = [_assignment(cover, d, assignments.get(d)) for d in range(k + 1)]

    def glued(tau, m, key):
        idx = K.index[k - m][tau]
        key = (rho[k - m][idx],) + key
        x = _entry(g.layers[m], key, idx)
        for a in range(len(tau) if m < k else 0):
            x += (-1) ** (a + m) * glued(tau[:a] + tau[a + 1:], m + 1, key)
        return x

    a = Cochain(k, tuple(glued(sigma, 0, ()) for sigma in K.simplices.get(k, ())))
    return Spark(a, _integral(phi - K.delta(a)))
