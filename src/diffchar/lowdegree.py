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

Gerbes also come in glued form: a PatchCover carries triangle phases
per patch, edge gluing data per double overlap, and vertex data per
triple overlap.  The total differential returns the glued curvature
together with the integer obstruction on quadruple overlaps.  Glued
along assignments of simplices to patches, the layers give one spark,
whose holonomy and equivalence class are the surface holonomy and the
gauge class of the gerbe.  Flat gerbes also reduce to locally constant
triple data, a normal form whose class decides gauge equivalence on
its own.

Principal values live in (-1/2, 1/2]; a value landing exactly on 1/2
where a branch has to be chosen raises PhaseError rather than picking
a side silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cohomology import cohomology_structure, integer_cohomology
from .complexes import (
    Chain,
    Cochain,
    ComplexEmbedding,
    SimplicialComplex,
    _sort_sign,
    closed_star,
    induced_subcomplex,
)
from .exact import smith_normal_form
from .sparks import Spark, holonomy, mod1, spark_equivalent


class GerbeError(ValueError):
    """Cover or layer data that does not fit together."""


class PhaseError(Exception):
    """Phases on the branch cut, or phases that wind."""


def principal_value(x) -> Fraction:
    """Representative of x mod 1 in (-1/2, 1/2]."""
    f = mod1(x)
    return f if f <= Fraction(1, 2) else f - 1


def _integral(u: Cochain) -> Cochain:
    if not u.is_integral():
        raise AssertionError("integer correction must be integral")
    return Cochain(u.degree, tuple(int(v) for v in u.values))


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
    if flux != int(flux):
        raise AssertionError("total flux must be an integer")
    return int(flux)


def _in_closed_star(K: SimplicialComplex, v, simp) -> bool:
    cone = tuple(sorted(set(simp) | {v}))
    return cone in K.index.get(len(cone) - 1, {})


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


def check_star_trivialization(K: SimplicialComplex, t: Cochain, v) -> bool:
    """Does the cone primitive reproduce t mod 1 on the whole closed star?"""
    k = t.degree
    alpha = star_trivialization(K, t, v)
    a = K.cochain(k - 1, (alpha.get(s, 0) for s in K.simplices[k - 1]))
    rest = gauge(K, t, -a)
    return all(
        mod1(rest.values[i]) == 0
        for i, simp in enumerate(K.simplices[k])
        if _in_closed_star(K, v, simp)
    )


# ---------------------------------------------------------------------------
# gerbes over a patch cover
#
# A gerbe can also be presented in pieces: a rational 2-cochain per
# patch of a cover, a 1-cochain per double overlap and a 0-cochain per
# triple overlap, antisymmetric in the patch indices.  The layers are
# stored as ambient cochains supported on their overlap, which keeps
# restriction maps trivial.  The total differential of such a package
# splits into a glued curvature 3-cochain and an integral obstruction
# on quadruple overlaps; gauge moves shift the layers by a 1-cochain
# per patch and a 0-cochain per double overlap plus integer constants.


@dataclass(frozen=True)
class PatchCover:
    """Cover of a complex by face-closed patches, with its overlaps.

    ``embeddings[i]`` is the i-th patch as a ComplexEmbedding; the
    double, triple and quadruple overlap dictionaries are keyed by
    sorted index tuples and hold only the nonempty intersections.
    ``acyclicity_flags`` records every overlap whose reduced rational
    cohomology fails to vanish in the degrees the gerbe machinery
    solves over (0 through 2); flagged covers are still accepted, but
    the gauge solves may then report unsolvable systems.
    """

    K: SimplicialComplex
    embeddings: tuple
    simplex_sets: tuple
    doubles: dict
    triples: dict
    quads: dict
    acyclicity_flags: tuple

    @property
    def n_patches(self):
        return len(self.embeddings)

    def overlaps(self, n):
        """The nonempty n-fold overlaps, n = 1..4, keyed by sorted index tuples."""
        if n == 1:
            return {(i,): emb for i, emb in enumerate(self.embeddings)}
        return (self.doubles, self.triples, self.quads)[n - 2]

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
    curvature of a gerbe would have holes.
    """
    if not patch_simplices:
        raise GerbeError("a cover needs at least one patch")
    embeddings = []
    sets = []
    for simps in patch_simplices:
        emb = induced_subcomplex(K, simps)
        embeddings.append(emb)
        sets.append(_embedding_simplices(emb))
    covered = frozenset().union(*sets)
    for k in range(K.dimension + 1):
        for t in K.simplices[k]:
            if t not in covered:
                raise GerbeError(f"cover misses simplex {t}")
    # an n-fold overlap extends an (n-1)-fold one by a higher index; it
    # can be nonempty only if all its (n-1)-fold faces are overlaps
    levels = [{(i,): emb for i, emb in enumerate(embeddings)}]
    for n in (2, 3, 4):
        lower, level = levels[-1], {}
        for key in sorted(lower):
            for last in range(key[-1] + 1, len(sets)):
                new = key + (last,)
                if all(new[:m] + new[m + 1:] in lower for m in range(n - 1)):
                    inter = frozenset.intersection(*(sets[i] for i in new))
                    if inter:
                        level[new] = induced_subcomplex(K, inter)
        levels.append(level)
    flags = [
        flag
        for level, kind in zip(levels, ("patch", "double", "triple"))
        for key, emb in level.items()
        for flag in _reduced_flags(kind, key, emb.sub)
    ]
    return PatchCover(
        K=K,
        embeddings=tuple(embeddings),
        simplex_sets=tuple(sets),
        doubles=levels[1],
        triples=levels[2],
        quads=levels[3],
        acyclicity_flags=tuple(flags),
    )


def star_cover(K: SimplicialComplex) -> PatchCover:
    """The default cover: one closed vertex star per vertex."""
    return patch_cover(K, [closed_star(K, v) for v in range(K.n_vertices)])


def same_cover(c1: PatchCover, c2: PatchCover) -> bool:
    return c1.K is c2.K and c1.simplex_sets == c2.simplex_sets


@dataclass(frozen=True)
class CechGerbe:
    """Three-layer gerbe data over a PatchCover.

    ``patch_part[i]`` is an ambient 2-cochain supported on patch i,
    ``pair_part[(i, j)]`` an ambient 1-cochain supported on the double
    overlap, ``triple_part[(i, j, k)]`` an ambient 0-cochain supported
    on the triple overlap; keys are sorted and unsorted index requests
    are resolved through the antisymmetry sign.
    """

    cover: PatchCover
    patch_part: tuple
    pair_part: dict
    triple_part: dict


def _parent_indices(emb: ComplexEmbedding, k):
    return emb.simplex_to_parent.get(k, [])


def _support_ok(emb: ComplexEmbedding, u: Cochain) -> bool:
    inside = set(_parent_indices(emb, u.degree))
    return all(not v for idx, v in enumerate(u.values) if idx not in inside)


def _masked(emb: ComplexEmbedding, u: Cochain) -> Cochain:
    inside = set(_parent_indices(emb, u.degree))
    vals = tuple(v if idx in inside else 0 for idx, v in enumerate(u.values))
    return Cochain(u.degree, vals)


def _layer(cover: PatchCover, n, layer, degree):
    """Validated copy of one layer, {sorted n-fold overlap key: cochain}.

    Every key must name an overlap of the cover and every value be an
    ambient cochain of the given degree supported on that overlap.
    """
    K = cover.K
    overlaps = cover.overlaps(n)
    what = ("patch", "double overlap", "triple overlap")[n - 1]
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


def _alternating(layer, idx, zero):
    """Entry of an antisymmetric layer at an index tuple in any order."""
    u = layer.get(tuple(sorted(idx))) if len(set(idx)) == len(idx) else None
    if u is None:
        return zero
    return u if _sort_sign(idx) == 1 else -u


def _cech(layer, key, zero):
    """Cech coboundary of a layer at a sorted overlap key."""
    out = zero
    for m in range(len(key)):
        u = _alternating(layer, key[:m] + key[m + 1:], zero)
        out = out - u if m % 2 else out + u
    return out


def cech_gerbe(cover: PatchCover, patch_part=None, pair_part=None, triple_part=None):
    """Assemble and validate gerbe layer data over a cover.

    Missing layers default to zero.  Every supplied cochain has to be
    supported on its overlap and carry the right degree.
    """
    patches = list(patch_part or ())
    if len(patches) > cover.n_patches:
        raise GerbeError("one patch cochain per patch, in order")
    patches += [cover.K.zero_cochain(2)] * (cover.n_patches - len(patches))
    checked = _layer(cover, 1, {(i,): u for i, u in enumerate(patches)}, 2)
    return CechGerbe(
        cover,
        tuple(checked[(i,)] for i in range(cover.n_patches)),
        _layer(cover, 2, pair_part, 1),
        _layer(cover, 3, triple_part, 0),
    )


def gerbe_from_global(cover: PatchCover, t: Cochain) -> CechGerbe:
    """Single-chart gerbe seen over a cover: restrict t to each patch.

    The pair and triple layers vanish because the restrictions agree on
    every overlap.
    """
    if t.degree != 2:
        raise GerbeError("gerbe phases live on triangles")
    parts = [_masked(emb, t) for emb in cover.embeddings]
    return cech_gerbe(cover, parts)


def gerbe_total_differential(g: CechGerbe):
    """Split the total differential into curvature and obstruction.

    Returns (phi, R): phi is the glued ambient 3-cochain of patchwise
    coboundaries, R maps each quadruple overlap to its integral
    0-cochain of alternating triple sums.  Raises GerbeError when the
    patchwise curvatures disagree on an overlap, when a middle layer of
    the total differential fails to vanish, or when R is not integral.
    """
    cover = g.cover
    K = cover.K
    # the middle layers: the Cech coboundary of one layer plus (-1)^n
    # times the simplicial coboundary of the next, on each n-fold overlap
    patches = {(i,): u for i, u in enumerate(g.patch_part)}
    layers = (
        (patches, g.pair_part, 2, "patch and pair"),
        (g.pair_part, g.triple_part, 1, "pair and triple"),
    )
    for n, (lower, upper, k, what) in enumerate(layers, start=2):
        for key, emb in sorted(cover.overlaps(n).items()):
            d_upper = K.delta(upper.get(key, K.zero_cochain(k - 1)))
            mism = _cech(lower, key, K.zero_cochain(k)) + d_upper.scale((-1) ** n)
            if any(mism.values[idx] for idx in _parent_indices(emb, k)):
                raise GerbeError(f"{what} layers inconsistent on overlap {key}")
    n3 = K.n_simplices(3)
    phi_vals = [None] * n3
    for i, emb in enumerate(cover.embeddings):
        local_phi = K.delta(g.patch_part[i])
        for idx in _parent_indices(emb, 3):
            v = local_phi.values[idx]
            if phi_vals[idx] is None:
                phi_vals[idx] = v
            elif phi_vals[idx] != v:
                raise GerbeError("curvature mismatch between patches")
    phi = Cochain(3, tuple(v if v is not None else 0 for v in phi_vals))
    R = {}
    for key, emb in sorted(cover.quads.items()):
        r = _cech(g.triple_part, key, K.zero_cochain(0))
        vals = [0] * K.n_simplices(0)
        for idx in _parent_indices(emb, 0):
            v = r.values[idx]
            if v != int(v):
                raise GerbeError(f"non-integral obstruction on overlap {key}")
            vals[idx] = int(v)
        R[key] = Cochain(0, tuple(vals))
    return phi, R


def _locally_constant_on(K, emb, u: Cochain) -> bool:
    du = K.delta(u)
    return all(not du.values[idx] for idx in _parent_indices(emb, 1))


def cech_gauge(g: CechGerbe, patch_gauge=None, pair_gauge=None, shift=None):
    """Apply a gauge move to gerbe layers.

    patch_gauge maps patch index -> ambient 1-cochain on the patch,
    pair_gauge maps sorted double key -> ambient 0-cochain on the
    overlap, shift maps sorted triple key -> integral locally constant
    0-cochain on the overlap.  The glued curvature is unchanged; the
    quadruple obstruction moves only by alternating sums of the shift,
    so it stays integral, and surface holonomy does not move at all.
    """
    cover = g.cover
    K = cover.K
    b1 = _layer(cover, 1, {(i,): u for i, u in (patch_gauge or {}).items()}, 1)
    b0 = _layer(cover, 2, pair_gauge, 0)
    s0 = _layer(cover, 3, shift, 0)
    for key, u in s0.items():
        if not u.is_integral():
            raise GerbeError("shifts must be integral")
        if not _locally_constant_on(K, cover.triples[key], u):
            raise GerbeError("shifts must be locally constant on their overlap")
    z1, z0 = K.zero_cochain(1), K.zero_cochain(0)
    new_patch = [
        g.patch_part[i] + _masked(emb, K.delta(b1.get((i,), z1)))
        for i, emb in enumerate(cover.embeddings)
    ]
    new_pair = {}
    for key, emb in cover.doubles.items():
        move = K.delta(b0.get(key, z0)) - _cech(b1, key, z1)
        u = g.pair_part.get(key, z1) + _masked(emb, move)
        if not u.is_zero():
            new_pair[key] = u
    new_triple = {}
    for key, emb in cover.triples.items():
        u = g.triple_part.get(key, z0) + _masked(emb, _cech(b0, key, z0))
        u = u + s0.get(key, z0)
        if not u.is_zero():
            new_triple[key] = u
    return cech_gerbe(cover, new_patch, new_pair, new_triple)


def _assignment(cover: PatchCover, k, given):
    """Per-simplex patch indices for degree k, validated subordinate."""
    K = cover.K
    n = K.n_simplices(k)
    if given is None:
        out = []
        for simp in K.simplices.get(k, []):
            i = cover.patch_of(simp)
            if i is None:
                raise GerbeError(f"no patch contains {simp}")
            out.append(i)
        return out
    out = [given[idx] for idx in range(n)]
    for idx, i in enumerate(out):
        simp = K.simplices[k][idx]
        if not 0 <= i < cover.n_patches or simp not in cover.simplex_sets[i]:
            raise GerbeError(f"assignment of {simp} to patch {i} is not subordinate")
    return out


def gerbe_spark(
    g: CechGerbe,
    face_patches=None,
    edge_patches=None,
    vertex_patches=None,
) -> Spark:
    """The spark of a three-layer gerbe, glued along patch assignments.

    Write i for the patch of a triangle, j for that of its a-th edge e_a
    and v_b for the b-th vertex of e_a.  The potential on the triangle
    is B_i plus, for a = 0, 1, 2, the term (-1)^a times
    A_(j,i)(e_a) + sum_b (-1)^b C_(rho_0(v_b),j,i)(v_b), where B, A and
    C are the patch, pair and triple layers and rho_0 assigns vertices.
    The charge is the glued curvature minus delta(a); the layer checks
    of gerbe_total_differential make it an integral cocycle.  Other
    subordinate assignments and gauge moves give equivalent sparks.
    """
    phi, _ = gerbe_total_differential(g)
    return _glued_spark(g, phi, face_patches, edge_patches, vertex_patches)


def _glued_spark(g: CechGerbe, phi, face_patches=None, edge_patches=None,
                 vertex_patches=None) -> Spark:
    """:func:`gerbe_spark` of g, given its checked glued curvature phi."""
    cover = g.cover
    K = cover.K
    rho2 = _assignment(cover, 2, face_patches)
    rho1 = _assignment(cover, 1, edge_patches)
    rho0 = _assignment(cover, 0, vertex_patches)
    z1, z0 = K.zero_cochain(1), K.zero_cochain(0)
    vals = []
    for idx, (tri, i) in enumerate(zip(K.simplices.get(2, ()), rho2)):
        x = g.patch_part[i].values[idx]
        for a in range(3):
            e = tri[:a] + tri[a + 1:]
            e_idx = K.index[1][e]
            j = rho1[e_idx]
            y = _alternating(g.pair_part, (j, i), z1).values[e_idx]
            for b, v in enumerate(e):
                corner = _alternating(g.triple_part, (rho0[v], j, i), z0)
                y += (-1) ** b * corner.values[v]
            x += (-1) ** a * y
        vals.append(x)
    a = Cochain(2, tuple(vals))
    return Spark(a, _integral(phi - K.delta(a)))


def gerbe_holonomy(
    g: CechGerbe,
    z: Chain,
    face_patches=None,
    edge_patches=None,
    vertex_patches=None,
) -> Fraction:
    """Phase mod 1 of a three-layer gerbe on an integral 2-cycle.

    This is the holonomy of the glued spark, so z goes through the
    spark checks.  The value does not depend on the assignments and
    does not move under gauge moves.
    """
    s = gerbe_spark(g, face_patches, edge_patches, vertex_patches)
    return holonomy(g.cover.K, s, z)


def _solve_on_overlap(emb: ComplexEmbedding, target: Cochain, what):
    """Exact primitive of a cochain on an overlap, scattered ambiently."""
    K = emb.parent
    k = target.degree
    local = emb.restrict_cochain(target)
    x = integer_cohomology(emb.sub, k).preimage_rat(local.values)
    if x is None:
        raise GerbeError(
            f"no primitive for the {what} layer on an overlap; "
            "the cover fails acyclicity there (see acyclicity_flags)"
        )
    vals = [0] * K.n_simplices(k - 1)
    for loc, parent in enumerate(_parent_indices(emb, k - 1)):
        vals[parent] = x[loc]
    return Cochain(k - 1, tuple(vals))


def gerbe_flat_normal_form(g: CechGerbe):
    """Gauge a flat three-layer gerbe into pure triple-layer constants.

    Returns {triple key: ambient 0-cochain}, locally constant on each
    overlap, whose alternating sums over quadruple overlaps are the
    integers of the obstruction layer.  The patch and pair layers are
    removed by exact primitives patch by patch, which needs the flagged
    acyclicity; a nonzero glued curvature is refused.
    """
    phi, _ = gerbe_total_differential(g)
    if not phi.is_zero():
        raise GerbeError("flat normal form needs vanishing curvature")
    cover = g.cover
    K = cover.K
    patch_gauge = {}
    for i, emb in enumerate(cover.embeddings):
        if g.patch_part[i].is_zero():
            continue
        patch_gauge[i] = -_solve_on_overlap(emb, g.patch_part[i], "patch")
    g1 = cech_gauge(g, patch_gauge=patch_gauge)
    pair_gauge = {}
    for key, emb in sorted(cover.doubles.items()):
        u = g1.pair_part.get(key)
        if u is None:
            continue
        pair_gauge[key] = -_solve_on_overlap(emb, u, "pair")
    g2 = cech_gauge(g1, pair_gauge=pair_gauge)
    for i in range(cover.n_patches):
        if not g2.patch_part[i].is_zero():
            raise AssertionError("patch layer must vanish after gauging")
    if g2.pair_part:
        raise AssertionError("pair layer must vanish after gauging")
    out = {}
    for key, emb in sorted(cover.triples.items()):
        u = g2.triple_part.get(key, K.zero_cochain(0))
        if not _locally_constant_on(K, emb, u):
            raise AssertionError("triple layer must be locally constant")
        out[key] = u
    return out


def _component_reps(emb: ComplexEmbedding):
    """Parent vertex representative per connected component, sorted."""
    comps = emb.sub.vertex_components()
    reps = {}
    for local, label in enumerate(comps):
        parent = emb.vertex_to_parent[local]
        if label not in reps or parent < reps[label]:
            reps[label] = parent
    labels = {}
    for local, label in enumerate(comps):
        labels[emb.vertex_to_parent[local]] = reps[label]
    return sorted(set(reps.values())), labels


def constant_triple_class_trivial(cover: PatchCover, T) -> bool:
    """Can locally constant triple data be gauged into the integers?

    Decides whether T differs from an alternating sum of locally
    constant rational pair data by integers, one linear diophantine
    question answered through a Smith form: the change of basis must
    turn the target integral beyond the rank.
    """
    rows = []
    rhs = []
    var_index = {}
    double_labels = {}
    for key, emb in sorted(cover.doubles.items()):
        reps, labels = _component_reps(emb)
        double_labels[key] = labels
        for rep in reps:
            var_index[(key, rep)] = len(var_index)
    for key, emb in sorted(cover.triples.items()):
        i, j, k = key
        u = T.get(key, cover.K.zero_cochain(0))
        if not _locally_constant_on(cover.K, emb, u):
            raise GerbeError("triple data must be locally constant")
        reps, _ = _component_reps(emb)
        for rep in reps:
            row = {}
            for pair, sgn in (((j, k), 1), ((i, k), -1), ((i, j), 1)):
                col = var_index[(pair, double_labels[pair][rep])]
                row[col] = row.get(col, 0) + sgn
            rows.append(row)
            rhs.append(Fraction(u.values[rep]))
    if not rows:
        return True
    dec = smith_normal_form(rows, ncols=max(len(var_index), 1))
    y = dec.U_times(rhs)
    return all(
        Fraction(y[i]).denominator == 1 for i in range(dec.rank, len(y))
    )


def gerbe_gauge_equivalent(g1: CechGerbe, g2: CechGerbe) -> bool:
    """Do two three-layer gerbes over one cover present one character?

    Decided on their glued sparks by the exact spark equivalence test.
    """
    if not same_cover(g1.cover, g2.cover):
        raise GerbeError("gauge comparison needs a common cover")
    return spark_equivalent(g1.cover.K, gerbe_spark(g1), gerbe_spark(g2))
