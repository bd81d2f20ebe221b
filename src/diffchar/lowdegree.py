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
those of the layered data.  Flat data also reduce to locally constant
last-layer data, a normal form whose class decides gauge equivalence
on its own.

Principal values live in (-1/2, 1/2]; a value landing exactly on 1/2
where a branch has to be chosen raises PhaseError rather than picking
a side silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

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
    through 2; flagged covers are still accepted, but the gauge solves
    may then report unsolvable systems.
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


def same_cover(c1: PatchCover, c2: PatchCover) -> bool:
    return c1.K is c2.K and c1.simplex_sets == c2.simplex_sets


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


def gerbe_from_global(cover: PatchCover, t: Cochain) -> CechGerbe:
    """Single-chart k-phases seen over a cover: restrict t to each patch.

    The layers past the first vanish because the restrictions agree on
    every overlap.
    """
    patches = {(i,): _masked(emb, t) for i, emb in enumerate(cover.embeddings)}
    return cech_gerbe(cover, [patches] + [None] * t.degree)


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


def _locally_constant_on(K, emb, u: Cochain) -> bool:
    du = K.delta(u)
    return all(not du.values[idx] for idx in _parent_indices(emb, 1))


def cech_gauge(g: CechGerbe, moves=(), shift=None):
    """Apply a gauge move to the layers of degree-k data.

    moves[m], m < k, maps sorted (m+1)-fold keys to ambient
    (k-1-m)-cochains on the overlap; a missing or None move is zero.
    Layer m moves by delta(moves[m]) + (-1)^m Cech(moves[m-1]).  shift
    maps sorted (k+1)-fold keys to integral locally constant
    0-cochains on the overlap, added to layer k.  The glued curvature is
    unchanged; the obstruction moves only by alternating sums of the
    shift, so it stays integral, and the holonomy does not move at all.
    """
    cover = g.cover
    K = cover.K
    k = len(g.layers) - 1
    if len(moves) > k:
        raise GerbeError(f"degree-{k} data takes at most {k} gauge layers")
    b = [_layer(cover, m + 1, move, k - 1 - m) for m, move in enumerate(moves)]
    b += [{}] * (k - len(b))
    s = _layer(cover, k + 1, shift, 0)
    for key, u in s.items():
        if not u.is_integral():
            raise GerbeError("shifts must be integral")
        if not _locally_constant_on(K, cover.overlaps(k + 1)[key], u):
            raise GerbeError("shifts must be locally constant on their overlap")
    layers = []
    for m, layer in enumerate(g.layers):
        zero = K.zero_cochain(k - m)
        new = {}
        for key, emb in cover.overlaps(m + 1).items():
            if m < k:
                move = K.delta(b[m].get(key, K.zero_cochain(k - m - 1)))
            else:
                move = s.get(key, zero)
            if m:
                move = move + _cech(b[m - 1], key, zero).scale((-1) ** m)
            new[key] = layer.get(key, zero) + _masked(emb, move)
        layers.append(new)
    return cech_gerbe(cover, layers)


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


def gerbe_holonomy(g: CechGerbe, z: Chain, assignments=None) -> Fraction:
    """Phase mod 1 of layered data on an integral k-cycle.

    This is the holonomy of the glued spark, so z goes through the
    spark checks.  The value does not depend on the assignments and
    does not move under gauge moves.
    """
    return holonomy(g.cover.K, gerbe_spark(g, assignments), z)


def _solve_on_overlap(emb: ComplexEmbedding, target: Cochain):
    """Exact primitive of a cochain on an overlap, scattered ambiently."""
    K = emb.parent
    k = target.degree
    local = emb.restrict_cochain(target)
    x = integer_cohomology(emb.sub, k).preimage_rat(local.values)
    if x is None:
        raise GerbeError(
            f"no primitive for a degree-{k} layer entry on an overlap; "
            "the cover fails acyclicity there (see acyclicity_flags)"
        )
    vals = [0] * K.n_simplices(k - 1)
    for loc, parent in enumerate(_parent_indices(emb, k - 1)):
        vals[parent] = x[loc]
    return Cochain(k - 1, tuple(vals))


def gerbe_flat_normal_form(g: CechGerbe):
    """Gauge flat degree-k data into pure last-layer constants.

    Returns {(k+1)-fold key: ambient 0-cochain}, locally constant on
    each overlap, whose alternating sums over (k+2)-fold overlaps are
    the integers of the obstruction.  Layers 0..k-1 are removed in turn
    by exact primitives overlap by overlap, which needs the flagged
    acyclicity; a nonzero glued curvature is refused.
    """
    phi, _ = gerbe_total_differential(g)
    if not phi.is_zero():
        raise GerbeError("flat normal form needs vanishing curvature")
    cover = g.cover
    K = cover.K
    k = len(g.layers) - 1
    for m in range(k):
        overlaps = cover.overlaps(m + 1)
        move = {
            key: -_solve_on_overlap(overlaps[key], u)
            for key, u in g.layers[m].items()
            if not u.is_zero()
        }
        g = cech_gauge(g, [None] * m + [move])
        if any(not u.is_zero() for u in g.layers[m].values()):
            raise AssertionError(f"layer {m} must vanish after gauging")
    out = {}
    for key, emb in sorted(cover.overlaps(k + 1).items()):
        u = g.layers[k].get(key, K.zero_cochain(0))
        if not _locally_constant_on(K, emb, u):
            raise AssertionError("last layer must be locally constant")
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
    """Can locally constant last-layer data be gauged into the integers?

    T maps (k+1)-fold keys, k >= 1, to locally constant 0-cochains.
    Decides whether T differs from the Cech coboundary of locally
    constant rational data on k-fold overlaps by integers, one linear
    diophantine question answered through a Smith form: the change of
    basis must turn the target integral beyond the rank.
    """
    if not T:
        return True
    n = len(next(iter(T)))
    var_index = {}
    face_labels = {}
    for key, emb in sorted(cover.overlaps(n - 1).items()):
        reps, face_labels[key] = _component_reps(emb)
        for rep in reps:
            var_index[(key, rep)] = len(var_index)
    rows = []
    rhs = []
    for key, emb in sorted(cover.overlaps(n).items()):
        u = T.get(key, cover.K.zero_cochain(0))
        if not _locally_constant_on(cover.K, emb, u):
            raise GerbeError("triple data must be locally constant")
        for rep in _component_reps(emb)[0]:
            row = {}
            for m in range(n):
                face = key[:m] + key[m + 1:]
                col = var_index[(face, face_labels[face][rep])]
                row[col] = row.get(col, 0) + (-1) ** m
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
    """Do two layered data over one cover present one character?

    Decided on their glued sparks by the exact spark equivalence test.
    """
    if not same_cover(g1.cover, g2.cover):
        raise GerbeError("gauge comparison needs a common cover")
    return spark_equivalent(g1.cover.K, gerbe_spark(g1), gerbe_spark(g2))
