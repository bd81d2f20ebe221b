"""Test oracles and fixtures that the library itself does not need.

The flat normal form (``gerbe_flat_normal_form`` with
``constant_triple_class_trivial``) decides gauge equivalence of flat
layered data by exact primitives on overlaps and a Smith form,
independently of the glued spark that ``sparks.spark_equivalent``
compares.  ``gerbe_from_global`` and ``cech_gauge`` make cover-model
fixtures, ``check_star_trivialization`` checks the cone primitive on a
whole closed star, and ``varied_weights`` is a reproducible Hodge
weight profile.  ``green`` solves the weighted Laplacian, built column
by column from the public adjoint and coboundary, by a rational
Gauss-Jordan; ``flow_once`` takes one step of the discrete Morse flow
of a matching, built from the boundary alone, and ``flow_powers``
multiplies the flow by itself until it stabilizes, the reference for
the stable flow, homotopy and exponent of ``morse.MorseFlow``;
``rescan_greedy_matching`` forms the greedy matching by listing each
cell's free cofacets anew on every pass.  ``elementwise_cup``,
``elementwise_product`` and ``elementwise_evaluate`` are the cup
product, the sparse coboundary/boundary product and the pairing on
plain value tuples, entry by entry, the reference for the scaled
arithmetic of chains and cochains; ``rows_delta`` is the coboundary as
the product of its dict rows, the reference for the column kernel of
``SimplicialComplex.delta``; ``by_value`` and ``typed_by_value``
state the type rule of the library's vectors, an entry is an int
exactly when it is integral.  ``randint_entries`` draws entries by
``rng.randint``, the reference for the draws of
``sparks.random_cochain``.  ``fraction_product``,
``fraction_smith_solve``, ``fraction_coords``, ``fraction_periods`` and
``fraction_is_integral`` redo the Smith-form solve, lattice coordinates
and preimages, periods and the integrality test of the library's
``ScaledVector`` kernels in plain ``Fraction`` arithmetic;
``elementwise_product`` adds one term at a time, so on floats it is the
product that conjugate gradients must see.  ``dense_to_rows`` turns a
dense test matrix into the sparse rows the Smith form takes.
``kernel_basis`` reads the integer kernel of a matrix off its Smith
form, and ``rat_rank`` gives the rank over Q by a fraction-free
elimination, independent of every Smith form.
``plant_coefficient`` copies a Smith form with one logged coefficient
changed, a fault its certificate must catch.  ``ldl_mod_rowwise`` is
the minimum-degree L D L^T modulo a prime that updates each active row
on its own, the reference for the steps of ``exact._ldl_mod``.
"""

from dataclasses import replace
from fractions import Fraction
from heapq import heapify, heappop, heappush

from diffchar.cohomology import cycle_lattice_basis, integer_cohomology
from diffchar.complexes import Chain, Cochain, ComplexEmbedding, SimplicialComplex
from diffchar.exact import (
    RatElim,
    ScaledVector,
    add_rows,
    identity_rows,
    mul_rows,
    rows_to_dense,
    scaled_product,
    smith_normal_form,
    transpose_rows,
)
from diffchar.lowdegree import (
    CechGerbe,
    GerbeError,
    PatchCover,
    _cech,
    _layer,
    _parent_indices,
    cech_gerbe,
    gauge,
    gerbe_total_differential,
    star_trivialization,
)
from diffchar.morse import Matching
from diffchar.sparks import mod1

WEIGHT_CHOICES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))


def varied_weights(K: SimplicialComplex, rng):
    """Deterministic-for-a-seed positive rational weight profile."""
    return {
        k: tuple(rng.choice(WEIGHT_CHOICES) for _ in range(K.n_simplices(k)))
        for k in range(K.dimension + 1)
    }


def dense_to_rows(mat):
    """Dense list of row lists -> sparse list of {col: value} rows, zeros left out."""
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


def kernel_basis(snf):
    """Primitive basis of the integer kernel of A from U A V = D.

    The columns of V past the rank, as dense integer vectors.
    """
    return rows_to_dense(snf.VT_rows[snf.rank:], snf.ncols)


def rat_rank(rows, ncols):
    """Rank over Q of the sparse ``rows``, by :class:`RatElim`."""
    return RatElim(rows, ncols).rank


def plant_coefficient(snf, side, at):
    """A copy of ``snf`` whose ``side`` log has one axpy coefficient off by one.

    ``side`` is "row_ops" or "col_ops"; ``at`` picks the axpy, an index
    into that log's ops with c != 0.  The coefficient moves away from 0,
    so the op stays an axpy.  The copy replays its own transforms.
    """
    ops = list(getattr(snf, side))
    t = [t for t in range(2, len(ops), 3) if ops[t]][at]
    ops[t] += 1 if ops[t] > 0 else -1
    return replace(snf, **{side: ops})


def elementary_cochain(K: SimplicialComplex, simp) -> Cochain:
    """The cochain that is 1 on the simplex simp and 0 elsewhere."""
    simp = tuple(sorted(simp))
    k = len(simp) - 1
    return K.cochain(k, (int(s == simp) for s in K.simplices[k]))


def vertex_components(K: SimplicialComplex):
    """Component label per vertex: the least vertex of its component."""
    label = list(range(K.n_vertices))
    changed = True
    while changed:
        changed = False
        for a, b in K.simplices.get(1, []):
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
    return label


# ---------------------------------------------------------------------------
# the weighted Laplacian and its Green operator


def inner(ctx, u: Cochain, v: Cochain):
    """The weighted inner product of two cochains of one degree."""
    assert u.degree == v.degree
    return sum(w * a * b for w, a, b in zip(ctx.weight(u.degree), u.values, v.values))


def laplacian(ctx, u: Cochain) -> Cochain:
    """adjoint_delta delta u + delta adjoint_delta u."""
    K = ctx.K
    return ctx.adjoint_delta(K.delta(u)) + K.delta(ctx.adjoint_delta(u))


def green(ctx, u: Cochain) -> Cochain:
    """G u: laplacian(G u) = u - H u and H(G u) = 0, H the harmonic projection.

    Any rational solution x of laplacian(x) = u - H u differs from G u
    by a harmonic cochain, so G u = x - H x.
    """
    K, k = ctx.K, u.degree
    n = K.n_simplices(k)
    cols = [laplacian(ctx, K.cochain(k, (int(i == j) for i in range(n)))).values for j in range(n)]
    rows = [{j: c[i] for j, c in enumerate(cols) if c[i]} for i in range(n)]
    x = RatElim(rows, n, rhs=[(u - ctx.harmonic_projection(u)).values]).solution()
    assert x is not None
    x = K.cochain(k, x)
    return x - ctx.harmonic_projection(x)


# ---------------------------------------------------------------------------
# chain and cochain algebra, entry by entry


def elementwise_cup(K: SimplicialComplex, p, u, q, v):
    """Front-face/back-face product of value tuples, as a plain loop.

    An entry whose front factor is zero is the int 0; C^{-1} is empty,
    so a negative degree or one past the dimension gives zeros.
    """
    k = p + q
    if p < 0 or q < 0 or k > K.dimension:
        return (0,) * K.n_simplices(k)
    out = []
    for simp in K.simplices[k]:
        a = u[K.index[p][simp[: p + 1]]]
        out.append(a * v[K.index[q][simp[p:]]] if a else 0)
    return tuple(out)


def by_value(x):
    """x typed by its value: an integral ``Fraction`` as its int, all else unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def typed_by_value(values):
    """Whether every int or ``Fraction`` entry is an int exactly when it is integral."""
    return all(type(x) is (int if x.denominator == 1 else Fraction) for x in values)


def randint_entries(rng, n, bound, dmax=1):
    """n entries drawn by the loop that ``sparks.random_cochain`` replaces.

    ``Fraction(rng.randint(-bound, bound), rng.randint(1, dmax))`` per
    entry, or ``rng.randint(-bound, bound)`` alone when dmax is 1, typed
    by value through ``ScaledVector.of`` as a computed cochain's are.
    """
    if dmax == 1:
        draws = [rng.randint(-bound, bound) for _ in range(n)]
    else:
        draws = [Fraction(rng.randint(-bound, bound), rng.randint(1, dmax)) for _ in range(n)]
    return ScaledVector.of(draws).entries()


def elementwise_product(rows, vec):
    """Sparse rows times value tuple: the sum of the nonzero terms, from int 0."""
    out = []
    for row in rows:
        acc = 0
        for j, c in row.items():
            if vec[j]:
                acc += c * vec[j]
        out.append(acc)
    return tuple(out)


def rows_delta(K: SimplicialComplex, u: Cochain) -> Cochain:
    """delta u as the product of the coboundary's dict rows with u's numerators.

    The reference for ``SimplicialComplex.delta``, which reads face
    columns instead of rows.
    """
    return Cochain.from_scaled(u.degree + 1, scaled_product(K.delta_rows(u.degree), u.form))


def elementwise_evaluate(u, z):
    """The pairing of value tuples: the sum over nonzero entries of z, from int 0."""
    return sum(a * b for a, b in zip(u, z) if b)


# ---------------------------------------------------------------------------
# the exact-vector kernels in plain Fractions, and the float product


def fraction_product(rows, vec, ncols=None):
    """rows @ vec, or rows^T @ vec with ncols entries, as ``Fraction`` sums.

    vec is a list of ints and Fractions; each entry is typed by its value.
    """
    if ncols is not None:
        rows = transpose_rows(rows, ncols)
    return [by_value(Fraction(x)) for x in elementwise_product(rows, vec)]


def fraction_smith_solve(snf, b):
    """``SmithDecomposition.solve`` of the list b in ``Fraction``: entries, or None.

    V c with c_i = (U b)_i / d_i and the free coordinates of c zero.
    """
    y = fraction_product(snf.U_rows, b)
    if any(y[snf.rank:]):
        return None
    c = [Fraction(x) / d for x, d in zip(y, snf.diag)] + [0] * (snf.ncols - snf.rank)
    return fraction_product(snf.VT_rows, c, snf.ncols)


def fraction_coords(Q, v):
    """(``Q.coords(v)``, ``Q.preimage(v)`` as entries) of the list v, in ``Fraction``.

    ValueError when v is not in the kernel of Q's A, as ``coords`` raises.
    """
    full = fraction_product(Q.snfA.Vinv_rows, v)
    r, W = Q.snfA.rank, Q.snfW
    if any(full[:r]):
        raise ValueError("vector is not in the kernel of A")
    y = fraction_product(W.U_rows, full[r:])
    torsion = tuple(y[i] % d for i, d in enumerate(W.diag) if d > 1)
    return (tuple(y[W.rank:]), torsion), fraction_smith_solve(W, full[r:])


def fraction_periods(K: SimplicialComplex, u: Cochain):
    """``sparks.periods`` of u in ``Fraction``: u summed over each dense basis cycle."""
    return [
        by_value(sum((Fraction(a) * c for a, c in zip(u.values, z) if c), Fraction(0)))
        for z in cycle_lattice_basis(K, u.degree)
    ]


def fraction_is_integral(den, nums):
    """Whether every ``Fraction(n, den)`` is integral."""
    return all(Fraction(n, den).denominator == 1 for n in nums)


# ---------------------------------------------------------------------------
# symmetric factorization modulo a prime, row by row


def ldl_mod_rowwise(rows, p):
    """The steps of ``exact._ldl_mod``, each active row updated on its own.

    Every off-diagonal update of a pivot step is computed twice, once
    for (i, j) and once for (j, i), and each updated row is pushed on
    the heap as soon as it is done.
    """
    active = [
        {j: w for j, v in row.items() if j != i and (w := v % p)}
        for i, row in enumerate(rows)
    ]
    diag = [row.get(i, 0) % p for i, row in enumerate(rows)]
    heap = [(len(row), i) for i, row in enumerate(active)]
    heapify(heap)
    steps = []
    while heap:
        degree, k = heappop(heap)
        row = active[k]
        if row is None or degree != len(row):
            continue
        active[k] = None
        d = diag[k]
        if not d:
            if row:
                return None
            steps.append((k, 0, ()))
            continue
        dinv = pow(d, -1, p)
        col = [(i, v * dinv % p) for i, v in row.items()]
        for i, l in col:
            ri = active[i]
            del ri[k]
            for j, v in row.items():
                if j == i:
                    diag[i] = (diag[i] - l * v) % p
                    continue
                w = (ri.get(j, 0) - l * v) % p
                if w:
                    ri[j] = w
                else:
                    ri.pop(j, None)
            heappush(heap, (len(ri), i))
        steps.append((k, dinv, col))
    return steps


# ---------------------------------------------------------------------------
# the greedy matching by rescans


def rescan_greedy_matching(K: SimplicialComplex):
    """The greedy collapse matching, each cell's free cofacets listed anew.

    Every pass visits the unassigned cells in order and rebuilds the
    list of unassigned cofacets of each; a cell with exactly one is
    matched with it.  When a pass matches nothing, the first unassigned
    cell of the highest dimension becomes critical.  The reference for
    ``morse.greedy_matching``, which keeps counts instead of lists.
    """
    assigned = set()
    pairs = []
    cof = {
        k: [sorted(row) for row in K.boundary_rows(k + 1)]
        for k in range(K.dimension)
    }
    while True:
        progress = True
        while progress:
            progress = False
            for k in range(K.dimension):
                for i in range(K.n_simplices(k)):
                    if (k, i) in assigned:
                        continue
                    free = [
                        j for j in cof[k][i] if (k + 1, j) not in assigned
                    ]
                    if len(free) == 1:
                        j = free[0]
                        pairs.append((k, i, j))
                        assigned.add((k, i))
                        assigned.add((k + 1, j))
                        progress = True
        remaining = None
        for k in range(K.dimension, -1, -1):
            for i in range(K.n_simplices(k)):
                if (k, i) not in assigned:
                    remaining = (k, i)
                    break
            if remaining:
                break
        if remaining is None:
            break
        assigned.add(remaining)
    return Matching(tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# one step of a discrete Morse flow


def flow_once(K: SimplicialComplex, matching, z: Chain) -> Chain:
    """phi z = z + boundary(V z) + V(boundary z) for the matching's V.

    V sends a k-cell i matched with the (k+1)-cell j to -j/<boundary j, i>,
    so that the flow cancels i; it is zero on every other cell.
    """

    def V(c: Chain) -> Chain:
        k = c.degree
        out = [0] * K.n_simplices(k + 1)
        for i, j in matching.up_map(k).items():
            out[j] -= c.values[i] * K.boundary_rows(k + 1)[i][j]
        return Chain(k + 1, tuple(out))

    return z + K.boundary(V(z)) + V(K.boundary(z))


def flow_powers(K: SimplicialComplex, matching):
    """(exponent, P, T) of the matching's flow, by powers of the flow.

    In each degree k, phi = 1 + boundary V + V boundary is multiplied by
    itself until phi^s = phi^(s+1); P_k = phi^s, s_k is the least such
    s >= 1 and the exponent is the largest s_k.  T_k = -(sum_{i < s}
    phi^i) V_k with s = s_{k+1}: the powers from s on add P_{k+1} V_k,
    which is zero for an acyclic matching.  P and T are dicts of sparse
    rows, T from degree -1 to the dimension, as ``MorseFlow`` keeps them.
    """
    n = K.dimension
    V = {}
    for k in range(-1, n + 1):
        rows = [dict() for _ in range(K.n_simplices(k + 1))]
        for i, j in matching.up_map(k).items():
            rows[j][i] = -K.boundary_rows(k + 1)[i][j]
        V[k] = rows
    P, below, exponent = {}, {}, 1
    for k in range(n + 1):
        phi = identity_rows(K.n_simplices(k))
        phi = add_rows(phi, mul_rows(K.boundary_rows(k + 1), V[k]))
        phi = add_rows(phi, mul_rows(V[k - 1], K.boundary_rows(k)))
        acc = identity_rows(K.n_simplices(k))
        power, s = phi, 1
        while True:
            nxt = mul_rows(power, phi)
            if nxt == power:
                break
            acc = add_rows(acc, power)
            power, s = nxt, s + 1
        P[k], below[k], exponent = power, acc, max(exponent, s)
    T = {n: []}
    for k in range(-1, n):
        prod = mul_rows(below[k + 1], V[k])
        T[k] = [{c: -v for c, v in row.items()} for row in prod]
    return exponent, P, T


# ---------------------------------------------------------------------------
# the cone primitive on a closed star


def _in_closed_star(K: SimplicialComplex, v, simp) -> bool:
    cone = tuple(sorted(set(simp) | {v}))
    return cone in K.index.get(len(cone) - 1, {})


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
# cover-model fixtures


def _masked(emb: ComplexEmbedding, u: Cochain) -> Cochain:
    inside = set(_parent_indices(emb, u.degree))
    vals = tuple(v if idx in inside else 0 for idx, v in enumerate(u.values))
    return Cochain(u.degree, vals)


def _locally_constant_on(K, emb, u: Cochain) -> bool:
    du = K.delta(u)
    return all(not du.values[idx] for idx in _parent_indices(emb, 1))


def gerbe_from_global(cover: PatchCover, t: Cochain) -> CechGerbe:
    """Single-chart k-phases seen over a cover: restrict t to each patch.

    The layers past the first vanish because the restrictions agree on
    every overlap.
    """
    patches = {(i,): _masked(emb, t) for i, emb in enumerate(cover.embeddings)}
    return cech_gerbe(cover, [patches] + [None] * t.degree)


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


# ---------------------------------------------------------------------------
# the flat normal form: an independent decision of gauge equivalence


def _solve_on_overlap(emb: ComplexEmbedding, target: Cochain):
    """Exact primitive of a cochain on an overlap, scattered ambiently."""
    K = emb.parent
    k = target.degree
    local = [target.values[i] for i in _parent_indices(emb, k)]
    x = integer_cohomology(emb.sub, k).preimage(ScaledVector.of(local))
    if x is None:
        raise GerbeError(
            f"no primitive for a degree-{k} layer entry on an overlap; "
            "the cover fails acyclicity there (see acyclicity_flags)"
        )
    vals = [0] * K.n_simplices(k - 1)
    for loc, parent in enumerate(_parent_indices(emb, k - 1)):
        vals[parent] = x.entry(loc)
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
    comps = vertex_components(emb.sub)
    parents = _parent_indices(emb, 0)
    reps = {}
    for local, label in enumerate(comps):
        parent = parents[local]
        if label not in reps or parent < reps[label]:
            reps[label] = parent
    labels = {}
    for local, label in enumerate(comps):
        labels[parents[local]] = reps[label]
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
    return scaled_product(dec.U_rows, ScaledVector.of(rhs)).tail(dec.rank).is_integral()
