"""Construction of the standard example spaces.

Everything returns a :class:`~diffchar.complexes.SimplicialComplex`.
The named spaces here are the fixtures the character machinery is
exercised on: spheres, tori of any genus, real and complex projective
spaces, lens spaces, and staircase products.  Constructions that pass
through quotients (lens spaces, and RP^3 as lens(2,1)) take orbits on
the flags of a barycentric subdivision, so that the orbit map stays
simplicial.
"""

from __future__ import annotations

import itertools
from math import comb, gcd

from .complexes import ComplexError, SimplicialComplex

DEFAULT_BUDGET = 200_000


class SimplexBudgetError(ComplexError):
    """Construction would exceed the allowed number of simplices."""


def _check_budget(count, budget, what="top cells"):
    if budget is not None and count > budget:
        raise SimplexBudgetError(
            f"construction needs {count} {what}, budget is {budget}"
        )


def _check_power_budget(e, c, budget):
    # 2^e - c > budget exactly when e >= (budget + c).bit_length(): no 2^e is formed
    if budget is not None and e >= (budget + c).bit_length():
        raise SimplexBudgetError(
            f"construction needs 2^{e} - {c} simplices, budget is {budget}"
        )


# ---------------------------------------------------------------------------
# elementary spaces


def point() -> SimplicialComplex:
    return SimplicialComplex([(0,)])


def simplex(n) -> SimplicialComplex:
    """The solid n-simplex."""
    return SimplicialComplex([tuple(range(n + 1))])


def circle(m=3) -> SimplicialComplex:
    """Cycle graph with m >= 3 vertices."""
    if m < 3:
        raise ComplexError("circle needs at least 3 vertices")
    return SimplicialComplex([(i, (i + 1) % m) for i in range(m)])


def sphere(n) -> SimplicialComplex:
    """Boundary of the (n+1)-simplex: the minimal n-sphere."""
    if n < 0:
        raise ComplexError("sphere dimension must be >= 0")
    verts = tuple(range(n + 2))
    facets = [verts[:i] + verts[i + 1:] for i in range(n + 2)]
    return SimplicialComplex(facets)


# ---------------------------------------------------------------------------
# tori


def torus_grid(m=3) -> SimplicialComplex:
    """m x m grid torus, each square split along its (0,0)-(1,1) diagonal.

    Vertex (i, j) has id i + m*j: the first coordinate varies fastest,
    so the x-direction loop through vertices 0, 1, .., m-1 is the
    lexicographically earliest cycle.
    """
    if m < 3:
        raise ComplexError("torus grid needs m >= 3")

    def vid(i, j):
        return (i % m) + m * (j % m)

    tris = []
    for j in range(m):
        for i in range(m):
            v00 = vid(i, j)
            v10 = vid(i + 1, j)
            v01 = vid(i, j + 1)
            v11 = vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v01, v11))
    return SimplicialComplex(tris)


def torus_grid_axis_cocycles(K: SimplicialComplex, m):
    """Seam-crossing 1-cocycles (gx, gy) of an m x m grid torus.

    gx counts signed crossings of the seam between columns m-1 and 0
    when an edge is traversed from its lower to its higher vertex id;
    gy does the same for rows.  Their classes are the dual basis to the
    x and y loops.
    """

    def coords(v):
        return v % m, v // m

    gx = []
    gy = []
    for a, b in K.simplices[1]:
        ai, aj = coords(a)
        bi, bj = coords(b)
        # elementary steps move each coordinate by -1, 0 or +1; a raw
        # difference of +-(m-1) is a step the other way across the seam
        for diff, out in (((bi - ai), gx), ((bj - aj), gy)):
            if diff == m - 1:
                out.append(-1)
            elif diff == -(m - 1):
                out.append(1)
            else:
                out.append(0)
    return K.cochain(1, gx), K.cochain(1, gy)


def moebius_kuehnel_torus() -> SimplicialComplex:
    """The 7-vertex torus: translates of {0,1,3} and {0,2,3} mod 7."""
    tris = []
    for i in range(7):
        tris.append(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))))
    return SimplicialComplex(tris)


def surface_of_genus(g) -> SimplicialComplex:
    """Closed orientable surface of genus g >= 1 by connected sums.

    Starts from the 7-vertex torus; each further handle glues in a fresh
    copy along the boundary of a removed triangle.
    """
    if g < 1:
        raise ComplexError("genus must be >= 1")
    K = moebius_kuehnel_torus()
    for _ in range(g - 1):
        K = _attach_torus_handle(K)
    return K


def _attach_torus_handle(K: SimplicialComplex) -> SimplicialComplex:
    base = list(K.simplices[2])
    removed = base[0]  # lexicographically first triangle
    base.remove(removed)

    copy = moebius_kuehnel_torus()
    copy_removed = (0, 1, 3)
    # vertices 0,1,3 of the new copy land on the removed triangle; the
    # remaining four vertices get fresh ids
    relabel = {0: removed[0], 1: removed[1], 3: removed[2]}
    fresh = K.n_vertices
    for v in range(7):
        if v not in relabel:
            relabel[v] = fresh
            fresh += 1
    for tri in copy.simplices[2]:
        if tri == copy_removed:
            continue
        base.append(tuple(sorted(relabel[v] for v in tri)))
    return SimplicialComplex(base)


# ---------------------------------------------------------------------------
# projective spaces


def rp2() -> SimplicialComplex:
    """The 6-vertex real projective plane."""
    faces = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ]
    return SimplicialComplex(faces)


# 36 facets of the 9-vertex complex projective plane; orbit union under
# the order-9 shift group generated by (0 1 2)(3 4 5)(6 7 8) and
# (0 3 6)(1 4 7)(2 5 8), frozen after validating the f-vector
# (9,36,84,90,36), 3-neighborliness, closed orientable pseudomanifold
# structure, and Betti numbers (1,0,1,0,1) with no torsion.
_CP2_FACETS = (
    (0, 1, 2, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 4, 5), (0, 1, 3, 4, 6),
    (0, 1, 3, 5, 7), (0, 1, 3, 6, 7), (0, 1, 4, 5, 6), (0, 1, 5, 6, 8),
    (0, 1, 5, 7, 8), (0, 1, 6, 7, 8), (0, 2, 3, 4, 8), (0, 2, 3, 5, 8),
    (0, 2, 4, 5, 6), (0, 2, 4, 6, 7), (0, 2, 4, 7, 8), (0, 2, 5, 6, 8),
    (0, 2, 6, 7, 8), (0, 3, 4, 6, 7), (0, 3, 4, 7, 8), (0, 3, 5, 7, 8),
    (1, 2, 3, 4, 8), (1, 2, 3, 5, 7), (1, 2, 3, 6, 7), (1, 2, 3, 6, 8),
    (1, 2, 4, 5, 7), (1, 2, 4, 7, 8), (1, 2, 6, 7, 8), (1, 3, 4, 6, 8),
    (1, 4, 5, 6, 8), (1, 4, 5, 7, 8), (2, 3, 5, 6, 7), (2, 3, 5, 6, 8),
    (2, 4, 5, 6, 7), (3, 4, 5, 6, 7), (3, 4, 5, 6, 8), (3, 4, 5, 7, 8),
)


def cp2() -> SimplicialComplex:
    """The 9-vertex complex projective plane."""
    return SimplicialComplex(_CP2_FACETS)


def lens_space(p, q) -> SimplicialComplex:
    """Lens space L(p, q) as a free cyclic quotient of the 3-sphere.

    The sphere is the join J of two 2p-gon circles; the generator
    rotates the first ring by two steps and the second by 2q steps.
    The quotient is taken on the barycentric subdivision sd J, which
    makes the orbit map simplicial and injective on closed simplices.
    sd J is never built: each full flag of a facet of J (a top simplex
    of sd J) is labelled by the orbits of its simplices, and the label
    sets span L.  A free action leaves p simplices of sd J over each
    simplex of L; f(sd J) is counted from the f-vector of J.
    """
    if p < 2:
        raise ComplexError("lens space needs p >= 2")
    q %= p
    if q == 0 or gcd(p, q) != 1:
        raise ComplexError("lens space needs gcd(p, q) = 1")
    m = 2 * p
    # a-ring vertices 0..m-1, b-ring vertices m..2m-1
    J = SimplicialComplex(
        (i, (i + 1) % m, m + j, m + (j + 1) % m) for i in range(m) for j in range(m)
    )

    def rho_vertex(v):
        if v < m:
            return (v + 2) % m
        return m + ((v - m + 2 * q) % m)

    def rho_simplex(t):
        return tuple(sorted(rho_vertex(v) for v in t))

    # orbit label per original simplex of J, dimension-major and
    # lexicographic within each dimension for determinism
    label_of = {}
    next_label = 0
    for k in range(J.dimension + 1):
        for t in J.simplices[k]:
            if t in label_of:
                continue
            images = []
            cur = t
            for _ in range(p):
                images.append(cur)
                cur = rho_simplex(cur)
            if cur != t or len(set(images)) != p:
                raise ComplexError("group action is not free on simplices")
            for s in images:
                label_of[s] = next_label
            next_label += 1

    # the full flags ending at t, as label tuples: those ending at each
    # codimension-one face of t, extended by t (the empty face ends the
    # empty flag)
    flags_at = {(): [()]}
    for k in range(J.dimension + 1):
        for t in J.simplices[k]:
            own = label_of[t]
            flags_at[t] = [
                c + (own,) for i in range(k + 1) for c in flags_at[t[:i] + t[i + 1:]]
            ]
    quotient_facets = set()
    for t in J.simplices[J.dimension]:
        for flag in flags_at[t]:
            labels = tuple(sorted(flag))
            if len(set(labels)) != len(labels):
                raise ComplexError("orbit map collapses a simplex; refine first")
            quotient_facets.add(labels)
    L = SimplicialComplex(quotient_facets, n_vertices=next_label)
    if tuple(p * c for c in L.f_vector()) != _subdivision_f_vector(J):
        raise ComplexError("quotient counts inconsistent with free action")
    return L


def _subdivision_f_vector(K):
    """f-vector of the barycentric subdivision sd K, counted from K's.

    The k-simplices of sd K ending at a simplex t of K are the chains of
    k + 1 faces with top t, that is the ordered partitions of t's n
    vertices into j = k + 1 blocks: the j! S(n, j) maps onto a j-set.
    """
    def onto(n, j):
        return sum((-1) ** i * comb(j, i) * (j - i) ** n for i in range(j + 1))

    dims = range(K.dimension + 1)
    return tuple(sum(K.n_simplices(d) * onto(d + 1, k + 1) for d in dims) for k in dims)


def rp3() -> SimplicialComplex:
    """Real projective 3-space, as the lens space L(2, 1)."""
    return lens_space(2, 1)


# ---------------------------------------------------------------------------
# products


def product(A: SimplicialComplex, B: SimplicialComplex, budget=DEFAULT_BUDGET):
    """Staircase triangulation of |A| x |B|.

    Vertex (u, v) gets id u * B.n_vertices + v.  Each cell sigma x tau
    is cut into binomial(p+q, p) simplices along monotone grid paths.
    """
    nB = B.n_vertices
    top_count = 0
    facets_A = A.maximal_simplices()
    facets_B = B.maximal_simplices()
    for sa in facets_A:
        for sb in facets_B:
            top_count += comb(len(sa) + len(sb) - 2, len(sa) - 1)
    _check_budget(top_count, budget)

    cells = []
    for sa in facets_A:
        for sb in facets_B:
            p, q = len(sa) - 1, len(sb) - 1
            for path in _monotone_paths(p, q):
                cells.append(tuple(sa[i] * nB + sb[j] for i, j in path))
    return SimplicialComplex(cells)


def _monotone_paths(p, q):
    """Monotone lattice paths (0,0) -> (p,q) as vertex-pair sequences."""
    paths = []
    for pattern in itertools.combinations(range(p + q), p):
        path = [(0, 0)]
        i = j = 0
        for step in range(p + q):
            if step in pattern:
                i += 1
            else:
                j += 1
            path.append((i, j))
        paths.append(tuple(path))
    return paths


# ---------------------------------------------------------------------------
# name registry


def build_space(name, budget=DEFAULT_BUDGET) -> SimplicialComplex:
    """Build a space from a compact textual name.

    Grammar: ``point``, ``circle[m]``, ``sphere[n]``, ``torus``,
    ``torus_grid[m]``, ``genus[g]``, ``rp2``, ``rp3``, ``cp2``,
    ``lens:p,q``, ``product:NAME,NAME`` (nesting allowed, split at the
    top-level comma).

    ``budget`` bounds the simplices of every family with a size, counted
    in closed form before anything is built: sphere[n] 2^(n+2) - 2,
    simplex[n] 2^(n+1) - 1, circle[m] 2m, torus_grid[m] 6m^2, genus[g]
    34g + 8 (42 for the torus, 34 per further handle) and lens:p,q
    416p + 16 (f(sd J) / p for the join J of two 2p-gons).  A product
    bounds its top cells.  Past the budget, SimplexBudgetError.
    """
    name = name.strip().lower()
    if name.startswith("lens:"):
        body = name[len("lens:"):]
        try:
            p, q = (int(x) for x in body.split(","))
        except ValueError as exc:
            raise ComplexError(f"bad lens parameters {body!r}") from exc
        _check_budget(416 * p + 16, budget, "simplices")
        return lens_space(p, q)
    if name.startswith("product:"):
        body = name[len("product:"):]
        left, right = split_top_comma(body)
        return product(build_space(left, budget), build_space(right, budget), budget)
    base, num = _split_trailing_int(name)
    if base == "point" and num is None:
        return point()
    if base == "circle":
        m = 3 if num is None else num
        _check_budget(2 * m, budget, "simplices")
        return circle(m)
    if base == "sphere":
        n = 2 if num is None else num
        _check_power_budget(n + 2, 2, budget)
        return sphere(n)
    if base == "torus" and num is None:
        return moebius_kuehnel_torus()
    if base == "torus_grid":
        m = 3 if num is None else num
        _check_budget(6 * m * m, budget, "simplices")
        return torus_grid(m)
    if base == "genus" and num is not None:
        _check_budget(34 * num + 8, budget, "simplices")
        return surface_of_genus(num)
    if base == "rp" and num == 2:
        return rp2()
    if base == "rp" and num == 3:
        return rp3()
    if base == "cp" and num == 2:
        return cp2()
    if base == "simplex":
        n = 2 if num is None else num
        _check_power_budget(n + 1, 1, budget)
        return simplex(n)
    raise ComplexError(f"unknown space name {name!r}")


def _split_trailing_int(name):
    i = len(name)
    while i > 0 and name[i - 1].isdigit():
        i -= 1
    base = name[:i]
    return base, (int(name[i:]) if i < len(name) else None)


def split_top_comma(body):
    """Split "A,B" at the first comma outside nested argument lists."""
    for i, ch in enumerate(body):
        if ch == "," and _balanced_prefix(body[:i]):
            return body[:i], body[i + 1:]
    raise ComplexError(f"expected two comma-separated names in {body!r}")


def _balanced_prefix(prefix):
    # a top-level comma is one not inside a nested product:/lens: argument
    # list; count unmatched argument lists by counting ':' minus ','
    colons = prefix.count(":")
    commas = prefix.count(",")
    return colons == commas
