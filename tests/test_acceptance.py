"""Acceptance gate: ten headline capabilities, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute.  Every check is exact unless a float tolerance is part
of the criterion itself (the iterative Hodge lane, bounded by 1e-10).
"""

import itertools
import random
import time
from fractions import Fraction

from diffchar.builders import (
    circle,
    cp2,
    moebius_kuehnel_torus,
    rp2,
    rp3,
    sphere,
    surface_of_genus,
    torus_grid,
    torus_grid_axis_cocycles,
)
from diffchar.characters import (
    character_table,
    duality_match,
    kunneth_character_rows,
    verify_sequences,
)
from diffchar.cohomology import (
    cohomology_generators,
    cohomology_structures,
    cycle_lattice_basis,
    homology_structure,
    kunneth_structure,
)
from diffchar.hodge import (
    HodgeContext,
    abel_jacobi,
    point_abel_jacobi,
)
from diffchar.lowdegree import (
    gauge,
    phase_holonomy,
    phase_spark,
    spark_phases,
    total_flux,
)
from diffchar.morse import Matching, MorseFlow, greedy_matching, validate_matching
from diffchar.sparks import (
    curvature,
    d2_class,
    holonomy,
    linking_number,
    random_equivalent_shift,
    random_spark,
    spark_equivalent,
    star,
    torsion_linking_matrix,
)
from oracles import varied_weights

F = Fraction


def record(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


# frozen structure tables: (degree, torus rank, curvature dim, discrete)
TORUS_TABLE = [(-1, 0, 0, "Z"), (0, 1, 6, "Z^2"), (1, 2, 13, "Z"), (2, 1, 0, "0")]
GENUS2_TABLE = [(-1, 0, 0, "Z"), (0, 1, 10, "Z^4"), (1, 4, 25, "Z"), (2, 1, 0, "0")]
CP2_TABLE = [
    (-1, 0, 0, "Z"),
    (0, 1, 8, "0"),
    (1, 0, 28, "Z"),
    (2, 1, 55, "0"),
    (3, 0, 35, "Z"),
    (4, 1, 0, "0"),
]
RP3_TABLE = [
    (-1, 0, 0, "Z"),
    (0, 1, 39, "0"),
    (1, 0, 193, "Z_2"),
    (2, 0, 191, "Z"),
    (3, 1, 0, "0"),
]
# product of two cp2's through the Kunneth route: (degree, torus, discrete)
CP2XCP2_TABLE = [
    (-1, 0, "Z"),
    (0, 1, "0"),
    (1, 0, "Z^2"),
    (2, 2, "0"),
    (3, 0, "Z^3"),
    (4, 3, "0"),
    (5, 0, "Z^2"),
    (6, 2, "0"),
    (7, 0, "Z"),
    (8, 1, "0"),
]


def table_rows(K):
    return [
        (c.degree, c.torus_rank, c.exact_dim, c.discrete.format())
        for c in character_table(K)
    ]


def test_criterion_01_golden_tables():
    start = time.perf_counter()
    ok = table_rows(moebius_kuehnel_torus()) == TORUS_TABLE
    ok = ok and table_rows(surface_of_genus(2)) == GENUS2_TABLE
    ok = ok and table_rows(cp2()) == CP2_TABLE
    ok = ok and table_rows(rp3()) == RP3_TABLE
    fa = fb = cohomology_structures(cp2())
    kun = [
        (k, t, g.format()) for k, t, g in kunneth_character_rows(fa, fb, 8)
    ]
    ok = ok and kun == CP2XCP2_TABLE
    elapsed = time.perf_counter() - start
    record(1, "golden character tables", ok and elapsed < 60)


def test_criterion_02_exact_sequences():
    ok = True
    for K in (moebius_kuehnel_torus(), surface_of_genus(2), cp2(), rp3()):
        for k in range(-1, K.dimension + 1):
            ok = ok and verify_sequences(K, k, trials=3).ok
    # the product fixture is too large to triangulate; its rows must come
    # out the same whether assembled per degree or from factor structures
    fa = fb = cohomology_structures(cp2())
    for k, torus, disc in kunneth_character_rows(fa, fb, 8):
        if k >= 0:
            ok = ok and torus == kunneth_structure(fa, fb, k).free_rank
        if k + 1 <= 8:
            ok = ok and disc == kunneth_structure(fa, fb, k + 1)
    record(2, "exact sequence witnesses", ok)


def test_criterion_03_duality():
    ok = True
    for K in (sphere(2), moebius_kuehnel_torus(), rp3(), cp2()):
        for k in range(-1, K.dimension + 1):
            ok = ok and duality_match(K, k)
    record(3, "duality structure match", ok)


def test_criterion_04_torsion_linking():
    K = rp3()
    matrix = torsion_linking_matrix(K, 2, 2)
    ok = matrix == [[F(1, 2)]]
    # invertible over Q/Z: the single entry generates Z_2 exactly
    ok = ok and matrix[0][0].denominator == 2
    _, torsion = cohomology_generators(K, 2)
    m, g, w = torsion[0]
    rng = random.Random(13)
    witnesses = [w]
    for _ in range(2):
        b = K.cochain(0, tuple(rng.randint(-3, 3) for _ in range(K.n_vertices)))
        witnesses.append(w + K.delta(b))
    vals = {linking_number(K, (m, g, ww), g) for ww in witnesses}
    record(4, "torsion linking non-degenerate", ok and vals == {F(1, 2)})


STAR_FIXTURES = (sphere(2), moebius_kuehnel_torus(), rp2(), sphere(3))


def test_criterion_05_star_product_identities():
    ok = True
    for K in STAR_FIXTURES:
        n = K.dimension
        pairs = [
            (k1, k2)
            for k1 in range(n)
            for k2 in range(n - k1)
        ]
        rng = random.Random(17)
        for _ in range(100):
            k1, k2 = rng.choice(pairs)
            s1, s2 = random_spark(K, k1, rng), random_spark(K, k2, rng)
            st = star(K, s1, s2)
            lhs = K.delta(st.a)
            rhs = K.cup(curvature(K, s1), curvature(K, s2)) - K.cup(s1.R, s2.R)
            ok = ok and lhs == rhs
            shifted = star(
                K,
                random_equivalent_shift(K, s1, rng),
                random_equivalent_shift(K, s2, rng),
            )
            ok = ok and d2_class(K, shifted) == d2_class(K, st)
    record(5, "star product Leibniz and ring map", ok)


def test_criterion_06_holonomy_invariance():
    ok = True
    for K in STAR_FIXTURES:
        rng = random.Random(19)
        bases = {
            k: [K.chain(k, v) for v in cycle_lattice_basis(K, k)]
            for k in range(K.dimension + 1)
        }
        for _ in range(100):
            k = rng.randrange(0, K.dimension + 1)
            s = random_spark(K, k, rng)
            s2 = random_equivalent_shift(K, s, rng)
            for z in bases[k]:
                ok = ok and holonomy(K, s, z) == holonomy(K, s2, z)
    record(6, "holonomy equivalence invariance", ok)


def _integral_cocycle(K):
    """Some nonzero integral cocycle with a nontrivial class, if any."""
    for k in range(K.dimension, 0, -1):
        free, torsion = cohomology_generators(K, k)
        if free:
            return free[0]
        if torsion:
            return torsion[0][1]
    return None


def test_criterion_07_hodge_residuals():
    ok = True
    for K in (circle(3), sphere(2), torus_grid(3), rp2()):
        for profile in (None, varied_weights(K, random.Random(11))):
            ctx = HodgeContext(K, weights=profile, method="exact")
            rng = random.Random(23)
            for k in range(K.dimension + 1):
                u = K.cochain(
                    k,
                    tuple(
                        F(rng.randint(-12, 12), rng.choice((1, 2, 3)))
                        for _ in range(K.n_simplices(k))
                    ),
                )
                dec = ctx.decompose(u)
                res = ctx.decomposition_residuals(u, dec)
                ok = ok and all(v == 0 for v in res.values())
            R = _integral_cocycle(K)
            s = ctx.hodge_spark(R)
            ok = ok and curvature(K, s) == ctx.harmonic_projection(R)
    # iterative lane on the 4x4 torus grid, bounded by 1e-10
    K = torus_grid(4)
    cg = HodgeContext(K, method="cg", tol=1e-12)
    rng = random.Random(29)
    for k in range(3):
        u = K.cochain(
            k, tuple(F(rng.randint(-9, 9), 2) for _ in range(K.n_simplices(k)))
        )
        dec = cg.decompose(u)
        res = cg.decomposition_residuals(u, dec)
        ok = ok and all(abs(v) <= 1e-10 for v in res.values())
    exact = HodgeContext(K, method="exact")
    R = torus_grid_axis_cocycles(K, 4)[0]
    s = exact.hodge_spark(R)
    phi = curvature(K, s)
    proj = cg.decompose(R).harmonic
    worst = max(abs(a - b) for a, b in zip(phi.values, proj.values))
    record(7, "hodge decomposition residuals", ok and worst <= 1e-10)


def test_criterion_08_abel_jacobi_grid():
    K = torus_grid(3)
    ctx = HodgeContext(K, method="exact")
    basis = torus_grid_axis_cocycles(K, 3)
    target = (F(1, 3), F(2, 3))
    ok = point_abel_jacobi(ctx, 0, 7, basis=basis) == target
    rng = random.Random(31)
    found = 0
    while found < 10:
        walk = [0]
        while walk[-1] != 7 and len(walk) < 40:
            nbrs = [
                w
                for w in range(9)
                if tuple(sorted((walk[-1], w))) in K.index[1]
            ]
            walk.append(rng.choice(nbrs))
        if walk[-1] != 7:
            continue
        found += 1
        ok = ok and point_abel_jacobi(ctx, 0, 7, path=walk, basis=basis) == target
    # a divisor is principal exactly when all its periods are integral
    diff = [0] * 9
    diff[7], diff[0] = 3, -3
    ok = ok and abel_jacobi(ctx, K.chain(0, diff), basis=basis) == (0, 0)
    record(8, "abel-jacobi on the torus grid", ok)


def tree_cotree_matching(K):
    """A second deterministic matching: BFS tree plus dual BFS cotree."""
    pairs = []
    adj = {}
    for i, (a, b) in enumerate(K.simplices[1]):
        adj.setdefault(a, []).append((b, i))
        adj.setdefault(b, []).append((a, i))
    seen = {0}
    queue = [0]
    tree = set()
    while queue:
        v = queue.pop(0)
        for w, i in sorted(adj.get(v, [])):
            if w not in seen:
                seen.add(w)
                tree.add(i)
                pairs.append((0, w, i))
                queue.append(w)
    if K.dimension >= 2:
        eidx = K.index[1]
        face_edges = [
            [eidx[(f[0], f[1])], eidx[(f[0], f[2])], eidx[(f[1], f[2])]]
            for f in K.simplices[2]
        ]
        edge_faces = {}
        for j, es in enumerate(face_edges):
            for e in es:
                edge_faces.setdefault(e, []).append(j)
        seen_f = {0}
        queue = [0]
        used = set()
        while queue:
            f = queue.pop(0)
            for e in face_edges[f]:
                if e in tree or e in used:
                    continue
                for g in edge_faces[e]:
                    if g not in seen_f:
                        seen_f.add(g)
                        used.add(e)
                        pairs.append((1, e, g))
                        queue.append(g)
                        break
    return Matching(tuple(pairs))


HAND_MATCHINGS = {
    # collapse the triangle circle onto vertex 0
    "circle3": ((0, 1, 0), (0, 2, 2)),
    # collapse the tetrahedron boundary onto vertex 0 and one far face
    "sphere2": ((0, 1, 0), (0, 2, 1), (0, 3, 2), (1, 3, 0), (1, 4, 1), (1, 5, 2)),
}


def _homotopy_identity_exact(K, flow):
    for k in range(K.dimension + 1):
        nk = K.n_simplices(k)
        for i in range(nk):
            z = K.chain(k, tuple(1 if j == i else 0 for j in range(nk)))
            lhs = K.boundary(flow.homotopy(z)) + flow.homotopy(K.boundary(z))
            if lhs != z - flow.project(z):
                return False
            u = K.cochain(k, tuple(1 if j == i else 0 for j in range(nk)))
            lhs_c = K.delta(flow.homotopy_cochain(u)) + flow.homotopy_cochain(K.delta(u))
            if lhs_c != u - flow.project_cochain(u):
                return False
    return True


def test_criterion_09_morse_homotopy_identity():
    fixtures = {
        "circle3": circle(3),
        "sphere2": sphere(2),
        "torus": moebius_kuehnel_torus(),
        "rp2": rp2(),
    }
    ok = True
    for name, K in fixtures.items():
        matchings = [greedy_matching(K), tree_cotree_matching(K)]
        if name in HAND_MATCHINGS:
            matchings.append(Matching(HAND_MATCHINGS[name]))
        for m in matchings:
            validate_matching(K, m)
            flow = MorseFlow(K, m)
            ok = ok and _homotopy_identity_exact(K, flow)
            ok = ok and all(
                flow.morse_homology(k) == homology_structure(K, k)
                for k in range(K.dimension + 1)
            )
    record(9, "morse homotopy identity", ok)


def test_criterion_10_low_degree_bridges():
    K = circle(4)
    vals = (F(0), F(1, 4), F(1, 2), F(3, 4))
    ok = spark_phases(phase_spark(K, K.cochain(0, vals))).values == vals

    S = sphere(2)
    theta = S.cochain(1, (F(1, 4), 0, 0, 0, F(1, 2), F(1, 4)))
    ok = ok and total_flux(S, theta) == 1
    rng = random.Random(37)
    sections = []
    for _ in range(2):
        lam = S.cochain(0, tuple(F(rng.randint(-8, 8), 5) for _ in range(4)))
        shift = S.cochain(1, tuple(rng.randint(-2, 2) for _ in range(6)))
        sections.append(phase_spark(S, gauge(S, theta, lam, shift)))
    ok = ok and spark_equivalent(S, sections[0], sections[1])

    T = moebius_kuehnel_torus()
    t = T.cochain(2, (F(1, 3),) + (0,) * 13)
    z = T.fundamental_cycle()
    ok = ok and phase_holonomy(T, t, z) == F(1, 3)
    for _ in range(100):
        alpha = T.cochain(1, tuple(F(rng.randint(-8, 8), 5) for _ in range(21)))
        shift = T.cochain(2, tuple(rng.randint(-3, 3) for _ in range(14)))
        ok = ok and phase_holonomy(T, gauge(T, t, alpha, shift), z) == F(1, 3)
    record(10, "low degree round trips", ok)
