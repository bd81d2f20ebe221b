"""Gerbes presented in layers over a patch cover.

The window cover used below cuts the 4x4 grid torus into four 3x3
blocks of vertices.  Its double overlaps are disjoint unions of
contractible strips and its triple and quadruple overlaps are isolated
points, so every gauge solve the machinery attempts succeeds; the
acyclicity flags it raises are all about disconnectedness, degree 0.
"""

import random
from fractions import Fraction

import pytest

from diffchar.builders import build_space, circle, moebius_kuehnel_torus, sphere, torus_grid
from diffchar.cohomology import cycle_lattice_basis
from diffchar.complexes import Chain, Cochain
from diffchar.lowdegree import (
    GerbeError,
    cech_gerbe,
    gerbe_spark,
    gerbe_total_differential,
    patch_cover,
    phase_holonomy,
    phase_spark,
    star_cover,
)
from diffchar.sparks import SparkError, holonomy, spark_equivalent, validate_spark
from oracles import (
    _component_reps,
    cech_gauge,
    constant_triple_class_trivial,
    gerbe_flat_normal_form,
    gerbe_from_global,
)

F = Fraction
M = 4


def grid_window_cover():
    K = torus_grid(M)

    def vid(i, j):
        return (i % M) + M * (j % M)

    def window(rows, cols):
        verts = {vid(i, j) for i in cols for j in rows}
        return [
            t
            for k in range(K.dimension + 1)
            for t in K.simplices[k]
            if all(v in verts for v in t)
        ]

    cov = patch_cover(
        K,
        [
            window((0, 1, 2), (0, 1, 2)),
            window((0, 1, 2), (2, 3, 0)),
            window((2, 3, 0), (0, 1, 2)),
            window((2, 3, 0), (2, 3, 0)),
        ],
    )
    return K, cov


@pytest.fixture(scope="module")
def windows():
    return grid_window_cover()


@pytest.fixture(scope="module")
def third_gerbe(windows):
    K, cov = windows
    t = Cochain(
        2, tuple(F(1, 3) if i == 0 else F(0) for i in range(K.n_simplices(2)))
    )
    return t, gerbe_from_global(cov, t)


def random_gauge(K, cov, rng):
    """A patch, pair and shift move with small random rationals."""
    patch = {}
    for i, emb in enumerate(cov.embeddings):
        vals = [F(0)] * K.n_simplices(1)
        for p in emb.simplex_to_parent[1]:
            vals[p] = F(rng.randrange(-6, 7), rng.choice((1, 2, 3, 4)))
        patch[(i,)] = Cochain(1, tuple(vals))
    pair = {}
    for key, emb in cov.overlaps(2).items():
        vals = [F(0)] * K.n_simplices(0)
        for p in emb.simplex_to_parent[0]:
            vals[p] = F(rng.randrange(-6, 7), rng.choice((1, 2, 3)))
        pair[key] = Cochain(0, tuple(vals))
    return [patch, pair], random_shift(K, cov, rng, 3)


def random_shift(K, cov, rng, n):
    """Random integers, constant on each component of each n-fold overlap."""
    shift = {}
    for key, emb in cov.overlaps(n).items():
        reps, labels = _component_reps(emb)
        per_rep = {r: rng.randrange(-3, 4) for r in reps}
        vals = [0] * K.n_simplices(0)
        for p in emb.simplex_to_parent[0]:
            vals[p] = per_rep[labels[p]]
        shift[key] = Cochain(0, tuple(vals))
    return shift


def random_moves(K, cov, rng, k):
    """Random gauge moves in every layer of degree-k data, with shifts."""
    moves = []
    for m in range(k):
        d = k - 1 - m
        layer = {}
        for key, emb in cov.overlaps(m + 1).items():
            vals = [F(0)] * K.n_simplices(d)
            for p in emb.simplex_to_parent.get(d, []):
                vals[p] = F(rng.randrange(-6, 7), rng.choice((1, 2, 3)))
            layer[key] = Cochain(d, tuple(vals))
        moves.append(layer)
    return moves, random_shift(K, cov, rng, k + 1)


def random_assignment(K, cov, rng, k):
    """A random subordinate patch per k-simplex."""
    out = []
    for simp in K.simplices[k]:
        opts = [i for i, s in enumerate(cov.simplex_sets) if simp in s]
        out.append(rng.choice(opts))
    return out


def difference(g1, g2):
    """The layerwise difference of two gerbes over one cover."""
    K = g1.cover.K

    def sub(a, b, zero):
        return {key: a.get(key, zero) - b.get(key, zero) for key in a.keys() | b.keys()}

    return cech_gerbe(
        g1.cover,
        [sub(a, b, K.zero_cochain(2 - m)) for m, (a, b) in enumerate(zip(g1.layers, g2.layers))],
    )


# ---------------------------------------------------------------------------
# covers


def test_window_cover_shape(windows):
    K, cov = windows
    assert cov.n_patches == 4
    assert len(cov.overlaps(2)) == 6
    assert len(cov.overlaps(3)) == 4
    assert len(cov.overlaps(4)) == 1
    # strips and corner points disconnect, but nothing is flagged in
    # the degrees the gauge solves run over
    assert all(flag[2] == 0 for flag in cov.acyclicity_flags)


def test_star_cover_flags_sphere_doubles():
    cov = star_cover(sphere(2))
    assert cov.n_patches == 4 and len(cov.overlaps(4)) == 1
    kinds = {(kind, deg) for kind, key, deg, rank in cov.acyclicity_flags}
    assert ("double", 1) in kinds


def test_cover_must_cover_everything():
    K = torus_grid(3)
    with pytest.raises(GerbeError, match="misses"):
        patch_cover(K, [[K.simplices[2][0]]])


def test_patch_of_prefers_lowest_index(windows):
    K, cov = windows
    for simp in K.simplices[2]:
        i = cov.patch_of(simp)
        assert simp in cov.simplex_sets[i]
        assert all(simp not in cov.simplex_sets[j] for j in range(i))


# ---------------------------------------------------------------------------
# total differential


def test_trivial_gerbe_differential(windows):
    K, cov = windows
    phi, R = gerbe_total_differential(cech_gerbe(cov, [None] * 3))
    assert phi.is_zero()
    assert all(v.is_zero() for v in R.values())


def test_global_restriction_is_flat(windows, third_gerbe):
    K, cov = windows
    t, g = third_gerbe
    assert g.layers[1] == {} and g.layers[2] == {}
    phi, R = gerbe_total_differential(g)
    assert phi.is_zero()
    z = K.fundamental_cycle()
    assert holonomy(K, gerbe_spark(g), z) == F(1, 3)
    assert holonomy(K, gerbe_spark(g), z) == phase_holonomy(K, t, z)


def test_global_restriction_matches_single_chart_on_star_cover():
    K = moebius_kuehnel_torus()
    cov = star_cover(K)
    z = K.fundamental_cycle()
    rng = random.Random(5)
    for _ in range(3):
        t = Cochain(
            2,
            tuple(F(rng.randrange(-4, 5), 3) for _ in range(K.n_simplices(2))),
        )
        g = gerbe_from_global(cov, t)
        assert holonomy(K, gerbe_spark(g), z) == phase_holonomy(K, t, z)


def test_curved_gerbe_on_three_sphere():
    K = sphere(3)
    cov = star_cover(K)
    t = Cochain(2, tuple(F(1, 4) if i == 0 else F(0) for i in range(K.n_simplices(2))))
    g = gerbe_from_global(cov, t)
    phi, R = gerbe_total_differential(g)
    assert phi == K.delta(t) and not phi.is_zero()
    assert all(v.is_zero() for v in R.values())
    with pytest.raises(GerbeError, match="vanishing curvature"):
        gerbe_flat_normal_form(g)


def test_inconsistent_patch_layers_rejected():
    K = sphere(2)
    cov = star_cover(K)
    bump = Cochain(2, tuple(F(1, 2) if i == 0 else F(0) for i in range(4)))
    parts = [bump if i == 1 else K.zero_cochain(2) for i in range(cov.n_patches)]
    g = cech_gerbe(cov, [{(i,): u for i, u in enumerate(parts)}, None, None])
    with pytest.raises(GerbeError, match="inconsistent"):
        gerbe_total_differential(g)
    # no holonomy either, whatever the face assignment; without the layer
    # checks these two assignments would read 0 and 1/2
    z = K.fundamental_cycle()
    for faces in ([cov.patch_of(t) for t in K.simplices[2]], [1, 3, 0, 1]):
        with pytest.raises(GerbeError, match="inconsistent"):
            holonomy(K, gerbe_spark(g, {2: faces}), z)


def test_single_third_triple_without_quads_is_flat():
    # three closed stars cover the triangle circle and meet pairwise,
    # yet no quadruple overlap exists, so a lone 1/3 on the one triple
    # overlap is consistent and is its own normal form
    K = circle(3)
    cov = star_cover(K)
    assert len(cov.overlaps(3)) == 1 and len(cov.overlaps(4)) == 0
    a0 = Cochain(0, (F(1, 3), 0, 0))
    g = cech_gerbe(cov, [None, None, {(0, 1, 2): a0}])
    phi, R = gerbe_total_differential(g)
    assert phi.is_zero() and R == {}
    T = gerbe_flat_normal_form(g)
    assert T[(0, 1, 2)] == a0
    # every gerbe on a circle is trivial, and the decision agrees
    assert spark_equivalent(K, gerbe_spark(cech_gerbe(cov, [None] * 3)), gerbe_spark(g))


def test_single_third_triple_with_quads_rejected():
    K = sphere(2)
    cov = star_cover(K)
    a0 = Cochain(0, (F(1, 3),) * 4)
    g = cech_gerbe(cov, [None, None, {(0, 1, 2): a0}])
    with pytest.raises(GerbeError, match="non-integral"):
        gerbe_total_differential(g)


# ---------------------------------------------------------------------------
# holonomy


def test_holonomy_needs_closed_integral_surface(windows, third_gerbe):
    K, cov = windows
    _, g = third_gerbe
    open_chain = Chain(2, tuple(1 if i == 0 else 0 for i in range(K.n_simplices(2))))
    with pytest.raises(SparkError, match="boundary is nonzero"):
        holonomy(K, gerbe_spark(g), open_chain)
    z = K.fundamental_cycle()
    with pytest.raises(SparkError, match="integral cycle"):
        holonomy(K, gerbe_spark(g), Chain(2, tuple(F(v, 2) for v in z.values)))


def test_holonomy_rejects_non_subordinate_assignment(windows, third_gerbe):
    K, cov = windows
    _, g = third_gerbe
    z = K.fundamental_cycle()
    simp = K.simplices[2][0]
    outside = next(
        i for i in range(cov.n_patches) if simp not in cov.simplex_sets[i]
    )
    faces = [cov.patch_of(s) for s in K.simplices[2]]
    faces[0] = outside
    with pytest.raises(GerbeError, match="subordinate"):
        holonomy(K, gerbe_spark(g, {2: faces}), z)


def test_assignment_needs_one_patch_per_simplex():
    K, cov = torus_star_cover()
    g = gerbe_from_global(cov, K.cochain(2, (F(1, 3),) + (0,) * 13))
    faces = [cov.patch_of(s) for s in K.simplices[2]]
    for bad in (faces[:-1], faces + [5]):
        with pytest.raises(GerbeError, match="one patch per 2-simplex"):
            gerbe_spark(g, {2: bad})
    with pytest.raises(GerbeError, match="degrees 0..2"):
        gerbe_spark(g, {3: []})


def test_holonomy_gauge_invariant(windows, third_gerbe):
    K, cov = windows
    _, g = third_gerbe
    z = K.fundamental_cycle()
    rng = random.Random(11)
    cur = g
    for _ in range(8):
        cur = cech_gauge(cur, *random_gauge(K, cov, rng))
        phi, R = gerbe_total_differential(cur)
        assert phi.is_zero()
        assert all(v.is_integral() for v in R.values())
        assert holonomy(K, gerbe_spark(cur), z) == F(1, 3)


def test_holonomy_assignment_independent(windows, third_gerbe):
    K, cov = windows
    _, g = third_gerbe
    rng = random.Random(13)
    cur = cech_gauge(g, *random_gauge(K, cov, rng))
    z = K.fundamental_cycle()
    values = {
        holonomy(
            K, gerbe_spark(cur, {k: random_assignment(K, cov, rng, k) for k in (2, 1, 0)}), z
        )
        for _ in range(10)
    }
    assert values == {F(1, 3)}


def test_holonomy_additive_in_the_cycle(windows, third_gerbe):
    K, cov = windows
    _, g = third_gerbe
    rng = random.Random(17)
    cur = cech_gauge(g, *random_gauge(K, cov, rng))
    z = K.fundamental_cycle()
    for vec in cycle_lattice_basis(K, 2)[:3]:
        za = Chain(2, tuple(vec))
        zsum = Chain(2, tuple(a + b for a, b in zip(za.values, z.values)))
        total = holonomy(K, gerbe_spark(cur), za) + holonomy(K, gerbe_spark(cur), z)
        assert holonomy(K, gerbe_spark(cur), zsum) == total % 1


# ---------------------------------------------------------------------------
# the glued spark


def torus_star_cover():
    K = moebius_kuehnel_torus()
    return K, star_cover(K)


def test_glued_spark_of_global_phases_is_the_phases(windows):
    for K, cov in (torus_star_cover(), windows):
        rng = random.Random(31)
        t = Cochain(
            2, tuple(F(rng.randrange(-6, 7), 5) for _ in range(K.n_simplices(2)))
        )
        s = gerbe_spark(gerbe_from_global(cov, t))
        assert s.a == t
        assert s.R.is_zero()


@pytest.mark.parametrize("where", ["windows", "torus-stars"])
def test_glued_spark_is_one_character(windows, where):
    K, cov = windows if where == "windows" else torus_star_cover()
    t = Cochain(2, tuple(F(1, 3) if i == 0 else F(0) for i in range(K.n_simplices(2))))
    g = gerbe_from_global(cov, t)
    ref = gerbe_spark(g)
    rng = random.Random(37)
    cur = g
    for _ in range(5):
        cur = cech_gauge(cur, *random_gauge(K, cov, rng))
        s = gerbe_spark(cur, {k: random_assignment(K, cov, rng, k) for k in (2, 1, 0)})
        validate_spark(K, s)
        assert spark_equivalent(K, s, ref)
        assert holonomy(K, gerbe_spark(cur), K.fundamental_cycle()) == F(1, 3)


@pytest.mark.parametrize("space", ["circle4", "sphere2", "torus", "sphere3", "rp2"])
def test_cover_model_glues_to_the_phase_spark_in_every_degree(space):
    # global k-phases in [0, 1/(2(k+2))) never reach the branch cut, so
    # phase_spark states their character without any layer algebra; the
    # cover model must glue to it after gauge moves in every layer and
    # under any subordinate assignment
    K = build_space(space)
    cov = star_cover(K)
    rng = random.Random(41)
    for k in range(1, K.dimension + 1):
        for _ in range(3):
            theta = Cochain(
                k, tuple(F(rng.randrange(7), 14 * (k + 2)) for _ in range(K.n_simplices(k)))
            )
            g = cech_gauge(gerbe_from_global(cov, theta), *random_moves(K, cov, rng, k))
            s = gerbe_spark(g, {d: random_assignment(K, cov, rng, d) for d in range(k + 1)})
            validate_spark(K, s)
            assert spark_equivalent(K, s, phase_spark(K, theta))


def test_glued_spark_without_triangles():
    K = circle(3)
    cov = star_cover(K)
    g = cech_gerbe(cov, [None, None, {(0, 1, 2): Cochain(0, (F(1, 3), 0, 0))}])
    s = gerbe_spark(g)
    assert s.a == K.zero_cochain(2) and s.R == K.zero_cochain(3)


# ---------------------------------------------------------------------------
# normal form and gauge equivalence


def test_flat_normal_form_of_third_gerbe(windows, third_gerbe):
    K, cov = windows
    _, g = third_gerbe
    T = gerbe_flat_normal_form(g)
    denoms = {Fraction(v).denominator for u in T.values() for v in u.values}
    assert denoms <= {1, 3} and 3 in denoms
    gT = cech_gerbe(cov, [None, None, T])
    phi, R = gerbe_total_differential(gT)
    assert phi.is_zero()
    assert all(v.is_zero() for v in R.values())
    assert holonomy(K, gerbe_spark(gT), K.fundamental_cycle()) == F(1, 3)


def test_trivial_normal_form_is_zero(windows):
    K, cov = windows
    T = gerbe_flat_normal_form(cech_gerbe(cov, [None] * 3))
    assert all(u.is_zero() for u in T.values())


def test_normal_form_unique_up_to_constants(windows, third_gerbe):
    K, cov = windows
    _, g = third_gerbe
    rng = random.Random(19)
    T1 = gerbe_flat_normal_form(g)
    T2 = gerbe_flat_normal_form(cech_gauge(g, *random_gauge(K, cov, rng)))
    diff = {key: T1[key] - T2[key] for key in T1}
    assert constant_triple_class_trivial(cov, diff)


def decision_pairs(windows, third_gerbe):
    """Pairs of gerbes over the window cover, with the expected answer."""
    K, cov = windows
    _, g = third_gerbe
    triv = cech_gerbe(cov, [None] * 3)
    rng = random.Random(23)
    moved = cech_gauge(triv, *random_gauge(K, cov, rng))
    return [
        (triv, moved, True),
        (g, cech_gauge(g, *random_gauge(K, cov, rng)), True),
        (triv, g, False),
        (g, cech_gerbe(cov, [None, None, gerbe_flat_normal_form(g)]), True),
    ]


def test_gauge_equivalence_decision(windows, third_gerbe):
    K, _ = windows
    for g1, g2, expected in decision_pairs(windows, third_gerbe):
        assert spark_equivalent(K, gerbe_spark(g1), gerbe_spark(g2)) == expected


def test_gauge_equivalence_agrees_with_normal_form(windows, third_gerbe):
    _, cov = windows
    for g1, g2, expected in decision_pairs(windows, third_gerbe):
        T = gerbe_flat_normal_form(difference(g1, g2))
        assert constant_triple_class_trivial(cov, T) == expected


def test_distinct_flat_classes_not_equivalent(windows, third_gerbe):
    K, cov = windows
    t, g = third_gerbe
    doubled = gerbe_from_global(cov, t + t)
    assert gerbe_total_differential(doubled)[0].is_zero()
    assert not spark_equivalent(K, gerbe_spark(g), gerbe_spark(doubled))


# ---------------------------------------------------------------------------
# layer validation


def test_layers_validate_support(windows):
    K, cov = windows
    stray = Cochain(1, tuple(F(1) for _ in range(K.n_simplices(1))))
    with pytest.raises(GerbeError, match="support"):
        cech_gerbe(cov, [None, {(0, 1): stray}, None])


def test_shift_must_be_integral_and_constant(windows, third_gerbe):
    K, cov = windows
    _, g = third_gerbe
    key = min(cov.overlaps(3))
    emb = cov.overlaps(3)[key]
    vals = [F(0)] * K.n_simplices(0)
    vals[emb.simplex_to_parent[0][0]] = F(1, 2)
    with pytest.raises(GerbeError, match="integral"):
        cech_gauge(g, shift={key: Cochain(0, tuple(vals))})
    # non-constant integers fail too, on a cover whose triple overlap
    # is connected (the sphere star-cover one contains a whole face)
    K2 = sphere(2)
    cov2 = star_cover(K2)
    emb2 = cov2.overlaps(3)[(0, 1, 2)]
    vals2 = [0] * K2.n_simplices(0)
    vals2[emb2.simplex_to_parent[0][0]] = 1
    with pytest.raises(GerbeError, match="locally constant"):
        cech_gauge(
            cech_gerbe(cov2, [None] * 3), shift={(0, 1, 2): Cochain(0, tuple(vals2))}
        )


def test_pair_keys_must_be_overlaps(windows):
    K, cov = windows
    with pytest.raises(GerbeError, match="double overlap"):
        cech_gerbe(cov, [None, {(1, 0): K.zero_cochain(1)}, None])
