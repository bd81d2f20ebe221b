"""Weighted Hodge operators, decomposition, spark potentials, AJ values."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from diffchar import cli, exact, hodge
from diffchar.builders import (
    build_space,
    circle,
    moebius_kuehnel_torus,
    rp2,
    sphere,
    torus_grid,
    torus_grid_axis_cocycles,
)
from diffchar.cohomology import (
    coboundary_smith_form,
    cohomology_generators,
    cohomology_structure,
    integer_homology,
)
from diffchar.complexes import Chain
from diffchar.exact import RatElim, SymmetricSolver, gram_rows, smith_normal_form
from diffchar.hodge import (
    HodgeContext,
    HodgeError,
    abel_jacobi,
    is_principal,
    path_chain,
    point_abel_jacobi,
    spark_from_cocycle,
)
from diffchar.morse import greedy_matching
from diffchar.sparks import Spark, curvature, spark_equivalent
from oracles import elementary_cochain, green, inner, laplacian, rat_rank, varied_weights
from smith_ledger import frozen_entries
from test_exact import _count_smith_forms

F = Fraction


def rand_cochain(K, k, rng, denom=4):
    return K.cochain(
        k,
        tuple(
            F(rng.randint(-6, 6), rng.randint(1, denom))
            for _ in range(K.n_simplices(k))
        ),
    )


def test_adjoint_is_weighted_adjoint():
    K = sphere(2)
    rng = random.Random(1)
    ctx = HodgeContext(K, weights=varied_weights(K, rng))
    for k in range(K.dimension):
        u = rand_cochain(K, k, rng)
        v = rand_cochain(K, k + 1, rng)
        assert inner(ctx, K.delta(u), v) == inner(ctx, u, ctx.adjoint_delta(v))


def test_harmonic_projection_circle_frozen():
    # edges of circle(3) in sorted order: (0,1), (0,2), (1,2); the
    # harmonic line is spanned by the rotation form (1, -1, 1)
    K = circle(3)
    ctx = HodgeContext(K)
    u = K.cochain(1, (1, 0, 0))
    assert ctx.harmonic_projection(u).values == (F(1, 3), F(-1, 3), F(1, 3))


def test_harmonic_basis_dimensions():
    cases = [
        (circle(4), {0: 1, 1: 1}),
        (sphere(2), {0: 1, 1: 0, 2: 1}),
        (moebius_kuehnel_torus(), {0: 1, 1: 2, 2: 1}),
        (rp2(), {0: 1, 1: 0, 2: 0}),
    ]
    for K, expected in cases:
        ctx = HodgeContext(K)
        for k, dim in expected.items():
            assert len(ctx.harmonic_basis(k)) == dim
            assert cohomology_structure(K, k).free_rank == dim


@pytest.mark.parametrize(
    "K", [sphere(2), rp2(), moebius_kuehnel_torus()], ids=["sphere2", "rp2", "torus"]
)
def test_weighted_harmonic_basis_spans_laplacian_kernel(K):
    ctx = HodgeContext(K, weights=varied_weights(K, random.Random(7)))
    for k in range(K.dimension + 1):
        betti = cohomology_structure(K, k).free_rank
        basis = ctx.harmonic_basis(k)
        assert len(basis) == betti
        for b in basis:
            assert laplacian(ctx, b).is_zero()
        # the rational kernel of the weighted Laplacian is the oracle:
        # stacking either basis onto the other must not raise the rank;
        # its matrix is read off the Laplacian of each unit cochain
        n_k = K.n_simplices(k)
        cols = [
            laplacian(ctx, K.cochain(k, [int(i == j) for i in range(n_k)])).values
            for j in range(n_k)
        ]
        rows = [{j: c[i] for j, c in enumerate(cols) if c[i]} for i in range(n_k)]
        oracle = RatElim(rows, n_k).nullspace()
        assert len(oracle) == betti
        both = [dict(enumerate(v)) for v in oracle] + [
            dict(enumerate(b.values)) for b in basis
        ]
        assert RatElim(both, K.n_simplices(k)).rank == betti


@pytest.mark.parametrize("seed", [0, 1])
def test_harmonic_projection_properties(seed):
    K = moebius_kuehnel_torus()
    rng = random.Random(seed)
    weights = None if seed == 0 else varied_weights(K, rng)
    ctx = HodgeContext(K, weights=weights)
    u = rand_cochain(K, 1, rng)
    h = ctx.harmonic_projection(u)
    assert K.delta(h).is_zero()
    assert ctx.adjoint_delta(h).is_zero()
    assert ctx.harmonic_projection(h) == h
    for b in ctx.harmonic_basis(1):
        assert inner(ctx, u - h, b) == 0


@pytest.mark.parametrize(
    "K", [sphere(2), rp2(), moebius_kuehnel_torus()], ids=["sphere2", "rp2", "torus"]
)
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_decompose_primitive_coexact_coprimitive_exact(K, weighted):
    rng = random.Random(11)
    ctx = HodgeContext(K, weights=varied_weights(K, rng) if weighted else None)
    for k in range(K.dimension + 1):
        dec = ctx.decompose(rand_cochain(K, k, rng))
        b, c = dec.primitive, dec.coprimitive
        assert ctx.adjoint_delta(b).is_zero()
        assert ctx.harmonic_projection(b).is_zero()
        assert K.delta(c).is_zero()
        assert ctx.harmonic_projection(c).is_zero()


def test_green_properties():
    K = moebius_kuehnel_torus()
    rng = random.Random(3)
    ctx = HodgeContext(K)
    u = rand_cochain(K, 1, rng)
    g = green(ctx, u)
    assert laplacian(ctx, g) == u - ctx.harmonic_projection(u)
    assert ctx.harmonic_projection(g).is_zero()
    h = ctx.harmonic_basis(1)[0]
    assert green(ctx, h).is_zero()


def test_green_commutes_with_delta():
    K = sphere(2)
    rng = random.Random(5)
    ctx = HodgeContext(K, weights=varied_weights(K, rng))
    u = rand_cochain(K, 1, rng)
    assert K.delta(green(ctx, u)) == green(ctx, K.delta(u))


@pytest.mark.parametrize("seed", [0, 2])
def test_decompose_exact_residuals(seed):
    rng = random.Random(seed)
    for K in (sphere(2), rp2()):
        weights = None if seed == 0 else varied_weights(K, rng)
        ctx = HodgeContext(K, weights=weights)
        for k in range(K.dimension + 1):
            u = rand_cochain(K, k, rng)
            dec = ctx.decompose(u)
            res = ctx.decomposition_residuals(u, dec)
            assert res == {"reconstruction": 0, "closed": 0, "coclosed": 0}
            assert all(type(v) is Fraction for v in res.values())
            assert dec.primitive.degree == k - 1
            assert dec.coprimitive.degree == k + 1


def test_decompose_cg_residuals():
    K = torus_grid(4)
    rng = random.Random(9)
    ctx = HodgeContext(K, method="cg", tol=1e-12)
    assert not ctx.exact
    u = K.cochain(1, tuple(rng.randint(-5, 5) for _ in range(K.n_simplices(1))))
    dec = ctx.decompose(u)
    res = ctx.decomposition_residuals(u, dec)
    assert all(type(v) is float and abs(v) <= 1e-10 for v in res.values()), res


def test_auto_is_exact_on_the_lens_fixtures():
    # EXACT_SIZE_LIMIT lies between lens:7,2 (2928 simplices) and the
    # 23 x 23 grid torus (3174)
    for name in ("lens:5,2", "lens:7,2"):
        assert HodgeContext(build_space(name)).exact
    assert not HodgeContext(torus_grid(23)).exact


def test_splitting_identity():
    # x recombines from harmonic part, a coboundary, and the canonical
    # potential of its own coboundary
    K = moebius_kuehnel_torus()
    rng = random.Random(11)
    ctx = HodgeContext(K)
    x = rand_cochain(K, 1, rng)
    h = ctx.harmonic_projection(x)
    db = K.delta(ctx.adjoint_delta(green(ctx, x)))
    # the canonical potential of delta x, -(x - h - delta e), with the
    # exact part delta e of x solved on a separately built complex, so no
    # factorization is shared with ctx
    L = moebius_kuehnel_torus()
    e = HodgeContext(L)._exact_potential(L.cochain(1, x.values))
    s = -(x - h - K.delta(K.cochain(0, e.values)))
    assert x == h + db - s


def test_hodge_spark_circle_frozen():
    K = circle(3)
    ctx = HodgeContext(K)
    R = K.cochain(1, (1, 0, 0))
    s = ctx.hodge_spark(R)
    assert s.a.values == (F(1, 3), F(-1, 3), F(0))
    assert curvature(K, s) == ctx.harmonic_projection(R)


def test_hodge_spark_torus():
    K = moebius_kuehnel_torus()
    ctx = HodgeContext(K)
    R = cohomology_generators(K, 2)[0][0]
    s = ctx.hodge_spark(R)
    phi = curvature(K, s)
    assert phi == ctx.harmonic_projection(R)
    assert ctx.adjoint_delta(phi).is_zero()
    # exact charge gives a flat spark
    rng = random.Random(2)
    S = K.delta(K.cochain(1, tuple(rng.randint(-2, 2) for _ in range(21))))
    assert curvature(K, ctx.hodge_spark(S)).is_zero()


def test_hodge_spark_rejects_bad_charge():
    K = moebius_kuehnel_torus()
    ctx = HodgeContext(K)
    from diffchar.sparks import SparkError

    with pytest.raises(SparkError):
        ctx.hodge_spark(K.cochain(1, (F(1, 2),) + (0,) * 20))


def test_spark_normal_form():
    K = moebius_kuehnel_torus()
    rng = random.Random(4)
    ctx = HodgeContext(K)
    from diffchar.sparks import random_spark

    s = random_spark(K, 1, rng)
    nf = ctx.spark_normal_form(s)
    assert nf.R == s.R
    assert spark_equivalent(K, s, nf)
    again = ctx.spark_normal_form(nf)
    assert again.a == nf.a
    # the potential has no coboundary component left
    dec = ctx.decompose(nf.a)
    assert K.delta(dec.primitive).is_zero()


def test_normal_form_fixes_hodge_sparks():
    K = moebius_kuehnel_torus()
    ctx = HodgeContext(K)
    R = cohomology_generators(K, 2)[0][0]
    s = ctx.hodge_spark(R)
    assert ctx.spark_normal_form(s).a == s.a


def test_weight_validation():
    K = circle(3)
    with pytest.raises(HodgeError):
        HodgeContext(K, weights={1: (1, 2)})
    with pytest.raises(HodgeError):
        HodgeContext(K, weights={0: (1, -1, 1)})
    # only exact weights: a float or a bool is refused, as in a cochain
    for bad in (0.5, True):
        with pytest.raises(HodgeError, match="ints or Fractions"):
            HodgeContext(K, weights={1: (1, bad, 1)}, method="exact")


def _generators(K, k):
    free, tor = cohomology_generators(K, k)
    return free + [g for _, g, _ in tor]


def test_mixed_weight_profile(monkeypatch):
    # weights given in the top degree only: the other degrees are
    # uniform, equal to explicit all-ones tuples there, and share the
    # factorizations that spark_from_cocycle left on K
    K = moebius_kuehnel_torus()
    n = K.dimension
    w_top = varied_weights(K, random.Random(6))[n]
    mixed = HodgeContext(K, weights={n: w_top}, method="exact")
    ones = {k: (Fraction(1),) * K.n_simplices(k) for k in range(n)}
    explicit = HodgeContext(K, weights={**ones, n: w_top}, method="exact")
    rng = random.Random(8)
    expected = {}
    for k in range(n + 1):
        u = rand_cochain(K, k, rng)
        assert mixed.decompose(u) == explicit.decompose(u)
        assert green(mixed, u) == green(explicit, u)
        for i, g in enumerate(_generators(K, k)):
            expected[k, i] = mixed.hodge_spark(g)
            assert expected[k, i] == explicit.hodge_spark(g)
    K = moebius_kuehnel_torus()
    for k in range(n + 1):
        for g in _generators(K, k):
            spark_from_cocycle(K, g)

    def no_elimination(*args, **kwargs):
        raise AssertionError("factored again")

    monkeypatch.setattr(hodge, "SymmetricSolver", no_elimination)
    mixed = HodgeContext(K, weights={n: w_top}, method="exact")
    # degree 0 would factor the empty N_{-2} of a degree -1 normal form
    for k in range(1, n):
        for i, g in enumerate(_generators(K, k)):
            assert mixed.hodge_spark(g) == expected[k, i]
    # the weighted top degree keeps its own Gram system
    with pytest.raises(AssertionError, match="factored again"):
        mixed.harmonic_basis(n)


def test_no_reference_cycle_holds_a_complex(monkeypatch, capsys):
    # with the cyclic collector off, a complex must die with its last
    # reference: a context cached on K would keep K alive through
    # K -> cache -> context -> K
    built = []

    def recorded_build(name, *args):
        K = build_space(name, *args)
        built.append(weakref.ref(K))
        return K

    monkeypatch.setattr(cli, "build_space", recorded_build)
    gc.collect()
    gc.disable()
    try:
        K = moebius_kuehnel_torus()
        spark_from_cocycle(K, cohomology_generators(K, 1)[0][0])
        w = varied_weights(K, random.Random(2))
        HodgeContext(K, weights={1: w[1]}, method="exact").decompose(
            rand_cochain(K, 1, random.Random(3))
        )
        ref = weakref.ref(K)
        del K
        assert ref() is None
        argv = ["verify", "--space", "torus", "--trials", "2", "--seed", "0"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(built) == 1 and built[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["circle3", "torus_grid3"])
def test_cg_method_leaves_exact_operations_exact(name):
    # method chooses the solver of decompose alone: sparks, normal
    # forms, harmonic projections and Abel-Jacobi values stay exact
    K = build_space(name)
    cg, exact = HodgeContext(K, method="cg"), HodgeContext(K, method="exact")
    assert not cg.exact
    rng = random.Random(4)
    R = cohomology_generators(K, 1)[0][0]
    s = Spark(rand_cochain(K, 0, rng), R)
    u = rand_cochain(K, 1, rng)
    z = Chain(0, (-1, 1) + (0,) * (K.n_vertices - 2))
    for op in (
        lambda c: c.hodge_spark(R).a.values,
        lambda c: c.spark_normal_form(s).a.values,
        lambda c: c.harmonic_projection(u).values,
        lambda c: point_abel_jacobi(c, 0, K.n_vertices - 1),
        lambda c: abel_jacobi(c, z),
    ):
        got = op(cg)
        assert got == op(exact)
        assert not any(isinstance(v, float) for v in got)


def test_point_abel_jacobi_grid_frozen():
    # vertex (i, j) of the 3x3 grid torus has id i + 3j; moving by
    # (1, 2) from the origin lands on id 7 and integrates the axis
    # harmonic forms to 1/3 and 2/3
    K = torus_grid(3)
    ctx = HodgeContext(K)
    basis = list(torus_grid_axis_cocycles(K, 3))
    for g in basis:
        assert K.delta(g).is_zero() and g.is_integral()
    assert point_abel_jacobi(ctx, 0, 7, basis=basis) == (F(1, 3), F(2, 3))


def test_point_abel_jacobi_rejects_bad_vertices():
    K = moebius_kuehnel_torus()
    ctx = HodgeContext(K)
    for src, dst in ((0, 99), (0, 7), (-1, 3), (3, -1)):
        with pytest.raises(HodgeError, match="vertex"):
            point_abel_jacobi(ctx, src, dst)


def test_green_rp2_varied_weights_frozen():
    # frozen from the Fraction Gauss-Jordan of the weighted Laplacian; the
    # oracle builds that Laplacian from ctx.adjoint_delta, so the value
    # pins the weighted adjoint and the harmonic projection
    K = rp2()
    ctx = HodgeContext(K, weights=varied_weights(K, random.Random(5)))
    u = K.cochain(1, tuple(F((i * 7) % 5 - 2, 1 + i % 3) for i in range(15)))
    expected = (
        "-10224407468437/5512269774480 7482188064917/11024539548960 "
        "3069769013963/1837423258160 -1749567803111/11024539548960 "
        "-585340696223/1837423258160 -19476277303867/11024539548960 "
        "124264689481/2756134887240 3800450964829/1574934221280 "
        "-1033878969577/918711629080 2220590612813/1574934221280 "
        "-181145988488/114838953635 1003807868599/11024539548960 "
        "7591549747189/3674846516320 3130992731791/2756134887240 "
        "10586044981657/11024539548960"
    )
    assert green(ctx, u).values == tuple(F(v) for v in expected.split())
    # a second decomposition reuses the cached normal factorizations
    dec = ctx.decompose(u)
    normal = {j: ctx._cache[("normal", j)] for j in (0, 1)}
    assert ctx.decompose(u) == dec
    assert all(ctx._cache[("normal", j)] is f for j, f in normal.items())


def test_point_abel_jacobi_path_invariance():
    K = torus_grid(3)
    ctx = HodgeContext(K)
    basis = list(torus_grid_axis_cocycles(K, 3))
    target = (F(1, 3), F(2, 3))
    vertex_paths = [
        [0, 1, 4, 7],
        [0, 3, 4, 7],
        [0, 4, 7],
        [0, 3, 6, 7],
        [0, 1, 4, 5, 8, 7],
        [0, 2, 1, 4, 7],
    ]
    for p in vertex_paths:
        assert point_abel_jacobi(ctx, 0, 7, path=p, basis=basis) == target
    # chain-level reroutes: add a boundary and a full loop
    rng = random.Random(6)
    base = path_chain(K, [0, 1, 4, 7])
    for _ in range(4):
        two = K.chain(2, tuple(rng.randint(-2, 2) for _ in range(K.n_simplices(2))))
        loop = path_chain(K, [0, 1, 2, 0])
        c = Chain(1, tuple(
            a + b + l for a, b, l in
            zip(base.values, K.boundary(two).values, loop.values)
        ))
        assert point_abel_jacobi(ctx, 0, 7, path=c, basis=basis) == target


def test_point_abel_jacobi_rejects_rational_paths():
    # both edge paths from 0 to 1 read (0, 1/3); their average, a
    # rational chain with the same boundary, would read (0, 5/6)
    K = torus_grid(3)
    ctx = HodgeContext(K)
    short, detour = path_chain(K, [0, 1]), path_chain(K, [0, 2, 1])
    assert point_abel_jacobi(ctx, 0, 1, path=short) == (0, F(1, 3))
    assert point_abel_jacobi(ctx, 0, 1, path=detour) == (0, F(1, 3))
    average = (short + detour).scale(F(1, 2))
    assert K.boundary(average) == K.boundary(short)
    with pytest.raises(HodgeError, match="integral"):
        point_abel_jacobi(ctx, 0, 1, path=average)


def test_abel_jacobi_basis_must_be_integral_cocycles():
    K = torus_grid(3)
    ctx = HodgeContext(K)
    g = list(torus_grid_axis_cocycles(K, 3))[0]
    edge = elementary_cochain(K, K.simplices[1][0])
    for bad in (g.scale(F(1, 2)), edge, K.zero_cochain(2)):
        with pytest.raises(HodgeError, match="integral cocycles"):
            point_abel_jacobi(ctx, 0, 7, basis=[bad])
        with pytest.raises(HodgeError, match="integral cocycles"):
            abel_jacobi(ctx, K.boundary(path_chain(K, [0, 1, 4, 7])), basis=[bad])


def test_point_abel_jacobi_default_basis():
    K = torus_grid(3)
    ctx = HodgeContext(K)
    vals = point_abel_jacobi(ctx, 0, 7)
    assert len(vals) == 2
    assert all(0 <= v < 1 for v in vals)


def test_abel_jacobi_needs_bounding_cycle():
    K = moebius_kuehnel_torus()
    ctx = HodgeContext(K)
    z = K.chain(0, (1,) + (0,) * 6)
    with pytest.raises(HodgeError):
        abel_jacobi(ctx, z)
    # the torsion 1-cycle of rp2 bounds over Q, but only twice it over Z
    K = rp2()
    ctx = HodgeContext(K)
    _, z, _ = integer_homology(K, 1).torsion_generator_vectors()[0]
    with pytest.raises(HodgeError, match="cycle does not bound"):
        abel_jacobi(ctx, K.chain(1, z))
    assert abel_jacobi(ctx, K.chain(1, [2 * x for x in z])) == ()


def test_abel_jacobi_trivial_on_sphere():
    K = sphere(2)
    ctx = HodgeContext(K)
    assert point_abel_jacobi(ctx, 0, 2) == ()


def test_abel_jacobi_degree_one_cycle():
    # a bounding 1-cycle on the sphere has a single AJ value against
    # the top generator
    K = sphere(2)
    ctx = HodgeContext(K)
    loop = path_chain(K, [0, 1, 2, 0])
    vals = abel_jacobi(ctx, loop)
    assert len(vals) == 1
    assert 0 <= vals[0] < 1


def test_is_principal_scaling():
    # the divisor m*(vertex 7 - vertex 0) on the 3x3 grid torus has AJ
    # vector m*(1/3, 2/3), so it is principal exactly at multiples of 3
    K = torus_grid(3)
    ctx = HodgeContext(K)
    basis = list(torus_grid_axis_cocycles(K, 3))
    for m in range(-4, 7):
        z_vals = [0] * K.n_simplices(0)
        z_vals[7] += m
        z_vals[0] -= m
        z = Chain(0, tuple(z_vals))
        assert is_principal(ctx, z, basis=basis) == (m % 3 == 0)


def test_is_principal_trivial_cases():
    K = torus_grid(3)
    ctx = HodgeContext(K)
    assert is_principal(ctx, K.chain(0, [0] * K.n_simplices(0)))
    with pytest.raises(HodgeError):
        is_principal(ctx, K.chain(0, (1,) + (0,) * 8))


def test_varied_weights_reproducible():
    K = circle(4)
    a = varied_weights(K, random.Random(5))
    b = varied_weights(K, random.Random(5))
    assert a == b


# ---------------------------------------------------------------------------
# the Morse gauge of the normal systems

GAUGE_FIXTURES = [
    "circle5", "sphere3", "torus", "torus_grid5", "genus2", "rp2", "rp3", "cp2",
    "simplex3", "lens:5,2", "lens:6,1", "product:circle,torus",
]


def _gauge(K, k):
    """The k-cells that the greedy matching does not match downward."""
    down = set(greedy_matching(K).up_map(k - 1).values())
    return [c for c in range(K.n_simplices(k)) if c not in down]


@pytest.mark.parametrize("name", GAUGE_FIXTURES)
def test_gauge_columns_keep_the_coboundary_rank(name):
    # the columns of delta_k on the gauge span im delta_k: both ranks,
    # by Smith form and by rational elimination, agree with the cached
    # Smith form of the whole delta_k
    K = build_space(name)
    for k in range(1, K.dimension + 1):
        gauge = _gauge(K, k)
        at = {c: i for i, c in enumerate(gauge)}
        rows = [{at[c]: v for c, v in row.items() if c in at} for row in K.delta_rows(k)]
        rank = coboundary_smith_form(K, k).rank
        assert rat_rank(K.delta_rows(k), K.n_simplices(k)) == rank
        assert smith_normal_form(rows, nrows=len(rows), ncols=len(gauge)).rank == rank
        assert rat_rank(rows, len(gauge)) == rank


class FullSystems(HodgeContext):
    """Every normal system factored over all n_k columns, with no gauge."""

    def _normal(self, k):
        key = ("full normal", k)
        if key not in self._cache:
            n_k, rows = self.K.n_simplices(k), self.K.delta_rows(k)
            solver = SymmetricSolver(gram_rows(rows, n_k, self._uneven(k + 1)))
            self._cache[key] = range(n_k), rows, solver
        return self._cache[key]


@pytest.mark.parametrize("name", ["rp3", "cp2", "lens:5,2", "torus_grid5"])
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "varied"])
def test_gauged_solves_match_full_systems(name, weighted):
    # the full context gets its own complex: uniform harmonic bases are
    # cached on K
    K, K_full = build_space(name), build_space(name)
    weights = varied_weights(K, random.Random(11)) if weighted else None
    ctx, full = HodgeContext(K, weights), FullSystems(K_full, weights)
    rng = random.Random(12)
    for k in range(K.dimension + 1):
        assert [b.values for b in ctx.harmonic_basis(k)] == [
            b.values for b in full.harmonic_basis(k)
        ]
        if k >= 1:
            assert ctx._normal(k)[0] == _gauge(K, k)
        u = rand_cochain(K, k, rng)
        if k >= 1:
            assert K.delta(ctx._exact_potential(u)) == K.delta(full._exact_potential(u))
        assert ctx.decompose(u) == full.decompose(u)


# (k, n_k, |S|, nnz of N_S, flops sum |col|^2) of each normal factorization,
# in order, that `verify --trials 5 --seed 0` makes
NORMAL_LEDGER = {
    "cp2": [(-1, 0, 0, 0, 0), (1, 36, 28, 344, 3070), (0, 9, 9, 81, 204),
            (-2, 0, 0, 0, 0), (2, 84, 56, 570, 7689), (3, 90, 35, 151, 122),
            (4, 36, 1, 0, 0)],
    "rp3": [(-1, 0, 0, 0, 0), (0, 40, 40, 504, 4138), (-2, 0, 0, 0, 0),
            (1, 232, 193, 1715, 101689), (2, 384, 192, 692, 451), (3, 192, 1, 0, 0)],
    "torus_grid5": [(-1, 0, 0, 0, 0), (0, 25, 25, 175, 1559), (-2, 0, 0, 0, 0),
                    (1, 75, 51, 175, 142), (2, 50, 1, 0, 0)],
    "lens:5,2": [(-1, 0, 0, 0, 0), (0, 88, 88, 1224, 16636), (-2, 0, 0, 0, 0),
                 (1, 568, 481, 4399, 830931), (2, 960, 480, 1662, 992), (3, 480, 1, 0, 0)],
}


def _count_normal_factorizations(monkeypatch):
    """(k, n_k, |S|, nnz, flops) of each normal L D L^T formed from now on."""
    formed, degrees = [], []
    ldl, normal = exact._ldl_mod, HodgeContext._normal

    def counted_ldl(rows, p):
        steps = ldl(rows, p)
        if degrees:
            flops = sum(len(col) ** 2 for _, _, col in steps)
            formed.append((*degrees[-1], len(rows), sum(map(len, rows)), flops))
        return steps

    def counted_normal(self, k):
        degrees.append((k, self.K.n_simplices(k)))
        try:
            return normal(self, k)
        finally:
            degrees.pop()

    monkeypatch.setattr(exact, "_ldl_mod", counted_ldl)
    monkeypatch.setattr(HodgeContext, "_normal", counted_normal)
    return formed


@pytest.mark.parametrize("name", sorted(NORMAL_LEDGER))
def test_verify_normal_factorizations_frozen(monkeypatch, capsys, name):
    # the same runs also give the verify entries of the Smith-form ledger
    formed = _count_normal_factorizations(monkeypatch)
    smith = _count_smith_forms(monkeypatch)
    assert cli.main(["verify", "--space", name, "--trials", "5", "--seed", "0"]) == 0
    capsys.readouterr()
    assert formed == NORMAL_LEDGER[name]
    assert smith == frozen_entries(f"verify {name}")
