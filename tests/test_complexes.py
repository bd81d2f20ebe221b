"""Complex core: operators, products, subdivision counts, maps, serialization."""

import hashlib
import json
import pickle
import random
from fractions import Fraction

import pytest

from diffchar import cli
from diffchar.builders import _subdivision_f_vector, build_space
from diffchar.complexes import (
    Chain,
    Cochain,
    ComplexError,
    SimplicialComplex,
    closed_star,
    induced_subcomplex,
    parse_scalar,
    pull_cochain,
    scalar_str,
    simplicial_chain_maps,
)
from diffchar.exact import ScaledVector, rows_to_dense, scaled_product
from oracles import (
    by_value,
    elementwise_cup,
    elementwise_evaluate,
    elementwise_product,
    rat_rank,
    rows_delta,
    vertex_components,
)


def triangle_circle():
    return SimplicialComplex([(0, 1), (1, 2), (0, 2)])


def sphere2():
    # boundary of the 3-simplex
    return SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def solid_tetra():
    return SimplicialComplex([(0, 1, 2, 3)])


def random_cochain(rng, K, k, denom=4):
    return Cochain(
        k,
        tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, denom))
            for _ in range(K.n_simplices(k))
        ),
    )


class TestConstruction:
    def test_closure_fills_faces(self):
        K = SimplicialComplex([(0, 1, 2)])
        assert K.f_vector() == (3, 3, 1)
        assert K.simplices[1] == [(0, 1), (0, 2), (1, 2)]

    def test_closure_violation_detected(self):
        with pytest.raises(ComplexError, match="closure violated"):
            SimplicialComplex([(0, 1, 2)], auto_close=False)

    def test_degenerate_rejected(self):
        with pytest.raises(ComplexError, match="degenerate"):
            SimplicialComplex([(0, 1, 1)])

    def test_gap_in_vertices_rejected(self):
        with pytest.raises(ComplexError, match="contiguous"):
            SimplicialComplex([(0, 2)])

    def test_vertex_order_normalized(self):
        K = SimplicialComplex([(2, 0, 1)])
        assert K.simplices[2] == [(0, 1, 2)]

    def test_euler_characteristic(self):
        assert triangle_circle().euler_characteristic() == 0
        assert sphere2().euler_characteristic() == 2
        assert solid_tetra().euler_characteristic() == 1


class TestBoundary:
    def test_triangle_boundary_matrix(self):
        K = triangle_circle()
        dense = rows_to_dense(K.boundary_rows(1), 3)
        # edges (0,1),(0,2),(1,2); rows are vertices 0,1,2
        assert dense == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]

    def test_boundary_squares_to_zero(self):
        for K in (sphere2(), solid_tetra()):
            for k in range(2, K.dimension + 1):
                z = Chain(k, tuple(range(1, K.n_simplices(k) + 1)))
                assert K.boundary(K.boundary(z)).is_zero()

    def test_delta_squares_to_zero(self):
        rng = random.Random(1)
        for K in (sphere2(), solid_tetra()):
            for k in range(K.dimension - 1):
                u = random_cochain(rng, K, k)
                assert K.delta(K.delta(u)).is_zero()

    def test_delta_adjoint_to_boundary(self):
        rng = random.Random(2)
        K = sphere2()
        for k in range(K.dimension):
            u = random_cochain(rng, K, k)
            z = Chain(
                k + 1,
                tuple(rng.randint(-5, 5) for _ in range(K.n_simplices(k + 1))),
            )
            assert K.evaluate(K.delta(u), z) == K.evaluate(u, K.boundary(z))

    def test_rank_of_tetra_face_boundary(self):
        K = sphere2()
        # 4 faces, one 2-cycle (the fundamental one): rank 3
        assert rat_rank([dict(r) for r in K.boundary_rows(2)], 4) == 3


# every builder fixture, and one --input complex read with --auto-close
DELTA_SPACES = [
    "point", "circle5", "sphere3", "torus", "rp2", "rp3", "cp2", "simplex3",
    "lens:5,2", "product:circle,torus", "input:torus",
]


def _delta_space(name, tmp_path):
    """The built space, or for "input:S" the top simplices of S with the
    vertex labels shuffled, loaded by the CLI with --auto-close."""
    if not name.startswith("input:"):
        return build_space(name)
    K = build_space(name.partition(":")[2])
    perm = list(range(K.n_vertices))
    random.Random(3).shuffle(perm)
    top = [[perm[v] for v in reversed(t)] for t in K.simplices[K.dimension]]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"vertices": K.n_vertices, "simplices": {"top": top}}))
    args = cli.build_parser().parse_args(
        ["build", "--input", str(path), "--auto-close"]
    )
    L, _ = cli.load_complex(args)
    assert L.f_vector() == K.f_vector()
    return L


def _delta_inputs(K, k, rng):
    """Integral, rational (numerators near 10^40 over 1..7) and zero k-cochains."""
    n = K.n_simplices(k)
    big = 10**40
    return [
        K.cochain(k, [rng.randint(-9, 9) for _ in range(n)]),
        K.cochain(k, [
            Fraction(rng.choice((-1, 1)) * big + rng.randint(-99, 99), rng.randint(1, 7))
            for _ in range(n)
        ]),
        K.zero_cochain(k),
        Cochain.from_scaled(k, ScaledVector(6, [0] * n)),
    ]


class TestCoboundaryColumns:
    @pytest.mark.parametrize("name", DELTA_SPACES)
    def test_delta_equals_rows_product(self, name, tmp_path):
        K = _delta_space(name, tmp_path)
        rng = random.Random(7)
        for k in range(-1, K.dimension + 1):
            for _ in range(2):  # the second pass reads the cached columns
                for u in _delta_inputs(K, k, rng):
                    got, want = K.delta(u), rows_delta(K, u)
                    assert got.degree == want.degree == k + 1
                    assert got.values == want.values, (k, u.values[:3])
                    assert list(map(type, got.values)) == list(map(type, want.values))
            assert ("delta_columns", k) in K._cache

    @pytest.mark.parametrize("name", DELTA_SPACES)
    def test_rows_list_faces_by_removed_vertex(self, name, tmp_path):
        # the invariant the columns read: position p of row sigma holds the
        # face without vertex k + 1 - p, with sign (-1)^(k+1-p)
        K = _delta_space(name, tmp_path)
        for k in range(-1, K.dimension + 1):
            rows = K.delta_rows(k)
            assert len(rows) == K.n_simplices(k + 1)
            if k == -1:  # C^{-1} = 0
                assert not any(rows)
                continue
            for sigma, row in zip(K.simplices.get(k + 1, ()), rows):
                want = [
                    (K.index[k][sigma[:i] + sigma[i + 1:]], (-1) ** i)
                    for i in range(k + 1, -1, -1)
                ]
                assert list(row.items()) == want, sigma


class TestProducts:
    def test_cup_leibniz_exact(self):
        rng = random.Random(3)
        K = sphere2()
        for p in range(0, 2):
            for q in range(0, 2 - p):
                for _ in range(25):
                    u = random_cochain(rng, K, p)
                    v = random_cochain(rng, K, q)
                    lhs = K.delta(K.cup(u, v))
                    rhs = K.cup(K.delta(u), v) + K.cup(u, K.delta(v)).scale(
                        (-1) ** p
                    )
                    assert lhs == rhs

    def test_cup_associative(self):
        rng = random.Random(4)
        K = sphere2()
        for _ in range(20):
            u = random_cochain(rng, K, 0)
            v = random_cochain(rng, K, 1)
            w = random_cochain(rng, K, 1)
            assert K.cup(K.cup(u, v), w) == K.cup(u, K.cup(v, w))

    def test_cup_unit(self):
        K = sphere2()
        one = Cochain(0, (1,) * K.n_simplices(0))
        rng = random.Random(5)
        for k in range(K.dimension + 1):
            u = random_cochain(rng, K, k)
            assert K.cup(one, u) == u
            assert K.cup(u, one) == u

    def test_cup_with_negative_degree_is_zero(self):
        # C^{-1} is empty, so every product with it vanishes
        K = sphere2()
        empty = K.zero_cochain(-1)
        rng = random.Random(7)
        for k in range(K.dimension + 1):
            u = random_cochain(rng, K, k)
            assert K.cup(empty, u) == K.zero_cochain(k - 1)
            assert K.cup(u, empty) == K.zero_cochain(k - 1)

    def test_cap_adjoint_to_cup(self):
        rng = random.Random(6)
        K = sphere2()
        for p in range(0, 3):
            for _ in range(20):
                u = random_cochain(rng, K, p)
                w = random_cochain(rng, K, 2 - p)
                z = Chain(
                    2, tuple(rng.randint(-4, 4) for _ in range(K.n_simplices(2)))
                )
                assert K.evaluate(K.cup(u, w), z) == K.evaluate(w, K.cap(z, u))

    @pytest.mark.parametrize("name", ["cp2", "rp3"])
    def test_cup_reads_cached_faces_as_built_from_scratch(self, name):
        # the second pass reads every (p, q) face table from the cache
        K = build_space(name)
        rng = random.Random(11)
        n = K.dimension
        for _ in range(2):
            for p in range(n + 1):
                for q in range(n + 1):
                    u, v = random_cochain(rng, K, p), random_cochain(rng, K, q)
                    got = K.cup(u, v).values
                    want = elementwise_cup(K, p, u.values, q, v.values)
                    assert [type(x) for x in got] == [type(by_value(x)) for x in want]
                    assert list(got) == list(want), (p, q)
                    assert (("faces", p, q) in K._cache) == (p + q <= n)

    def test_cap_of_cycle_by_cocycle_is_cycle(self):
        K = sphere2()
        fc = K.fundamental_cycle()
        # a 1-cocycle: delta of nothing available in H^1(S^2)=0, so take
        # any cocycle = delta(vertex function) and a constant 0-cocycle
        u = K.delta(Cochain(0, (1, 2, 4, 8)))
        capped = K.cap(fc, u)
        assert K.boundary(capped).is_zero()


class TestFundamentalCycle:
    def test_circle(self):
        K = triangle_circle()
        fc = K.fundamental_cycle()
        assert fc is not None
        # edges (0,1),(0,2),(1,2): cycle z = (1,-1,1)
        assert fc.values == (1, -1, 1)
        assert K.boundary(fc).is_zero()

    def test_sphere(self):
        K = sphere2()
        fc = K.fundamental_cycle()
        assert fc is not None
        assert all(abs(c) == 1 for c in fc.values)
        assert fc.values[0] == 1
        assert K.boundary(fc).is_zero()

    def test_solid_simplex_has_none(self):
        assert solid_tetra().fundamental_cycle() is None

    def test_disjoint_spheres_have_none(self):
        # kernel is 2-dimensional: no canonical fundamental cycle
        K = SimplicialComplex(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert K.fundamental_cycle() is None

    TETRA_FACES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    @pytest.mark.parametrize(
        "K",
        [
            build_space("rp2"),
            build_space("simplex2"),
            SimplicialComplex(
                TETRA_FACES + [tuple(v + 4 for v in f) for f in TETRA_FACES]
            ),
            SimplicialComplex(
                TETRA_FACES + [tuple(v + 3 for v in f) for f in TETRA_FACES]
            ),
            SimplicialComplex([(0,), (1,)]),
            SimplicialComplex([]),
        ],
        ids=["rp2", "simplex2", "two_spheres", "wedge_of_spheres", "two_points", "empty"],
    )
    def test_none(self, K):
        assert K.fundamental_cycle() is None

    def test_sphere_with_dangling_edge(self):
        K = SimplicialComplex(self.TETRA_FACES + [(3, 4)])
        assert K.fundamental_cycle() == sphere2().fundamental_cycle()

    def test_point(self):
        assert SimplicialComplex([(0,)]).fundamental_cycle() == Chain(0, (1,))

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("torus", "19b2f7bd4e6f139af45466058b725a3d1645e138e0ba57c12c65305cdb9f4fc7"),
            ("rp3", "efccf4f2328fe5ca9cb30ba2b40eee0abc7c2853465c991463d1b85b9e05c54a"),
            ("cp2", "eb5c54121757b0e85cd0b6f64ad6c61872a198d1128f307e46a4f24ea9e57d14"),
            ("lens:3,1", "af1f7d0addbac73193a57fc2bfdc25859f71a11d49065b01752001dfbcfb8cf7"),
            (
                "product:circle,circle",
                "8a66df1c7806019a5b4f4014da4d0f4df7218449469904442f0150a53ad28bdf",
            ),
        ],
    )
    def test_frozen_vectors(self, name, digest):
        # sha256 of repr(values): pins every sign and the int entry type
        fc = build_space(name).fundamental_cycle()
        assert hashlib.sha256(repr(fc.values).encode()).hexdigest() == digest


class TestGraph:
    def test_components(self):
        K = SimplicialComplex([(0, 1), (1, 2), (3, 4)])
        assert vertex_components(K) == [0, 0, 0, 3, 3]

    def test_bfs_path(self):
        K = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)])
        path = K.bfs_path(0, 2)
        assert path in ([0, 1, 2], [0, 3, 2])
        assert K.bfs_path(1, 1) == [1]

    def test_bfs_no_path(self):
        K = SimplicialComplex([(0, 1), (2, 3)])
        assert K.bfs_path(0, 3) is None


class TestSubcomplex:
    def test_closed_star_structure(self):
        K = sphere2()
        emb = induced_subcomplex(K, closed_star(K, 0))
        # star of a vertex in the tetra boundary: 3 faces, 6 edges, 4 verts
        assert emb.sub.f_vector() == (4, 6, 3)
        assert emb.sub.euler_characteristic() == 1  # a disc

    def test_simplex_to_parent_relabels_faces(self):
        # the local vertices keep the order of the parent vertices they
        # stand for, and each local simplex maps to their parent simplex
        K = build_space("torus_grid5")
        emb = induced_subcomplex(K, closed_star(K, 12))
        vertex = [K.simplices[0][i][0] for i in emb.simplex_to_parent[0]]
        assert vertex == sorted(vertex) and len(vertex) == emb.sub.n_vertices
        assert vertex != list(range(emb.sub.n_vertices))
        for k in range(emb.sub.dimension + 1):
            parent = [K.simplices[k][i] for i in emb.simplex_to_parent[k]]
            assert parent == [tuple(vertex[v] for v in t) for t in emb.sub.simplices[k]]


class TestSimplicialMaps:
    def test_hexagon_to_triangle_degree_two(self):
        hexagon = SimplicialComplex([(i, (i + 1) % 6) for i in range(6)])
        tri = triangle_circle()
        maps = simplicial_chain_maps(hexagon, tri, [v % 3 for v in range(6)])
        fc_hex = hexagon.fundamental_cycle()
        fc_tri = tri.fundamental_cycle()
        image = scaled_product(maps[1], fc_hex.form).entries()
        doubled = [2 * c for c in fc_tri.values]
        assert image in (doubled, [-c for c in doubled])

    def test_pullback_commutes_with_delta(self):
        hexagon = SimplicialComplex([(i, (i + 1) % 6) for i in range(6)])
        tri = triangle_circle()
        maps = simplicial_chain_maps(hexagon, tri, [v % 3 for v in range(6)])
        rng = random.Random(8)
        u = random_cochain(rng, tri, 0)
        left = pull_cochain(maps, tri.delta(u), hexagon.n_simplices(0))
        right = hexagon.delta(pull_cochain(maps, u, hexagon.n_simplices(0)))
        assert left == right

    def test_degenerate_collapse_to_zero(self):
        edge = SimplicialComplex([(0, 1)])
        point = SimplicialComplex([(0,)])
        maps = simplicial_chain_maps(edge, point, [0, 0])
        z = Chain(1, (1,))
        assert not any(scaled_product(maps[1], z.form).entries())


# ---------------------------------------------------------------------------
# construction pinned to the all-subsets closure

# sha256 of repr((n_vertices, dimension, simplices, index)), frozen from the
# all-subsets closure and all-flags subdivision the constructor used to run
BUILT_DIGESTS = {
    "point": "9d149aa9704ee1475d05e2f889305c4b166bf4574b5b35b4c16d3ac99cce2eaa",
    "circle": "da334655f740c2384f0ac171e094939cd5dbd484939b85d625e9043986583bf9",
    "circle3": "da334655f740c2384f0ac171e094939cd5dbd484939b85d625e9043986583bf9",
    "circle4": "04cd3f12ea1eb2d860d1bc174ed96da89ca5eef297a5f3b8e56aef3df6ecb880",
    "circle5": "115f12ac3ce170bd93bb3b04d9c60f2dd19a2099221f9a3808ec928aec38e21c",
    "circle6": "a3861e3e1f5325030efff0e5a37ce802e722fc0eebfb224c3dc07950048cd184",
    "sphere2": "c397bad5d5e7e2fdb896165c09a607ddee940f5c22a7b7d1c56ae4cb4033f460",
    "sphere3": "f1e6aa3d7c78177bb0194491b44092f5e968ffbb00d5628a32c3f507225d85fe",
    "torus": "cdf67b4c313b320629985bd7fc82f950b8420f8b081890c1a03e5c7e2b2e306e",
    "torus_grid3": "ccc5a90ec9182efea4f78923e62829abb5f3484225b975387b0cf188a1024faf",
    "torus_grid4": "8e56e750b5a7893d2a195d4876904dcbf88d0a6c6d5e2c16c6e9ab2fd578da61",
    "torus_grid5": "5dae6b4b854f52b96f9f2016157e336deeb74081288f31393a77cb711b471f0e",
    "genus2": "e203583d7e089c9cd9ab027300813432d1d5a2a39676d2e05a21b0aba99dc301",
    "rp2": "4d38a6beb4ca6b5fe4c0ba867b0dbe0f9fbf45df2f41403f1b91b73692e41002",
    "rp3": "fc74dd4389ca83ca61bdd5bdd1b0a8e576c1a3615a185d62e2681f5bdeb5ff00",
    "cp2": "bafc762d1a1bfed5d76ae17823327b237d378990882388ef6f99aa2f42608954",
    "simplex2": "3df7cce513dc1af6f904df1db9048e16b6f829a099689bb8599cfe144a96828e",
    "simplex3": "da74636427f29d3823be6f14542df6452b52b46bc376d62f223d1947a2be5dd4",
    "lens:3,1": "019edf6bcbfee7f56ec01b90be86ae7683ff3646d150775aa5e12a379f05ef56",
    "lens:5,2": "f5cf0739658ac21c80e00c2ac5bb151a062f8401eb27d7f5df0a0f33f5a273aa",
    "lens:7,2": "da3125fdd5d53b4cb35200c93931cf9549ff8be4734fcfae074258033eef78cf",
    # frozen from the quotient of a built sd J, before lens spaces read
    # the flags of J directly
    "lens:6,1": "e24cd35d0336430436dcba2f7db631aa41810da15ad3228c0da969e63b4e2d55",
    "lens:9,2": "1df54f61ec13442f7d1f58b1f5c5fdcca541c6d834562478905e0bd08294dc34",
    "product:circle,circle": "3fa18e08930b6e354fde487d5331767d0f44a03376fa3c24dfe6f6d7117d79e6",
    "product:circle,torus": "f8fc41f3662ebac3e580e5f5ae6079c3fa932bc450c310c3726edb1b5e938eca",
    # frozen from the product built on a pairwise subset scan for facets
    "product:torus,torus": "8b495c6366f35d7f8f41c753701f26c24d9436265a0c811d825ee80ea0ddea56",
}


@pytest.mark.parametrize("name", sorted(BUILT_DIGESTS))
def test_built_complex_frozen(name):
    K = build_space(name)
    data = repr((K.n_vertices, K.dimension, K.simplices, K.index))
    assert hashlib.sha256(data.encode()).hexdigest() == BUILT_DIGESTS[name]


def all_subsets_closure(simplices, n_vertices=None, auto_close=True):
    """Oracle: close every generator under all of its nonempty subsets."""
    gen = []
    for s in simplices:
        t = tuple(s)
        if len(set(t)) != len(t):
            raise ComplexError(f"degenerate simplex {t}")
        if any(not isinstance(v, int) or v < 0 for v in t):
            raise ComplexError(f"bad vertex id in {t}")
        gen.append(tuple(sorted(t)))
    present = set(gen)
    if n_vertices is not None:
        present.update((i,) for i in range(n_vertices))
    closure = set()
    for t in present:
        for mask in range(1, 1 << len(t)):
            closure.add(tuple(v for i, v in enumerate(t) if mask >> i & 1))
    if not auto_close:
        missing = sorted(closure - present)
        if missing:
            raise ComplexError(f"closure violated: missing face {missing[0]}")
    vertices = sorted(t[0] for t in closure if len(t) == 1)
    n = (vertices[-1] + 1) if vertices else 0
    if vertices != list(range(n)):
        gap = next(i for i in range(n) if i not in set(vertices))
        raise ComplexError(f"vertex ids must be contiguous from 0; missing {gap}")
    dimension = max((len(t) - 1 for t in closure), default=-1)
    simplices = {
        k: sorted(t for t in closure if len(t) == k + 1) for k in range(dimension + 1)
    }
    index = {k: {t: i for i, t in enumerate(lst)} for k, lst in simplices.items()}
    return n, dimension, simplices, index


def _construction_outcome(build, *args):
    """("error", message) or ("ok", repr of the complex's data)."""
    try:
        K = build(*args)
    except ComplexError as exc:
        return "error", str(exc)
    if isinstance(K, SimplicialComplex):
        K = (K.n_vertices, K.dimension, K.simplices, K.index)
    return "ok", repr(K)


def _random_generators(rng):
    n_pool = rng.randint(1, 7)
    pool = list(range(n_pool))
    if rng.random() < 0.15:
        pool.remove(rng.choice(pool))  # a gap in the vertex ids
        pool = pool or [0]
    gens = []
    for _ in range(rng.randint(0, 6)):
        size = rng.randint(1, min(4, len(pool)))
        t = rng.sample(pool, size)  # unsorted
        gens.append(t)
        if rng.random() < 0.3:
            gens.append(list(reversed(t)))  # a duplicate
    roll = rng.random()
    if roll < 0.03:
        gens.append([1, 1])
    elif roll < 0.06:
        gens.append([0, -2])
    elif roll < 0.08:
        gens.append([])
    rng.shuffle(gens)
    return gens, max(pool) + 1


def test_constructor_matches_all_subsets_closure():
    rng = random.Random(20)
    seen_errors = set()
    for _ in range(300):
        gens, top = _random_generators(rng)
        n_vertices = rng.choice([None, None, top, top + rng.randint(1, 3), 1])
        auto_close = rng.random() < 0.6
        if not auto_close and rng.random() < 0.5:
            # the full closure as generators: nothing is missing
            if _construction_outcome(all_subsets_closure, gens, n_vertices)[0] == "ok":
                _, _, simplices, _ = all_subsets_closure(gens, n_vertices)
                gens = [list(reversed(t)) for lst in simplices.values() for t in lst]
                rng.shuffle(gens)
        want = _construction_outcome(all_subsets_closure, gens, n_vertices, auto_close)
        got = _construction_outcome(SimplicialComplex, gens, n_vertices, auto_close)
        assert got == want, (gens, n_vertices, auto_close)
        if want[0] == "error":
            seen_errors.add(want[1].split()[0])
    # every check fired at least once
    assert seen_errors == {"degenerate", "bad", "closure", "vertex"}


def test_closure_violation_reports_first_sorted_missing_face():
    with pytest.raises(ComplexError, match=r"missing face \(0,\)$"):
        SimplicialComplex([(2, 3), (0, 1, 2), (0, 2, 3)], auto_close=False)
    gens = [(0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]
    with pytest.raises(ComplexError, match=r"missing face \(0, 2\)$"):
        SimplicialComplex(gens, auto_close=False)


def all_flags_subdivision(K):
    """Oracle: every chain of the face poset of K, in sd-vertex ids."""
    vertex_of = {}
    for k in range(K.dimension + 1):
        for t in K.simplices[k]:
            vertex_of[t] = len(vertex_of)
    chains_ending_at = {}
    flags = set()
    for t in sorted(vertex_of, key=len):
        own = [(t,)]
        for f in sorted(vertex_of, key=len):
            if len(f) < len(t) and set(f) <= set(t):
                own.extend(c + (t,) for c in chains_ending_at[f])
        chains_ending_at[t] = own
        flags.update(tuple(vertex_of[s] for s in c) for c in own)
    return all_subsets_closure(flags, n_vertices=len(vertex_of))


@pytest.mark.parametrize(
    "K, expected",
    [
        (sphere2(), (14, 36, 24)),
        (solid_tetra(), (15, 50, 60, 24)),
        # a triangle, a dangling edge and an isolated vertex
        (SimplicialComplex([(0, 1, 2), (2, 3)], n_vertices=5), (10, 14, 6)),
        # the join of two hexagons that lens:3,1 subdivides
        (
            SimplicialComplex([
                (i, (i + 1) % 6, 6 + j, 6 + (j + 1) % 6) for i in range(6) for j in range(6)
            ]),
            (168, 1032, 1728, 864),
        ),
    ],
    ids=["sphere2", "solid_tetra", "non_pure", "lens_3_1_join"],
)
def test_subdivision_f_vector_counts_the_flags(K, expected):
    _, dimension, simplices, _ = all_flags_subdivision(K)
    flags = tuple(len(simplices[k]) for k in range(dimension + 1))
    assert _subdivision_f_vector(K) == flags == expected


def test_maximal_simplices_match_pairwise_subset_scan():
    def subset_scan(K):
        simps = sorted(
            (t for lst in K.simplices.values() for t in lst), key=lambda t: (len(t), t)
        )
        return [t for t in simps if not any(set(t) < set(s) for s in simps)]

    non_pure = SimplicialComplex([(0, 1, 2), (2, 3)], n_vertices=5)
    for K in (non_pure, triangle_circle(), solid_tetra(), build_space("point"),
              build_space("torus"), build_space("product:circle,circle")):
        assert K.maximal_simplices() == subset_scan(K)
    assert non_pure.maximal_simplices() == [(4,), (2, 3), (0, 1, 2)]


class TestSerialization:
    def test_round_trip(self):
        K = sphere2()
        data = K.to_json_dict()
        K2 = SimplicialComplex.from_json_dict(data)
        assert K2.simplices == K.simplices
        assert K2.n_vertices == K.n_vertices

    def test_fundamental_cycle_serialized(self):
        data = sphere2().to_json_dict()
        assert "fundamental_cycle" in data
        assert all(entry["coeff"] in (1, -1) for entry in data["fundamental_cycle"])

    def test_auto_close_control(self):
        data = {"dimension": 2, "vertices": 3, "simplices": {"2": [[0, 1, 2]]}}
        with pytest.raises(ComplexError):
            SimplicialComplex.from_json_dict(data)
        K = SimplicialComplex.from_json_dict(data, auto_close=True)
        assert K.f_vector() == (3, 3, 1)

    def test_dimension_mismatch_detected(self):
        data = {"dimension": 3, "vertices": 3, "simplices": {"2": [[0, 1, 2]]}}
        with pytest.raises(ComplexError, match="dimension"):
            SimplicialComplex.from_json_dict(data, auto_close=True)

    def test_scalar_round_trip(self):
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar("-2") == -2
        assert isinstance(parse_scalar("-2"), int)
        assert scalar_str(Fraction(-3, 6)) == "-1/2"
        assert scalar_str(Fraction(4, 2)) == "2"

    def test_scalars_too_long_to_print_are_refused(self):
        # 10^4299 has 4300 digits, the most str prints by default
        assert parse_scalar("1e4299") == 10**4299
        assert parse_scalar("1e-4299") == Fraction(1, 10**4299)
        assert parse_scalar("-25e-4300") == Fraction(-1, 4 * 10**4298)
        assert parse_scalar("0e4000000") == 0
        for text in ("1e4300", "1e-4300", "123e4298", "1e4000000", "-1.5e-4000000"):
            with pytest.raises(ValueError, match="has more than 4300 digits"):
                parse_scalar(text)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])


def test_chain_never_equals_cochain():
    K = build_space("circle3")
    half = Fraction(1, 2)
    z, u = K.chain(1, (1, half, 0)), K.cochain(1, (1, half, 0))
    assert z != u and u != z
    assert len({z, u}) == 2
    for op in (lambda v: v + v, lambda v: v - v, lambda v: -v, lambda v: v.scale(2)):
        assert type(op(z)) is Chain and type(op(u)) is Cochain
        assert op(z) != op(u) and op(z).values == op(u).values
    assert z.is_integral() == u.is_integral() is False
    assert (z - z).is_zero() and (u - u).is_zero()
    with pytest.raises(ValueError, match="expected 3 values"):
        K.chain(1, (1, 2))
    with pytest.raises(ValueError, match="expected 3 values"):
        K.cochain(1, (1, 2))


def test_text_and_bool_entries_refused():
    # text has to go through parse_scalar first: stored as it is, a
    # "1/3" entry would only fail later, inside delta
    K = build_space("circle3")
    with pytest.raises(ValueError, match=r"entry 1 of a degree-1 cochain is '1/3'"):
        K.cochain(1, (0, "1/3", 0))
    with pytest.raises(ValueError, match=r"entry 0 of a degree-0 chain is '1'"):
        K.chain(0, ("1", 0, 0))
    with pytest.raises(ValueError, match="entry 2 of a degree-1 cochain is True"):
        K.cochain(1, (0, 1, True))
    # chains and cochains are exact: floats are refused too
    with pytest.raises(ValueError, match=r"entry 2 of a degree-1 cochain is 0\.5"):
        K.cochain(1, (0, Fraction(1, 3), 0.5))
    with pytest.raises(ValueError, match=r"entry 0 of a degree-1 chain is 1\.0"):
        K.chain(1, (1.0, 0, 0))


def test_float_entry_of_a_direct_vector_refused_by_name():
    # a vector built directly is refused when it is built, with the
    # message of K.cochain and K.chain, whatever its values are given as
    K = build_space("circle3")
    for cls in (Cochain, Chain):
        kind = cls.__name__.lower()
        for bad, shown in ((0.25, r"0\.25"), (True, "True"), ("1/3", "'1/3'")):
            for values in ((0, bad, 0), [0, bad, 0], iter((0, bad, 0))):
                with pytest.raises(
                    ValueError,
                    match=rf"entry 1 of a degree-1 {kind} is {shown}, not an int or Fraction",
                ):
                    cls(1, values)
    with pytest.raises(ValueError, match=r"scalar 0\.5 is not an int or Fraction"):
        K.cochain(1, (1, 2, 3)).scale(0.5)
    with pytest.raises(ValueError, match="scalar True is not an int or Fraction"):
        K.cochain(1, (1, 2, 3)).scale(True)


def test_direct_vectors_type_each_entry_by_its_value():
    half = Fraction(1, 2)
    given = (Fraction(2), half, Fraction(0), -3, Fraction(-6, 3))
    for cls in (Cochain, Chain):
        v = cls(1, given)
        assert v.values == (2, half, 0, -3, -2)
        assert [type(x) for x in v.values] == [int, Fraction, int, int, int]
        assert cls(1, iter(given)) == v
        assert repr(v) == f"{cls.__name__}(degree=1, values=(2, Fraction(1, 2), 0, -3, -2))"
    # all-integral Fractions make an integral vector with int entries
    u = Cochain(0, (Fraction(4, 2), Fraction(0)))
    assert u.values == (2, 0) and all(type(x) is int for x in u.values)
    assert u.is_integral() and u.ring() == "INT"


def test_pickle_round_trip_keeps_vectors_equal():
    K = build_space("torus")
    half = Fraction(1, 2)
    u = K.cochain(1, [(i % 5 - 2) * half for i in range(K.n_simplices(1))])
    for v in (u, K.delta(u), u.scale(2), K.zero_cochain(2),
              K.chain(0, [Fraction(i, 3) for i in range(K.n_simplices(0))]),
              Chain(1, (0,) * K.n_simplices(1))):
        back = pickle.loads(pickle.dumps(v))
        assert type(back) is type(v) and back == v and hash(back) == hash(v)
        assert back.values == v.values
        assert [type(x) for x in back.values] == [type(x) for x in v.values]


# ---------------------------------------------------------------------------
# the scaled arithmetic of chains and cochains against entry-by-entry sums


def algebra_entries(rng, n, kind):
    """n entries: ints and Fractions (zero, integral, proper)."""
    pool = [
        lambda: 0,
        lambda: rng.randint(-4, 4),
        lambda: Fraction(0),
        lambda: Fraction(rng.randint(-3, 3)),
        lambda: Fraction(rng.randint(-9, 9), rng.choice((2, 3, 4, 7, 1_000_003))),
    ]
    if kind == "int":
        pool = pool[:2]
    elif kind == "fraction":
        pool = pool[2:]
    return tuple(rng.choice(pool)() for _ in range(n))


def algebra_program(K, rng):
    """A random chain of up to four operations, the library's and the reference's.

    Returns (library result, reference result): a chain or cochain and
    (class, degree, values), or two scalars when the last operation is
    evaluate.  No library intermediate has its values read.
    """
    kinds = ("int", "fraction", "mixed", "mixed")

    def operand(cls, k):
        values = algebra_entries(rng, K.n_simplices(k), rng.choice(kinds))
        return cls(k, values), values

    cls = rng.choice((Chain, Cochain))
    k = rng.randint(0, K.dimension)
    got, ref = operand(cls, k)
    for _ in range(rng.randint(1, 4)):
        ops = ["add", "sub", "neg", "scale"]
        if cls is Cochain and k <= K.dimension:
            ops += ["cup", "delta", "evaluate"]
        if cls is Chain and k >= 1:
            ops += ["boundary", "evaluate"]
        op = rng.choice(ops)
        if op in ("add", "sub"):
            other, vals = operand(cls, k)
            if op == "add":
                got, ref = got + other, tuple(a + b for a, b in zip(ref, vals))
            else:
                got, ref = got - other, tuple(a - b for a, b in zip(ref, vals))
        elif op == "neg":
            got, ref = -got, tuple(-a for a in ref)
        elif op == "scale":
            c = rng.choice((-2, 3, Fraction(-2, 3), Fraction(5)))
            got, ref = got.scale(c), tuple(c * a for a in ref)
        elif op == "cup":
            q = rng.randint(0, K.dimension - k)
            other, vals = operand(Cochain, q)
            if rng.random() < 0.5:
                got, ref = K.cup(got, other), elementwise_cup(K, k, ref, q, vals)
            else:
                got, ref = K.cup(other, got), elementwise_cup(K, q, vals, k, ref)
            k += q
        elif op == "delta":
            got, ref = K.delta(got), elementwise_product(K.delta_rows(k), ref)
            k += 1
        elif op == "boundary":
            got, ref = K.boundary(got), elementwise_product(K.boundary_rows(k), ref)
            k -= 1
        else:
            dual = Chain if cls is Cochain else Cochain
            other, vals = operand(dual, k)
            if cls is Cochain:
                return K.evaluate(got, other), elementwise_evaluate(ref, vals)
            return K.evaluate(other, got), elementwise_evaluate(vals, ref)
    return got, (cls, k, ref)


def assert_same_entry(a, b):
    """a is the reference value b, an int exactly when it is integral."""
    b = by_value(b)
    assert type(a) is type(b) and a == b, (a, b)


@pytest.mark.parametrize("space", ["torus", "rp2", "cp2"])
def test_scaled_algebra_matches_elementwise_reference(space):
    K = build_space(space)
    rng = random.Random(f"algebra {space}")
    vectors = 0
    for _ in range(120):
        got, want = algebra_program(K, rng)
        if not isinstance(want, tuple):
            assert_same_entry(got, want)
            continue
        vectors += 1
        cls, k, values = want
        # equality and hash of the lazily built result against the same
        # vector built from its values, before the result's values are read
        built = cls(k, values)
        assert got == built and built == got
        assert hash(got) == hash(built)
        assert got != (Chain if cls is Cochain else Cochain)(k, values)
        assert type(got) is cls and got.degree == k
        assert len(got.values) == len(values)
        for a, b in zip(got.values, values):
            assert_same_entry(a, b)
        typed = tuple(map(by_value, values))
        assert repr(got) == f"{cls.__name__}(degree={k}, values={typed!r})"
        for name in ("degree", "values", "extra"):
            with pytest.raises(AttributeError):
                setattr(got, name, 0)
    assert vectors > 60
