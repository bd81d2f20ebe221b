"""Matchings, stabilized flows, critical complexes, flow sparks."""

import hashlib
import random
from fractions import Fraction

import pytest

from diffchar import cli, morse
from diffchar.builders import build_space, circle, cp2, moebius_kuehnel_torus, rp2, rp3, sphere
from diffchar.cohomology import (
    cohomology_generators,
    cohomology_structure,
    homology_structure,
    integer_cohomology,
)
from diffchar.morse import (
    Matching,
    MorseError,
    MorseFlow,
    critical_cells,
    greedy_matching,
    morse_spark,
    validate_matching,
)
from diffchar.complexes import SimplicialComplex
from diffchar.exact import mul_rows
from diffchar.sparks import SparkError, curvature, d2_class
from oracles import flow_once, flow_powers, rescan_greedy_matching

FIXTURES = [circle(3), sphere(2), moebius_kuehnel_torus(), rp2()]
IDS = ["circle", "s2", "t2", "rp2"]


def elementary(K, k, i):
    vals = [0] * K.n_simplices(k)
    vals[i] = 1
    return K.chain(k, vals)


# -- the worked example on a triangle circle --------------------------------
# edges in sorted order: (0,1)=0, (0,2)=1, (1,2)=2; match v1 with (0,1)
# and v2 with (1,2), leaving v0 and (0,2) critical


def worked_flow():
    K = circle(3)
    m = Matching(((0, 1, 0), (0, 2, 2)))
    return K, MorseFlow(K, m)


def test_worked_example_critical_cells():
    K, flow = worked_flow()
    assert flow.critical == {0: (0,), 1: (1,)}


def test_worked_example_stable_flow():
    K, flow = worked_flow()
    assert flow.project(elementary(K, 0, 1)).values == (1, 0, 0)
    assert flow.project(elementary(K, 0, 2)).values == (1, 0, 0)
    assert flow.project(elementary(K, 1, 1)).values == (-1, 1, -1)


def test_worked_example_morse_boundary_vanishes():
    K, flow = worked_flow()
    assert flow.morse_boundary_rows(1) == [{}]
    assert flow.morse_homology(0).format() == "Z"
    assert flow.morse_homology(1).format() == "Z"


def test_worked_example_spark():
    K, flow = worked_flow()
    phi = K.cochain(1, (1, 0, 0))
    s = morse_spark(K, flow, phi)
    assert s.R.values == (0, -1, 0)
    assert curvature(K, s) == phi


# -- general properties -----------------------------------------------------


@pytest.mark.parametrize("K", FIXTURES, ids=IDS)
def test_greedy_matching_is_valid(K):
    m = greedy_matching(K)
    validate_matching(K, m)
    crit = critical_cells(K, m)
    total = sum(len(v) for v in crit.values()) + 2 * len(m.pairs)
    assert total == K.total_simplices()
    for k in range(K.dimension + 1):
        assert len(crit[k]) >= cohomology_structure(K, k).free_rank
    euler = sum((-1) ** k * len(crit[k]) for k in range(K.dimension + 1))
    assert euler == K.euler_characteristic()


MATCHING_SPACES = [
    "point", "circle5", "sphere3", "torus", "torus_grid5", "genus2", "rp2", "rp3",
    "cp2", "simplex3", "lens:5,2", "product:circle,torus",
]


@pytest.mark.parametrize("name", MATCHING_SPACES)
def test_counted_matching_equals_rescans(name):
    K = build_space(name)
    assert morse._greedy_matching(K) == rescan_greedy_matching(K)


def test_counted_matching_equals_rescans_on_random_complexes():
    # mixed dimensions, cones and free faces, several components
    rng = random.Random(4)
    for _ in range(150):
        n = rng.randint(1, 9)
        gens = [
            rng.sample(range(n), rng.randint(1, min(n, 5)))
            for _ in range(rng.randint(1, 12))
        ]
        K = SimplicialComplex(gens, n_vertices=n)
        assert morse._greedy_matching(K) == rescan_greedy_matching(K), gens


def test_verify_forms_the_matching_once(monkeypatch, capsys):
    # the Hodge gauge and verify's MorseFlow read one matching off K
    calls = []
    real = morse._greedy_matching

    def counted(K):
        calls.append(K)
        return real(K)

    monkeypatch.setattr(morse, "_greedy_matching", counted)
    assert cli.main(["verify", "--space", "cp2", "--trials", "2", "--seed", "0"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    K = build_space("rp2")
    assert greedy_matching(K) is greedy_matching(K)


@pytest.mark.parametrize("K", FIXTURES, ids=IDS)
def test_homotopy_identity_on_chains(K):
    flow = MorseFlow(K, greedy_matching(K))
    for k in range(K.dimension + 1):
        for i in range(K.n_simplices(k)):
            z = elementary(K, k, i)
            lhs = K.boundary(flow.homotopy(z)) + flow.homotopy(K.boundary(z))
            rhs = z - flow.project(z)
            assert lhs == rhs, (k, i)


@pytest.mark.parametrize("K", FIXTURES, ids=IDS)
def test_homotopy_identity_on_cochains(K):
    flow = MorseFlow(K, greedy_matching(K))
    rng = random.Random(1)
    for k in range(K.dimension + 1):
        u = K.cochain(
            k,
            tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                for _ in range(K.n_simplices(k))
            ),
        )
        lhs = K.delta(flow.homotopy_cochain(u)) + flow.homotopy_cochain(K.delta(u))
        rhs = u - flow.project_cochain(u)
        assert lhs == rhs, k


@pytest.mark.parametrize("K", FIXTURES, ids=IDS)
def test_projection_stable_and_idempotent(K):
    flow = MorseFlow(K, greedy_matching(K))
    rng = random.Random(2)
    for k in range(K.dimension + 1):
        z = K.chain(k, tuple(rng.randint(-4, 4) for _ in range(K.n_simplices(k))))
        p = flow.project(z)
        assert flow.project(p) == p
        assert flow_once(K, flow.matching, p) == p


@pytest.mark.parametrize("name", ["circle3", "sphere2", "torus", "rp2", "rp3", "cp2"])
def test_stable_flow_kills_cells_matched_downward(name):
    # P_{k+1} V_k = 0 for an acyclic matching (Forman, Adv. Math. 134,
    # 1998), so the flow powers from s_{k+1} on add nothing to the
    # homotopy T_k; V_k is built here from the matching, as flow_once
    # builds it: V sends k-cell i matched with j to -j/<boundary j, i>
    K = build_space(name)
    flow = MorseFlow(K, greedy_matching(K))
    for k in range(K.dimension):
        V = [dict() for _ in range(K.n_simplices(k + 1))]
        for i, j in flow.matching.up_map(k).items():
            V[j][i] = -K.boundary_rows(k + 1)[i][j]
        assert any(V) == bool(flow.matching.up_map(k)), k
        assert not any(mul_rows(flow._P[k + 1], V)), k
    assert flow.homotopy_identity()


def test_flow_matches_power_oracle_on_sub_matchings():
    # every subset of an acyclic matching is acyclic; the library's flow
    # along V-paths must equal the powers of phi entry for entry
    rng = random.Random(32)
    for name in ["rp2", "torus", "cp2", "rp3", "torus_grid5", "lens:5,2"]:
        K = build_space(name)
        pairs = greedy_matching(K).pairs
        for keep in (0.2, 0.5, 0.8, 0.95, 1.0):
            m = Matching(tuple(p for p in pairs if rng.random() < keep))
            flow = MorseFlow(K, m)
            exponent, P, T = flow_powers(K, m)
            assert flow.stabilization_exponent == exponent, (name, keep)
            assert flow._P == P, (name, keep)
            assert flow._T == T, (name, keep)


def test_exponent_counts_cancelled_paths_out():
    # the longest V-path from {0,1,2} passes three triangles, but its two
    # paths to {0,3,4} cancel, so phi^2 = phi^3 already: the power loop
    # reports 2, and a path-length count would report 3
    K = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 3, 4)])
    edge = {s: i for i, s in enumerate(K.simplices[1])}
    tri = {s: i for i, s in enumerate(K.simplices[2])}
    m = Matching(tuple(sorted(
        (1, edge[e], tri[t])
        for e, t in [((0, 1), (0, 1, 3)), ((0, 2), (0, 2, 3)),
                     ((0, 3), (0, 3, 4)), ((1, 2), (0, 1, 2))]
    )))
    flow = MorseFlow(K, m)
    assert flow.stabilization_exponent == 2 == flow_powers(K, m)[0]
    assert flow.homotopy_identity()
    for k in range(K.dimension + 1):
        for i in range(K.n_simplices(k)):
            p = flow.project(elementary(K, k, i))
            assert flow_once(K, m, p) == p == flow.project(p), (k, i)


@pytest.mark.parametrize("K", FIXTURES, ids=IDS)
def test_morse_homology_matches_simplicial(K):
    flow = MorseFlow(K, greedy_matching(K))
    for k in range(K.dimension + 1):
        assert flow.morse_homology(k) == homology_structure(K, k), k


def test_validate_rejects_non_incident_pair():
    K = circle(3)
    with pytest.raises(MorseError):
        validate_matching(K, Matching(((0, 0, 2),)))


def test_validate_rejects_reused_cell():
    K = circle(3)
    with pytest.raises(MorseError):
        validate_matching(K, Matching(((0, 1, 0), (0, 1, 2))))


def test_validate_rejects_cyclic_matching():
    # matching every cell of the circle forces a V-path loop
    K = circle(3)
    with pytest.raises(MorseError, match="cycle"):
        validate_matching(K, Matching(((0, 0, 0), (0, 1, 2), (0, 2, 1))))


def test_morse_spark_integral_charge():
    K = moebius_kuehnel_torus()
    flow = MorseFlow(K, greedy_matching(K))
    g = cohomology_generators(K, 2)[0][0]
    s = morse_spark(K, flow, g)
    assert curvature(K, s) == g
    H2 = integer_cohomology(K, 2)
    assert d2_class(K, s) == H2.coords(g.form)


def test_morse_spark_rejects_fractional_periods():
    K = circle(3)
    flow = MorseFlow(K, greedy_matching(K))
    phi = K.cochain(1, (Fraction(1, 2), 0, 0))
    with pytest.raises(SparkError):
        morse_spark(K, flow, phi)


def test_morse_spark_needs_closed_curvature():
    K = sphere(2)
    flow = MorseFlow(K, greedy_matching(K))
    u = K.cochain(1, (1,) + (0,) * (K.n_simplices(1) - 1))
    with pytest.raises(SparkError):
        morse_spark(K, flow, u)


# -- sparse identity and critical boundary against per-cell oracles --------


def per_cell_homotopy_identity(K, flow):
    """dT + Td = 1 - P tested one elementary chain at a time."""
    for k in range(K.dimension + 1):
        nk = K.n_simplices(k)
        for i in range(nk):
            z = K.chain(k, tuple(1 if j == i else 0 for j in range(nk)))
            lhs = K.boundary(flow.homotopy(z)) + flow.homotopy(K.boundary(z))
            if lhs != z - flow.project(z):
                return False
    return True


def per_cell_morse_boundary_rows(flow, k):
    """Critical boundary from the stable image of each critical cell."""
    K = flow.K
    crit_low = flow.critical.get(k - 1, ())
    low_pos = {idx: p for p, idx in enumerate(crit_low)}
    rows = [dict() for _ in range(len(crit_low))]
    for col, idx in enumerate(flow.critical.get(k, ())):
        e = [0] * K.n_simplices(k)
        e[idx] = 1
        bnd = K.boundary(flow.project(K.chain(k, e)))
        for i, val in enumerate(bnd.values):
            if val and i in low_pos:
                rows[low_pos[i]][col] = val
    return rows


@pytest.mark.parametrize("K", FIXTURES + [rp3()], ids=IDS + ["rp3"])
def test_sparse_homotopy_identity_matches_per_cell(K):
    flow = MorseFlow(K, greedy_matching(K))
    assert flow.homotopy_identity() is per_cell_homotopy_identity(K, flow) is True


def _bump(rows):
    """Copy of sparse rows with entry (0, 0) raised by one."""
    out = [dict(r) for r in rows]
    val = out[0].get(0, 0) + 1
    if val:
        out[0][0] = val
    else:
        del out[0][0]
    return out


@pytest.mark.parametrize("K", FIXTURES, ids=IDS)
def test_homotopy_identity_detects_one_changed_entry(K):
    flow = MorseFlow(K, greedy_matching(K))
    n = K.dimension
    # T_k for k = 0..n-1 and P_k for k = 0..n hold every entry there is
    for ops, degrees in ((flow._T, range(n)), (flow._P, range(n + 1))):
        for k in degrees:
            saved = ops[k]
            ops[k] = _bump(saved)
            try:
                assert flow.homotopy_identity() is False, k
                assert per_cell_homotopy_identity(K, flow) is False, k
            finally:
                ops[k] = saved
    assert flow.homotopy_identity() is True


@pytest.mark.parametrize(
    "K", [rp2(), moebius_kuehnel_torus(), rp3(), cp2()], ids=["rp2", "t2", "rp3", "cp2"]
)
def test_morse_boundary_rows_match_per_cell(K):
    flow = MorseFlow(K, greedy_matching(K))
    for k in range(K.dimension + 2):
        assert flow.morse_boundary_rows(k) == per_cell_morse_boundary_rows(flow, k), k


# (stabilization exponent, sha256 of P, sha256 of T), frozen from the flow
# that summed N - 1 powers of phi in every degree
FLOW_DIGESTS = {
    "rp2": (3, "a6eb630a12b37cecfd72d561c081627bbb5bf441bb8b1d4ab1600904f134981a", "d3f832ee3c477e0fc1a6e99b27ab89e79a93898f31948f6d7342723858e966cf"),
    "torus": (4, "c6e427958f6a10f502300b836cecc1e9311d7938759165ee0e906432691e362e", "3124b386dc513d345dc7e7fff47e92476c9841a5bd427d380d4c673a608face4"),
    "rp3": (12, "6e739ba6be2f1f40b240e4e933324e036a208ca4dae83d0afbde5058e60e882a", "6a42002df4901f3650dac50b598a67559defb6e365ac5e8ae8d2f9071c73c95c"),
    "cp2": (4, "b619008a9f8cb1ce1de68db7b1ff69815b22e7dda7dca2e4d6b9e3a54a1cd37a", "64028e29cf8bdab1fb9cfa43818571a0e783c4a70aada48d55fe438976bc458f"),
    "lens:5,2": (23, "9d5d469fc64c515b2350b40efc394c841d44672edfd686bbea56e82cdb27db98", "d579690afa9c4ba166eb023f316c87a1e6ed6083aef506df5420292f2ca74973"),
}


def _sparse_digest(ops):
    shape = sorted((k, len(rows)) for k, rows in ops.items())
    entries = sorted(
        (k, i, c, repr(v)) for k, rows in ops.items() for i, row in enumerate(rows)
        for c, v in row.items()
    )
    return hashlib.sha256(repr((shape, entries)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FLOW_DIGESTS))
def test_flow_operators_frozen(name):
    K = build_space(name)
    flow = MorseFlow(K, greedy_matching(K))
    got = (flow.stabilization_exponent, _sparse_digest(flow._P), _sparse_digest(flow._T))
    assert got == FLOW_DIGESTS[name]
