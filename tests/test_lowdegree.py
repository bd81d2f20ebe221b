"""Circle functions, lattice connections, gerbes."""

import random
from fractions import Fraction

import pytest

from diffchar.builders import circle, moebius_kuehnel_torus, simplex, sphere
from diffchar.cohomology import integer_cohomology
from diffchar.lowdegree import (
    PhaseError,
    chern_cocycle,
    gauge,
    phase_curvature,
    phase_holonomy,
    phase_spark,
    principal_value,
    spark_phases,
    star_trivialization,
    total_flux,
)
from diffchar.sparks import curvature, pullback_spark, spark_equivalent, validate_spark
from oracles import check_star_trivialization, elementary_cochain

F = Fraction

# edge phases on the boundary of the 3-simplex, edges in sorted order
# (0,1), (0,2), (0,3), (1,2), (1,3), (2,3); a unit-flux monopole
MONOPOLE = (F(1, 4), 0, 0, 0, F(1, 2), F(1, 4))


def test_principal_value_window():
    assert principal_value(F(3, 4)) == F(-1, 4)
    assert principal_value(F(1, 2)) == F(1, 2)
    assert principal_value(F(-1, 2)) == F(1, 2)
    assert principal_value(F(5, 4)) == F(1, 4)
    assert principal_value(0) == 0


def test_circle_function_spark_winding_number():
    K = circle(4)
    s = phase_spark(K, K.cochain(0, (0, F(1, 4), F(1, 2), F(3, 4))))
    validate_spark(K, s)
    phi = curvature(K, s)
    assert phi.values == (F(1, 4), F(-1, 4), F(1, 4), F(1, 4))
    assert abs(K.evaluate(phi, K.fundamental_cycle())) == 1


def test_circle_function_round_trip():
    K = circle(4)
    vals = (F(1, 5), F(3, 5), F(2, 5), F(4, 5))
    s = phase_spark(K, K.cochain(0, vals))
    assert spark_phases(s).values == vals
    # integer lifts do not matter
    lifted = tuple(v + n for v, n in zip(vals, (3, -2, 0, 5)))
    assert phase_spark(K, K.cochain(0, lifted)) == s


def test_circle_function_branch_cut_rejected():
    K = circle(3)
    with pytest.raises(PhaseError, match="branch"):
        phase_spark(K, K.cochain(0, (0, F(1, 2), 0)))


def test_circle_function_winding_rejected():
    K = simplex(2)
    with pytest.raises(PhaseError, match="winds"):
        phase_spark(K, K.cochain(0, (0, F(1, 3), F(2, 3))))


def test_monopole_field_strength_frozen():
    K = sphere(2)
    theta = K.cochain(1, MONOPOLE)
    Fs = phase_curvature(K, theta)
    assert Fs.values == (F(1, 4), F(-1, 4), F(1, 4), F(-1, 4))
    assert total_flux(K, theta) == 1
    flipped = K.cochain(1, tuple(-v for v in MONOPOLE))
    assert total_flux(K, flipped) == -1


def test_gauge_trivial_connection_has_no_flux():
    K = sphere(2)
    rng = random.Random(0)
    lam = K.cochain(0, tuple(F(rng.randint(-4, 4), 5) for _ in range(4)))
    shift = K.cochain(1, tuple(rng.randint(-2, 2) for _ in range(6)))
    theta = gauge(K, K.zero_cochain(1), lam, shift)
    assert phase_curvature(K, theta).is_zero()
    assert total_flux(K, theta) == 0


def test_monopole_spark_charge():
    K = sphere(2)
    s = phase_spark(K, K.cochain(1, MONOPOLE))
    validate_spark(K, s)
    assert curvature(K, s) == phase_curvature(K, K.cochain(1, MONOPOLE))
    assert K.evaluate(s.R, K.fundamental_cycle()) == 1
    free, _ = integer_cohomology(K, 2).coords(s.R.form)
    assert free in ((1,), (-1,))


def test_connection_gauge_gives_equivalent_sparks():
    K = moebius_kuehnel_torus()
    rng = random.Random(3)
    theta = K.cochain(1, tuple(F(rng.randint(-10, 10), 5) for _ in range(21)))
    for _ in range(5):
        lam = K.cochain(0, tuple(F(rng.randint(-10, 10), 5) for _ in range(7)))
        shift = K.cochain(1, tuple(rng.randint(-2, 2) for _ in range(21)))
        theta2 = gauge(K, theta, lam, shift)
        assert phase_curvature(K, theta2) == phase_curvature(K, theta)
        assert spark_equivalent(
            K, phase_spark(K, theta), phase_spark(K, theta2)
        )


def test_holonomy_gauge_invariant_on_loops():
    K = moebius_kuehnel_torus()
    rng = random.Random(4)
    theta = K.cochain(1, tuple(F(rng.randint(-10, 10), 7) for _ in range(21)))
    # the vertex cycle 0 -> 1 -> 2 -> 0 exists in the 7-vertex torus
    loop_vals = [0] * 21
    idx = K.index[1]
    for a, b, sgn in ((0, 1, 1), (1, 2, 1), (0, 2, -1)):
        loop_vals[idx[(a, b)]] = sgn
    loop = K.chain(1, loop_vals)
    h = phase_holonomy(K, theta, loop)
    lam = K.cochain(0, tuple(F(rng.randint(-10, 10), 7) for _ in range(7)))
    shift = K.cochain(1, tuple(rng.randint(-2, 2) for _ in range(21)))
    assert phase_holonomy(K, gauge(K, theta, lam, shift), loop) == h


def test_holonomy_requires_closed_loop():
    K = circle(3)
    c = K.chain(1, (1, 0, 0))
    with pytest.raises(ValueError):
        phase_holonomy(K, K.zero_cochain(1), c)


def test_connection_of_spark_reduces_phases():
    K = circle(3)
    s = phase_spark(K, K.cochain(1, (F(5, 4), F(-1, 3), 2)))
    assert spark_phases(s).values == (F(1, 4), F(2, 3), 0)
    # each phase is typed by its value: an integral phase is the int 0
    assert [type(x) for x in spark_phases(s).values] == [F, F, int]


def test_flux_branch_cut_rejected():
    K = simplex(2)
    with pytest.raises(PhaseError, match="branch"):
        phase_curvature(K, K.cochain(1, (F(1, 2), 0, 0)))


def test_chern_cocycle_monopole():
    K = sphere(2)
    theta = K.cochain(1, MONOPOLE)
    Fs, N = chern_cocycle(K, theta)
    assert Fs == phase_curvature(K, theta)
    assert N.values == (0, 1, 0, 0)
    # the two pieces reassemble the coboundary exactly
    step = K.delta(theta)
    assert tuple(f + n for f, n in zip(Fs.values, N.values)) == step.values
    z = K.fundamental_cycle()
    assert K.evaluate(Fs, z) == total_flux(K, theta) == 1
    assert K.evaluate(N, z) == -1


def test_chern_cocycle_zero_connection():
    K = sphere(2)
    Fs, N = chern_cocycle(K, K.zero_cochain(1))
    assert Fs.is_zero()
    assert N.is_zero()


def test_chern_cocycle_gauge_moves():
    # the fractional piece never moves; the integer piece absorbs the
    # coboundary of the lattice shift
    K = moebius_kuehnel_torus()
    rng = random.Random(8)
    theta = K.cochain(1, tuple(F(rng.randint(-10, 10), 7) for _ in range(21)))
    Fs, N = chern_cocycle(K, theta)
    assert all(F(v).denominator == 1 for v in N.values)
    for _ in range(4):
        lam = K.cochain(0, tuple(F(rng.randint(-10, 10), 7) for _ in range(7)))
        shift = K.cochain(1, tuple(rng.randint(-2, 2) for _ in range(21)))
        F2, N2 = chern_cocycle(K, gauge(K, theta, lam, shift))
        assert F2 == Fs
        d = K.delta(shift)
        assert N2.values == tuple(n + v for n, v in zip(N.values, d.values))


def test_circle_map_doubles_winding():
    # precomposing the one-turn function on the triangle with the
    # two-to-one hexagon map is the same as pulling its spark back
    K3, K6 = circle(3), circle(6)
    s3 = phase_spark(K3, K3.cochain(0, (0, F(1, 3), F(2, 3))))
    composed = phase_spark(K6, K6.cochain(0, (F(i % 3, 3) for i in range(6))))
    assert pullback_spark(K6, K3, [i % 3 for i in range(6)], s3) == composed
    phi = curvature(K6, composed)
    assert K6.evaluate(phi, K6.fundamental_cycle()) == 2


def test_third_gerbe_holonomy():
    K = moebius_kuehnel_torus()
    t = K.cochain(2, (F(1, 3),) + (0,) * 13)
    z = K.fundamental_cycle()
    assert phase_holonomy(K, t, z) == F(1, 3)
    rng = random.Random(5)
    for _ in range(10):
        alpha = K.cochain(1, tuple(F(rng.randint(-6, 6), 4) for _ in range(21)))
        shift = K.cochain(2, tuple(rng.randint(-3, 3) for _ in range(14)))
        t2 = gauge(K, t, alpha, shift)
        assert phase_holonomy(K, t2, z) == F(1, 3)


def test_gerbe_curvature_and_flatness():
    K = sphere(3)
    rng = random.Random(6)
    n2, n1 = K.n_simplices(2), K.n_simplices(1)
    flat = K.cochain(2, tuple(rng.randint(-2, 2) for _ in range(n2))) + K.delta(
        K.cochain(1, tuple(F(rng.randint(-5, 5), 3) for _ in range(n1)))
    )
    assert phase_curvature(K, flat).is_zero()
    spiky = K.cochain(2, (F(1, 3),) + (0,) * (n2 - 1))
    assert not phase_curvature(K, spiky).is_zero()
    assert any(phase_curvature(K, spiky).values)


def test_star_trivialization_on_surface():
    K = moebius_kuehnel_torus()
    rng = random.Random(7)
    t = K.cochain(2, tuple(F(rng.randint(-6, 6), 5) for _ in range(14)))
    for v in range(7):
        assert check_star_trivialization(K, t, v)


def test_star_trivialization_flat_three_dim():
    K = sphere(3)
    rng = random.Random(8)
    n2, n1 = K.n_simplices(2), K.n_simplices(1)
    t = K.cochain(2, tuple(rng.randint(-2, 2) for _ in range(n2))) + K.delta(
        K.cochain(1, tuple(F(rng.randint(-5, 5), 4) for _ in range(n1)))
    )
    for v in range(K.n_vertices):
        assert check_star_trivialization(K, t, v)
    # a non-flat gerbe fails on stars seeing the support from outside
    spiky = K.cochain(2, (F(1, 3),) + (0,) * (n2 - 1))
    assert not check_star_trivialization(K, spiky, 3)


def test_star_trivialization_flat_edge_phases():
    # degree 1: delta of vertex phases plus integers
    K = moebius_kuehnel_torus()
    rng = random.Random(9)
    theta = K.cochain(0, tuple(F(rng.randint(-6, 6), 5) for _ in range(7)))
    t = K.delta(theta) + K.cochain(1, tuple(rng.randint(-2, 2) for _ in range(21)))
    for v in range(7):
        assert check_star_trivialization(K, t, v)


def test_star_trivialization_degree_three():
    K = sphere(4)
    rng = random.Random(10)
    n3, n2 = K.n_simplices(3), K.n_simplices(2)
    t = K.cochain(3, tuple(rng.randint(-2, 2) for _ in range(n3))) + K.delta(
        K.cochain(2, tuple(F(rng.randint(-5, 5), 3) for _ in range(n2)))
    )
    for v in range(K.n_vertices):
        assert check_star_trivialization(K, t, v)
    # 1/3 on the tetrahedron (0, 1, 2, 3) is seen from the star of 4
    spiky = K.cochain(3, (F(1, 3),) + (0,) * (n3 - 1))
    assert K.simplices[3][0] == (0, 1, 2, 3)
    assert not check_star_trivialization(K, spiky, 4)


def test_star_trivialization_needs_positive_degree():
    K = moebius_kuehnel_torus()
    with pytest.raises(ValueError, match="degree at least 1"):
        star_trivialization(K, K.zero_cochain(0), 0)


def test_star_trivialization_zero_through_apex():
    K = moebius_kuehnel_torus()
    t = K.cochain(2, tuple(F(i, 7) for i in range(14)))
    alpha = star_trivialization(K, t, 0)
    for e, val in alpha.items():
        if 0 in e:
            assert val == 0


def test_gerbe_holonomy_validations():
    K = moebius_kuehnel_torus()
    t = K.zero_cochain(2)
    open_chain = K.chain(2, (1,) + (0,) * 13)
    with pytest.raises(ValueError):
        phase_holonomy(K, t, open_chain)


def test_holonomy_rejects_rational_cycles():
    # t = 1/7 on half the fundamental cycle reads 0 mod 1, and 1/2
    # after an integral shift on one triangle: no value on a rational
    # cycle is gauge invariant, so none is given
    K = moebius_kuehnel_torus()
    t = K.cochain(2, (F(1, 7),) * 14)
    half = K.fundamental_cycle().scale(F(1, 2))
    shifted = gauge(K, t, K.zero_cochain(1), elementary_cochain(K, K.simplices[2][0]))
    for phases in (t, shifted):
        with pytest.raises(ValueError, match="integral"):
            phase_holonomy(K, phases, half)
    # half the vertex cycle 0 -> 1 -> 2 -> 0
    theta = K.cochain(1, (F(1, 7),) * 21)
    idx = K.index[1]
    loop_vals = [0] * 21
    for a, b, sgn in ((0, 1, 1), (1, 2, 1), (0, 2, -1)):
        loop_vals[idx[(a, b)]] = F(sgn, 2)
    loop = K.chain(1, loop_vals)
    with pytest.raises(ValueError, match="integral"):
        phase_holonomy(K, theta, loop)
