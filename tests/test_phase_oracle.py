"""The degree-generic phase calculus against the per-degree originals.

The functions below the ``oracle`` banner are the separate degree-0,
degree-1 and degree-2 constructions the phase calculus replaced, kept
here verbatim as an independent reference.  Seeded phase cochains on
five spaces, with denominators that land on the branch cut and phases
that wind, must give the same sparks, curvatures and holonomies, or
raise the same exception class.
"""

import random
from fractions import Fraction

import pytest

from diffchar.builders import build_space
from diffchar.cohomology import cycle_lattice_basis
from diffchar.complexes import Chain, Cochain, SimplicialComplex
from diffchar.lowdegree import (
    PhaseError,
    phase_curvature,
    phase_holonomy,
    phase_spark,
)
from diffchar.sparks import Spark, curvature, mod1, validate_spark

F = Fraction
SPACES = ("circle5", "sphere2", "torus", "torus_grid4", "sphere3")
N_CASES = 200


# ---------------------------------------------------------------------------
# oracle: the per-degree constructions


def _principal_cochain(u: Cochain, what) -> Cochain:
    vals = []
    for x in u.values:
        f = mod1(Fraction(x))
        if f == Fraction(1, 2):
            raise PhaseError(f"{what} of one half sits on the branch cut")
        vals.append(f if f < Fraction(1, 2) else f - 1)
    return Cochain(u.degree, tuple(vals))


def _canonical_phases(u: Cochain) -> Cochain:
    return Cochain(u.degree, tuple(mod1(Fraction(x)) for x in u.values))


def old_circle_function_spark(K: SimplicialComplex, values) -> Spark:
    theta = _canonical_phases(K.cochain(0, [Fraction(v) for v in values]))
    step = _principal_cochain(K.delta(theta), "phase step")
    R = step - K.delta(theta)
    if not R.is_integral():
        raise AssertionError("integer correction must be integral")
    R = Cochain(1, tuple(int(v) for v in R.values))
    if not K.delta(R).is_zero():
        raise PhaseError("phase winds around a face")
    return Spark(theta, R)


def old_field_strength(K: SimplicialComplex, theta: Cochain) -> Cochain:
    if theta.degree != 1:
        raise ValueError("connection phases live on edges")
    return _principal_cochain(K.delta(theta), "flux")


def old_spark_of_connection(K: SimplicialComplex, theta: Cochain) -> Spark:
    F = old_field_strength(K, theta)
    a = _canonical_phases(theta)
    R = F - K.delta(a)
    if not R.is_integral():
        raise AssertionError("integer correction must be integral")
    R = Cochain(2, tuple(int(v) for v in R.values))
    if not K.delta(R).is_zero():
        raise PhaseError("flux winds around a 3-face")
    return Spark(a, R)


def old_gerbe_curvature(K: SimplicialComplex, t: Cochain) -> Cochain:
    if t.degree != 2:
        raise ValueError("gerbe phases live on triangles")
    return _principal_cochain(K.delta(t), "gerbe curvature")


def old_connection_holonomy(K: SimplicialComplex, theta: Cochain, loop: Chain):
    if not K.boundary(loop).is_zero():
        raise ValueError("holonomy needs a closed loop")
    return mod1(Fraction(K.evaluate(theta, loop)))


def old_gerbe_surface_holonomy(K: SimplicialComplex, t: Cochain, z: Chain):
    if t.degree != 2 or z.degree != 2:
        raise ValueError("surface holonomy pairs triangle phases with a 2-chain")
    if not K.boundary(z).is_zero():
        raise ValueError("holonomy needs a closed surface chain")
    return mod1(Fraction(K.evaluate(t, z)))


# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """The value of fn, or the class of the exception it raises."""
    try:
        return fn(*args)
    except (PhaseError, ValueError, AssertionError) as exc:
        return type(exc)


def _phases(K, k, rng):
    # even denominators put phase steps on the branch cut now and then
    den = rng.choice((2, 3, 4, 5, 6, 7, 8, 12))
    n = K.n_simplices(k)
    return K.cochain(k, [F(rng.randint(-3 * den, 3 * den), den) for _ in range(n)])


def _cycles(K, k, rng):
    """A few integral k-cycles, combinations of the cycle lattice basis."""
    basis = cycle_lattice_basis(K, k)
    out = []
    for _ in range(3):
        vals = [0] * K.n_simplices(k)
        for vec in basis:
            c = rng.randint(-2, 2)
            vals = [a + c * int(b) for a, b in zip(vals, vec)]
        out.append(Chain(k, tuple(vals)))
    return out


@pytest.fixture(scope="module")
def spaces():
    return {name: build_space(name) for name in SPACES}


def test_phase_calculus_matches_per_degree_oracle(spaces):
    rng = random.Random(1985)
    seen = {"spark": 0, "branch": 0, "winds": 0, "holonomy": 0}
    for case in range(N_CASES):
        name = SPACES[case % len(SPACES)]
        K = spaces[name]
        k = rng.randrange(min(K.dimension, 2) + 1)
        theta = _phases(K, k, rng)
        if k == 0:
            old = _outcome(old_circle_function_spark, K, theta.values)
        else:
            old = _outcome(old_spark_of_connection, K, theta) if k == 1 else None
        new = _outcome(phase_spark, K, theta)
        if k < 2:
            assert new == old, (name, k, theta)
        if k >= 1:
            old_F = _outcome(
                old_field_strength if k == 1 else old_gerbe_curvature, K, theta
            )
            assert _outcome(phase_curvature, K, theta) == old_F, (name, k, theta)
            if isinstance(new, Spark):
                assert curvature(K, new) == old_F
        if isinstance(new, Spark):
            validate_spark(K, new)
            seen["spark"] += 1
        elif new is PhaseError:
            on_cut = any(mod1(x) == F(1, 2) for x in K.delta(theta).values)
            seen["branch" if on_cut else "winds"] += 1
        if k >= 1:
            for z in _cycles(K, k, rng):
                got = phase_holonomy(K, theta, z)
                want = (old_connection_holonomy if k == 1 else old_gerbe_surface_holonomy)(
                    K, theta, z
                )
                assert got == want
                seen["holonomy"] += 1
            open_chain = K.chain(k, (1,) + (0,) * (K.n_simplices(k) - 1))
            assert issubclass(_outcome(phase_holonomy, K, theta, open_chain), ValueError)
    # the seed reaches sparks, branch cuts, windings and holonomies
    assert all(count >= 10 for count in seen.values()), seen


def test_branch_cut_and_winding_cases():
    K = build_space("circle3")
    with pytest.raises(PhaseError, match="branch cut"):
        phase_spark(K, K.cochain(0, (0, F(1, 2), 0)))
    S = build_space("sphere2")
    theta = S.cochain(0, (0, F(1, 3), F(2, 3), 0))
    assert _outcome(old_circle_function_spark, S, theta.values) is PhaseError
    with pytest.raises(PhaseError, match="winds"):
        phase_spark(S, theta)
    T = build_space("sphere3")
    flux = T.cochain(1, (F(1, 2),) + (0,) * (T.n_simplices(1) - 1))
    with pytest.raises(PhaseError, match="branch cut"):
        phase_curvature(T, T.cochain(2, (F(1, 2),) + (0,) * (T.n_simplices(2) - 1)))
    assert _outcome(old_spark_of_connection, T, flux) is PhaseError
    with pytest.raises(PhaseError, match="branch cut"):
        phase_spark(T, flux)
