"""Weighted combinatorial Hodge theory and canonical spark potentials.

Inner products on cochains are diagonal: one positive weight per
simplex.  On top of the resulting coboundary adjoint sit the harmonic
projection, always exact, and the Hodge decomposition, solved either
exactly over the rationals or by conjugate gradients in floating
point.  Conjugate gradients iterate on plain float lists inside
:class:`HodgeContext` and hand back cochains of the exact rationals of
their floats, so cochains stay exact on both routes.  Exact mode
eliminates no Laplacian: both come from the
coboundary normal matrices N_j = delta_j^T W delta_j (finite-difference
Hodge theory), each factored once per degree and weight profile, plus
a small Gram system on the harmonic basis.  For j >= 1 the normal
matrix is factored on a Morse gauge, N_S = delta_S^T W delta_S over
the j-cells S that :func:`~diffchar.morse.greedy_matching` does not
match downward, whose columns span im delta_j; the unknowns off S are
zero.  Every one of these systems is symmetric, and
a :class:`~diffchar.exact.SymmetricSolver` solves it
modulo a prime, lifts the solution p-adically and accepts it only after
an exact check; callers read only what the solution fixes uniquely, so
outputs do not depend on the prime, the gauge or the pivot order: every
entry is typed by its value, an int exactly when it is integral.
:class:`HodgeContext` owns these systems and the library's one harmonic
projection; what the weights of a degree fix is cached on K when they
are all 1, so spark_from_cocycle and every context uniform in that
degree share it.  The harmonic representatives are the projections of
the integral free cohomology generators g: g - delta x below the top
degree, and in the top degree n, where delta_n = 0 and the harmonic
cochains are W^{-1} times the rational cycles, a b_n x b_n Gram system
on the cycle lattice basis with no normal matrix.  delta x, with
N_{k-1} x = delta^T W u, is the exact part of any u; and N_k y = W v
inverts adjoint_delta(delta y) = v on coexact v.  Harmonic sparks are
the weighted harmonic potential of their cocycle in normal form
(coexact potential, harmonic curvature); they agree with
spark_from_cocycle on the generators.  Abel-Jacobi values of bounding
cycles integrate the harmonic representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite

from .cohomology import (
    betti_below,
    class_cocycle,
    cohomology_generators,
    cycle_lattice_rows,
    integer_cohomology,
    integer_homology,
)
from .complexes import Chain, Cochain, SimplicialComplex, cached
from .exact import (
    ScaledVector,
    SymmetricSolver,
    gram_rows,
    scaled_product,
    sparse_product,
    transpose_rows,
)
from .morse import greedy_matching
from .sparks import Spark, check_charge, mod1, periods

EXACT_SIZE_LIMIT = 3000
# the defaults of HodgeContext and of the CLI's --method and --tol
DEFAULT_METHOD = "auto"
DEFAULT_TOL = 1e-10


class HodgeError(ValueError):
    pass


class HodgeContext:
    """Hodge-theoretic operators for one complex and weight profile.

    Weights are positive ints or Fractions.  method and tol choose the
    solver of :meth:`decompose`, the one operation with two routes:
    "exact" (rational arithmetic), "cg" (float conjugate gradients to
    tolerance tol) or "auto", which picks exact up to EXACT_SIZE_LIMIT
    total simplices.  Every other operation is exact under every method.
    The harmonic basis in degree k holds the weighted harmonic
    projections of the free generators of H^k(K; Z).  Degrees without
    given weights, or with all given weights 1, are uniform: what their
    weights fix (normal factorizations, harmonic bases, Gram systems)
    is cached on K and shared with spark_from_cocycle and every other
    context uniform there; the other degrees keep theirs in the context.
    """

    def __init__(self, K: SimplicialComplex, weights=None, method=DEFAULT_METHOD,
                 tol=DEFAULT_TOL):
        self.K = K
        given = weights or {}
        stray = sorted(set(given) - set(range(K.dimension + 1)))
        if stray:
            raise HodgeError(
                f"weights given in degree {stray[0]}, outside 0..{K.dimension}"
            )
        # (W, W^-1) as ScaledVectors, in the degrees with a weight other than 1
        self._weights = {}
        for k in sorted(given):
            w = tuple(given[k])
            if len(w) != K.n_simplices(k):
                raise HodgeError(f"need {K.n_simplices(k)} weights in degree {k}")
            W = ScaledVector.of(w)
            if W is None:
                raise HodgeError(f"weights in degree {k} must be ints or Fractions")
            if any(x <= 0 for x in w):
                raise HodgeError("weights must be positive")
            if any(x != 1 for x in w):
                self._weights[k] = W, ScaledVector.of([1 / Fraction(x) for x in w])
        if method == "auto":
            method = "exact" if K.total_simplices() <= EXACT_SIZE_LIMIT else "cg"
        if method not in ("exact", "cg"):
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        if not 0 < tol < inf:
            raise HodgeError(f"tolerance {tol} is not positive and finite")
        self.tol = tol
        self._cache = {}

    @property
    def exact(self):
        return self.method == "exact"

    def weight(self, k):
        """The degree-k weights, each typed by its value: 1s in a uniform degree."""
        return self._uneven(k) or [1] * self.K.n_simplices(k)

    def _times_weights(self, v, k, inverse=False):
        """The ScaledVector v times W_k, or W_k^-1: v itself where W_k = 1."""
        pair = self._weights.get(k)
        return v if pair is None else v.mul(pair[inverse])

    # -- basic operators -------------------------------------------------
    def adjoint_delta(self, u: Cochain) -> Cochain:
        """Adjoint of the coboundary; maps degree k+1 down to k.

        W_k^{-1} delta_k^T W_{k+1} u, exact under every method.
        """
        k = u.degree - 1
        wu = self._times_weights(u.form, u.degree)
        acc = scaled_product(self.K.delta_rows(k), wu, self.K.n_simplices(k))
        return Cochain.from_scaled(k, self._times_weights(acc, k, inverse=True))

    # -- exact machinery -------------------------------------------------
    def _uneven(self, k, inverse=False):
        """The entries of W_k, or W_k^-1, when some weight differs from 1, else None."""
        pair = self._weights.get(k)
        return None if pair is None else pair[inverse].entries()

    def _owner(self, k):
        """Who keeps what the degree-k weights fix: K when they are uniform, else the context."""
        return self if k in self._weights else self.K

    @cached("normal", owner=lambda ctx, k: ctx._owner(k + 1))
    def _normal(self, k):
        """The normal system of degree k on its gauge, factored once.

        (gauge, rows, solver).  For k >= 1 the gauge S lists the k-cells
        that :func:`~diffchar.morse.greedy_matching` does not match
        downward: the up-matched and the critical ones.  For an acyclic
        matching the columns of delta_k on S span im delta_k (Forman,
        Adv. Math. 134, 1998): the coboundary of a cell matched down to
        a face t is, by delta delta t = 0, a combination of those of
        t's other cofacets, and acyclicity ends the recursion.  No
        vertex is matched downward, so for k <= 0 the gauge is every
        cell and no matching is formed.  rows are those of delta_k with
        their columns renumbered along S; solver is the
        :class:`~diffchar.exact.SymmetricSolver` of N_S = delta_S^T
        W_{k+1} delta_S, whose free variables are the critical cells
        that are cocycles.  Which solution comes back depends on the
        pivot order, so its readers use only what every solution gives
        alike: delta x, delta y and the coexact parts.
        """
        K = self.K
        n_k = K.n_simplices(k)
        rows = K.delta_rows(k)
        if k <= 0:
            gauge = range(n_k)
        else:
            down = set(greedy_matching(K).up_map(k - 1).values())
            gauge = [c for c in range(n_k) if c not in down]
            at = {c: i for i, c in enumerate(gauge)}
            rows = [{at[c]: v for c, v in row.items() if c in at} for row in rows]
        return gauge, rows, SymmetricSolver(gram_rows(rows, len(gauge), self._uneven(k + 1)))

    def _normal_solve(self, k, b_S):
        """x with N_S x_S = b_S on the gauge of degree k and zeros off it.

        A :class:`~diffchar.exact.ScaledVector`, typed by value when read.
        """
        gauge, _, solver = self._normal(k)
        x = solver.solve(b_S)
        n_k = self.K.n_simplices(k)
        if len(gauge) == n_k:
            return x
        nums = [0] * n_k
        for c, z in zip(gauge, x.nums):
            nums[c] = z
        return ScaledVector(x.den, nums)

    def _exact_potential(self, u: Cochain) -> Cochain:
        """x with delta x the exact part of u: N_S x_S = delta_S^T W_k u.

        delta x is the orthogonal projection of u onto the coboundaries,
        with x zero off the gauge S of :meth:`_normal`.  Free variables
        of the pivoted solve are set to zero, so the output is
        deterministic.
        """
        k = u.degree - 1
        wu = self._times_weights(u.form, u.degree)
        gauge, rows, _ = self._normal(k)
        return Cochain.from_scaled(k, self._normal_solve(k, scaled_product(rows, wu, len(gauge))))

    def _up_potential(self, v: Cochain) -> Cochain:
        """y with adjoint_delta(delta y) = v for a coexact v: N_S y_S = (W_k v)_S.

        W_k v = delta^T W z lies in im delta^T, and so does N_k y; a
        vector of im delta^T that is zero on the gauge S is zero, since
        the columns on S span im delta, so the rows on S fix y.
        """
        k = v.degree
        wv = self._times_weights(v.form, k)
        gauge = self._normal(k)[0]
        b_S = ScaledVector(wv.den, [wv.nums[c] for c in gauge])
        return Cochain.from_scaled(k, self._normal_solve(k, b_S))

    def _coexact_part(self, x: Cochain) -> Cochain:
        """x minus its harmonic and exact parts."""
        rest = x - self.harmonic_projection(x)
        return rest - self.K.delta(self._exact_potential(x))

    def harmonic_basis(self, k):
        """Harmonic projections of the free generators g of H^k(K; Z).

        The projection is orthogonal under the degree-k weights W.
        Below the top degree it is g - delta x, delta x the exact part
        of g.  In the top degree n, delta_n = 0, so the harmonic
        n-cochains are W^{-1} z for the rational n-cycles z: with Z the
        rows of :func:`~diffchar.cohomology.cycle_lattice_rows`,
        already sparse in the cached Smith form of delta_{n-1}, the
        projection is W^{-1} Z^T c with (Z W^{-1} Z^T) c = Z g, a
        b_n x b_n Gram system, and no normal matrix is factored.  The
        vectors are computed cochains, so their entries are ints exactly
        where they are integral, with weights or without.
        """
        return list(self._harmonics(k))

    @cached("harmonics", owner=_owner)
    def _harmonics(self, k):
        K = self.K
        free, _ = cohomology_generators(K, k)
        if k != K.dimension or not free:
            return [g - K.delta(self._exact_potential(g)) for g in free]
        n_k = K.n_simplices(k)
        Z = cycle_lattice_rows(K, k)
        gram = SymmetricSolver(gram_rows(
            transpose_rows(Z, n_k), len(Z), self._uneven(k, inverse=True)
        ))
        basis = []
        for g in free:
            h = scaled_product(Z, gram.solve(periods(K, g)), n_k)
            basis.append(Cochain.from_scaled(k, self._times_weights(h, k, inverse=True)))
        return basis

    def harmonic_projection(self, u: Cochain) -> Cochain:
        """Orthogonal projection of u onto the harmonic k-cochains.

        Exact: P^T c, the rows of P the :meth:`harmonic_basis` vectors
        over their common denominators, with (P W P^T) c = P W u.  The
        b_k x b_k Gram matrix P W P^T of independent vectors is positive
        definite, so c is unique; the matrix is factored once and cached
        like the basis.  Zero when b_k = 0, with no factorization at all.
        Entries are ints exactly where they are integral.
        """
        k = u.degree
        if not self._harmonics(k):
            return self.K.zero_cochain(k)
        n_k = self.K.n_simplices(k)
        rows, gram = self._gram(k)
        c = gram.solve(scaled_product(rows, self._times_weights(u.form, k)))
        return Cochain.from_scaled(k, scaled_product(rows, c, n_k))

    @cached("gram", owner=_owner)
    def _gram(self, k):
        # each basis vector over its common denominator: the integer
        # rows span the same space and keep the sparse products exact
        rows = [{r: x for r, x in enumerate(b.form.nums) if x} for b in self._harmonics(k)]
        gram = gram_rows(transpose_rows(rows, self.K.n_simplices(k)), len(rows), self._uneven(k))
        return rows, SymmetricSolver(gram)

    # -- conjugate gradients ---------------------------------------------
    @cached("float_weight")
    def _float_weight(self, k):
        """The degree-k weights as floats; c * w and c / w round as with the exact w."""
        return [float(w) for w in self.weight(k)]

    def _float_adjoint(self, k, y, exact=False):
        """adjoint_delta of a list in degree k + 1 as floats: c * w, transposed, float / w.

        With ``exact``, y holds ints and Fractions and is weighed by the
        exact weights, so the transpose sums exact terms.
        """
        wu = [c * w for c, w in zip(y, self.weight(k + 1) if exact else self._float_weight(k + 1))]
        acc = sparse_product(self.K.delta_rows(k), wu, self.K.n_simplices(k))
        return [float(a) / w for a, w in zip(acc, self._float_weight(k))]

    def _cg(self, op, degree, rhs):
        """Solve op(x) = rhs by conjugate gradients in the degree's inner product.

        On lists of floats.  The stop ||r||_W^2 <= tol^2 min(W) bounds
        every entry of the residual r by tol, whatever the size of rhs,
        because ||r||_W^2 >= min(W) max_i r_i^2.  In :meth:`decompose`
        these residuals are the coclosed and closed defects of the
        harmonic part, which :meth:`decomposition_residuals` reports by
        max norm.  Inner products sum left to right, as ``sum()`` did
        before Python 3.12, so every Python gives the same bits.
        """
        w = self._float_weight(degree)
        b = [float(x) for x in rhs]
        n = len(b)
        if n == 0:
            return []

        def dot(x, y):
            total = 0
            for wi, a, c in zip(w, x, y):
                total += wi * a * c
            return total

        x = [0.0] * n
        r = list(b)
        p = list(r)
        rr = dot(r, r)
        target = self.tol ** 2 * min(w)
        limit = 5 * n + 100
        steps = 0
        while rr > target:
            if steps >= limit:
                raise HodgeError("conjugate gradients did not converge")
            ap = [float(v) for v in op(p)]
            denom = dot(p, ap)
            if denom <= 0:
                raise HodgeError("operator lost positivity in conjugate gradients")
            alpha = rr / denom
            x = [xi + alpha * pi for xi, pi in zip(x, p)]
            r = [ri - alpha * ai for ri, ai in zip(r, ap)]
            rr_new = dot(r, r)
            beta = rr_new / rr
            p = [ri + beta * pi for ri, pi in zip(r, p)]
            rr = rr_new
            steps += 1
        return x

    # -- decomposition ---------------------------------------------------
    def decompose(self, u: Cochain) -> "HodgeDecomposition":
        """Split u into harmonic + coboundary + adjoint-coboundary parts.

        Exact: u = h + delta x + adjoint_delta(delta y).  CG: b and c
        solve their normal equations in floats, h = u - delta b -
        adjoint_delta c, and each part is the cochain of the exact values
        of its floats; a value or weight that fits no float, or a part
        that is not finite, raises HodgeError.
        """
        K = self.K
        if self.exact:
            h = self.harmonic_projection(u)
            x = self._exact_potential(u)
            y = self._up_potential(u - h - K.delta(x))
            return HodgeDecomposition(
                harmonic=h, primitive=self._coexact_part(x), coprimitive=K.delta(y)
            )
        k, adjoint = u.degree, self._float_adjoint
        delta_lo, delta = K.delta_rows(k - 1), K.delta_rows(k)
        try:
            b = self._cg(lambda x: adjoint(k - 1, sparse_product(delta_lo, x)), k - 1,
                         adjoint(k - 1, u.values, exact=True))
            c = self._cg(lambda y: sparse_product(delta, adjoint(k, y)), k + 1,
                         scaled_product(delta, u.form).entries())
            h = [a - d - e for a, d, e in zip(u.values, sparse_product(delta_lo, b),
                                               adjoint(k, c))]
        except OverflowError:
            raise HodgeError("a cochain value or weight does not fit a float") from None
        parts = []
        for degree, xs in ((k, h), (k - 1, b), (k + 1, c)):
            if not all(map(isfinite, xs)):
                raise HodgeError("conjugate gradients reached a value that is not finite")
            parts.append(Cochain(degree, map(Fraction, xs)))
        return HodgeDecomposition(*parts)

    def decomposition_residuals(self, u: Cochain, dec: "HodgeDecomposition"):
        """Reconstruction and (co)closedness defects of a decomposition, by max norm.

        Fractions under the exact method.  Floats under CG, recomputed
        from the floats whose exact values the parts hold, entry by
        entry: ((u - h) - delta b) - adjoint_delta c, delta h and
        adjoint_delta h.
        """
        K = self.K
        k = u.degree
        if self.exact:
            recon = (u - dec.harmonic - K.delta(dec.primitive)
                     - self.adjoint_delta(dec.coprimitive))
            defects = (recon, K.delta(dec.harmonic), self.adjoint_delta(dec.harmonic))
            norms = [Fraction(max(map(abs, v.form.nums), default=0), v.form.den)
                     for v in defects]
        else:
            h, b, c = ([float(x) for x in v.values]
                       for v in (dec.harmonic, dec.primitive, dec.coprimitive))
            recon = [a - x - d - e for a, x, d, e in zip(
                u.values, h, sparse_product(K.delta_rows(k - 1), b), self._float_adjoint(k, c))]
            defects = (recon, sparse_product(K.delta_rows(k), h), self._float_adjoint(k - 1, h))
            norms = [float(max(map(abs, v), default=0)) for v in defects]
        return dict(zip(("reconstruction", "closed", "coclosed"), norms))

    def judge(self, defects):
        """(largest, passed) of residual defects; the largest of none is the route's zero.

        They pass when the largest is exactly 0, or at most tol under CG.
        """
        worst = max(defects, default=Fraction(0) if self.exact else 0.0)
        return worst, worst == 0 if self.exact else worst <= self.tol

    # -- spark potentials ------------------------------------------------
    def harmonic_potential(self, R: Cochain) -> Cochain:
        """Potential a with harmonic curvature delta a + R, orthogonal to harmonics.

        With H_j the harmonic projection in degree j, a = -(x - H_{k-1} x)
        for any rational x with delta x = R - H_k R, taken from the Smith
        form of :func:`~diffchar.cohomology.integer_cohomology` that the
        generators already use.  Two such x differ by a rational cocycle,
        that is a harmonic part plus a coboundary, so the character of
        (a, R) does not depend on the choice of x, on pivot order or on
        vertex labels.  Below the top degree, b_{k-1} is read off two
        ranks in hand (:func:`~diffchar.cohomology.betti_below`: the
        relation matrix of H^k and the cached Smith form of
        delta_{k-2}), and when it is 0, H_{k-1} x = 0 and H^{k-1} is not
        formed.  In the top degree k = n the projection forms H^{n-1},
        whose A, the Smith form of delta_{n-1}, is H^n's relation matrix
        already.  No normal matrix is factored when b_k = b_{k-1} = 0,
        nor in the top degree when b_{n-1} = 0 (see
        :meth:`harmonic_basis`).  The character moves with R inside
        its class: for an integral S, (a, R + delta S) presents the
        character of (a, R) plus the flat spark (H_{k-1} S, 0).  R must
        be an integral cocycle (SparkError otherwise).
        """
        K = self.K
        check_charge(K, R)
        k = R.degree
        x = integer_cohomology(K, k).preimage((R - self.harmonic_projection(R)).form)
        if x is None:
            raise AssertionError("R minus its harmonic part must be exact")
        x = Cochain.from_scaled(k - 1, x)
        if k < K.dimension and betti_below(K, k) == 0:
            h = K.zero_cochain(k - 1)
        else:
            h = self.harmonic_projection(x)
        return h - x

    def hodge_spark(self, R: Cochain) -> Spark:
        """The spark with charge R, harmonic curvature and coexact potential.

        The :meth:`harmonic_potential` of R under this context's
        weights, put in :meth:`spark_normal_form`; the result is the
        unique such spark.  It depends on the cocycle R, not only on its
        class: for an integral S, the spark of R + delta S is that of R
        plus the flat spark (H_{k-1} S, 0).
        """
        return self.spark_normal_form(Spark(self.harmonic_potential(R), R))

    def spark_normal_form(self, s: Spark) -> Spark:
        """Equivalent spark whose potential has no coboundary component."""
        return Spark(s.a - self.K.delta(self._exact_potential(s.a)), s.R)


@dataclass(frozen=True)
class HodgeDecomposition:
    harmonic: Cochain
    primitive: Cochain
    coprimitive: Cochain


def spark_from_cocycle(K: SimplicialComplex, R: Cochain) -> Spark:
    """Spark with the given integral cocycle as its second component.

    R is split on the cached Smith form as G + delta y: G is the
    :func:`~diffchar.cohomology.class_cocycle` of R's free and torsion
    coordinates, y an integral (k-1)-cochain.  The potential is the
    :meth:`~HodgeContext.harmonic_potential` of G minus y, with uniform
    weights, so the curvature is the harmonic projection of R, a
    generator gets exactly its harmonic spark, and cohomologous
    cocycles get equivalent sparks.  Class invariance costs
    naturality: when b_{k-1} > 0 the character of a cocycle that is no
    generator depends on the generators chosen (the flat spark
    (H_{k-1} y, 0) of the harmonic potential).
    """
    check_charge(K, R)
    k = R.degree
    Q = integer_cohomology(K, k)
    G = class_cocycle(K, k, *Q.coords(R.form))
    y = Q.preimage((R - G).form)
    if y is None or not y.is_integral():
        raise AssertionError("R minus its generator combination must be a coboundary")
    a = HodgeContext(K).harmonic_potential(G)
    return Spark(a - Cochain.from_scaled(k - 1, y), R)


# ---------------------------------------------------------------------------
# Abel-Jacobi values


def _harmonic_periods(ctx: HodgeContext, chain: Chain, basis) -> tuple:
    """Integrals mod 1 over an integral chain of harmonic representatives.

    basis holds integral cocycles of the chain's degree, by default the
    free cohomology generators.  On a rational chain the values would
    depend on the chain chosen, so it is refused.
    """
    K = ctx.K
    if not chain.is_integral():
        raise HodgeError("the chain to integrate over must be integral")
    if basis is None:
        basis, _ = cohomology_generators(K, chain.degree)
    vals = []
    for g in basis:
        if g.degree != chain.degree or not g.is_integral() or not K.delta(g).is_zero():
            raise HodgeError("basis entries must be integral cocycles")
        h = ctx.harmonic_projection(g)
        vals.append(mod1(Fraction(K.evaluate(h, chain))))
    return tuple(vals)


def abel_jacobi(ctx: HodgeContext, z: Chain, basis=None):
    """Circle-valued periods of a bounding integral cycle.

    The degree-q cycle z must bound; the returned tuple holds, mod 1,
    the integrals over a bounding chain of the harmonic representatives
    of the given degree-(q+1) integral cocycles (by default the free
    cohomology generators).  Changing the bounding chain moves the
    integrals by whole numbers, so the values are well defined.
    """
    K = ctx.K
    if not z.is_integral():
        raise HodgeError("cycle must be integral")
    c = integer_homology(K, z.degree).preimage(z.form)
    if c is None or not c.is_integral():
        raise HodgeError("cycle does not bound")
    return _harmonic_periods(ctx, Chain.from_scaled(z.degree + 1, c), basis)


def is_principal(ctx: HodgeContext, z: Chain, basis=None) -> bool:
    """Whether a bounding cycle is trivial in the circle-valued sense.

    True exactly when every Abel-Jacobi component of z vanishes mod 1,
    that is when some bounding chain has integer periods against the
    harmonic representatives of the chosen integral cocycle basis.  The
    comparison is exact rational, no tolerance involved.
    """
    return all(v == 0 for v in abel_jacobi(ctx, z, basis))


def path_chain(K: SimplicialComplex, vertices) -> Chain:
    """1-chain of a vertex path, oriented along the direction of travel."""
    values = [0] * K.n_simplices(1)
    # a 0-dimensional complex has no edge table
    idx = K.index.get(1, {})
    for a, b in zip(vertices, vertices[1:]):
        if a == b:
            continue
        edge = (a, b) if a < b else (b, a)
        if edge not in idx:
            raise HodgeError(f"no edge {edge}")
        values[idx[edge]] += 1 if a < b else -1
    return Chain(1, tuple(values))


def point_abel_jacobi(ctx: HodgeContext, src, dst, path=None, basis=None):
    """Abel-Jacobi value of the 0-cycle dst - src.

    path, when given, is either a vertex list or an integral 1-chain
    whose boundary is dst - src; by default the lexicographic shortest
    edge path is used.  The result does not depend on that choice.
    """
    K = ctx.K
    for v in (src, dst):
        if not 0 <= v < K.n_vertices:
            raise HodgeError(f"vertex {v} outside 0..{K.n_vertices - 1}")
    z_vals = [0] * K.n_simplices(0)
    z_vals[dst] += 1
    z_vals[src] -= 1
    z = Chain(0, tuple(z_vals))
    if path is None:
        verts = K.bfs_path(src, dst)
        if verts is None:
            raise HodgeError("vertices lie in different components")
        chain = path_chain(K, verts)
    elif isinstance(path, Chain):
        chain = path
    else:
        chain = path_chain(K, list(path))
    if K.boundary(chain) != z:
        raise HodgeError("path does not run from src to dst")
    return _harmonic_periods(ctx, chain, basis)
