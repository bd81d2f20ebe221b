"""Integer (co)homology with explicit generators and witnesses.

Groups are computed as lattice quotients ker(A)/im(B) inside Z^n using
two Smith decompositions: one of A to get coordinates on the kernel,
one of the relation matrix to split the quotient into free and cyclic
parts.  Every torsion generator comes with a witness x satisfying
B x = d * generator, which is what the torsion linking form and the
flat-spark constructions consume downstream.

The Smith form of each coboundary delta_k is computed once per complex
and cached on it (:func:`coboundary_smith_form`): it is the A of H^k
and, in the top degree n, where delta_n has no rows and the kernel
coordinates are the identity, also the relation matrix of H^n.  Since
boundary_{k+1} = delta_k^T, the same Smith form U delta_k V = D also
gives the lattice of integral (k+1)-cycles: the rows of U past the rank
(:func:`cycle_lattice_rows`).  The periods of sparks, the fundamental
cycle and the top-degree harmonics read their cycles there.
:func:`integer_homology` reads the Smith form of boundary_k, cached on
the complex as well (:func:`boundary_smith_form`), and forms its own of
the relation matrix, except in degree 0, where that is boundary_1's.
:func:`betti_below` reads b_{k-1} off the rank of H^k's relation
matrix and that of delta_{k-2}, without forming H^{k-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .complexes import Chain, Cochain, SimplicialComplex, cached
from .exact import ScaledVector, identity_rows, mul_rows, rows_to_dense, scaled_product
from .exact import smith_normal_form


def group_name(factors, sep):
    """Name of a group from its (symbol, power) factors, joined by ``sep``.

    A zero power is left out and a first power is the bare symbol; any
    other power p reads ``symbol^p``, a symbol of more than one
    character in parentheses, as in ``(S1)^2``.  No factor left: "0".
    """
    parts = [
        sym if p == 1 else f"({sym})^{p}" if len(sym) > 1 else f"{sym}^{p}"
        for sym, p in factors
        if p
    ]
    return sep.join(parts) or "0"


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Isomorphism type of a finitely generated abelian group.

    ``torsion`` is the invariant-factor chain d_1 | d_2 | ..., each > 1.
    """

    free_rank: int
    torsion: tuple = ()

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def format(self):
        torsion = [(f"Z_{d}", 1) for d in self.torsion]
        return group_name([("Z", self.free_rank)] + torsion, " + ")

    def to_json_dict(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


TRIVIAL_GROUP = AbelianGroupStructure(0, ())


@dataclass(frozen=True)
class CircleGroupStructure:
    """A product (S^1)^r x finite group, as for circle-coefficient groups."""

    circle_rank: int
    torsion: tuple = ()

    def format(self):
        torsion = [(f"Z_{d}", 1) for d in self.torsion]
        return group_name([("S1", self.circle_rank)] + torsion, " x ")

    def to_json_dict(self):
        return {"circle_rank": self.circle_rank, "torsion": list(self.torsion)}


class LatticeQuotient:
    """The group ker(A) / im(B) of integer vectors in Z^ncols.

    A and B are sparse integer matrices (lists of row dicts); the rows
    of B are indexed by the same Z^ncols coordinates, with B_cols
    columns.  Columns of B must lie in ker A.  A and B are read, not
    modified.  ``snfA`` and ``snfW`` are the Smith forms of A and of the
    relation matrix W (im B in kernel coordinates) when the caller has
    them already; each one not given is computed here.
    """

    def __init__(self, A_rows, ncols, B_rows, B_cols, snfA=None, snfW=None):
        self.ncols = ncols
        self.B_cols = B_cols
        if snfA is None:
            snfA = smith_normal_form(A_rows, nrows=len(A_rows), ncols=ncols)
        self.snfA = snfA
        r = snfA.rank
        self.kernel_dim = ncols - r
        if snfW is None:
            W = mul_rows(snfA.Vinv_rows[r:], B_rows)
            snfW = smith_normal_form(W, nrows=self.kernel_dim, ncols=B_cols)
        self.snfW = snfW
        # guard misuse: every column of B must lie in ker A
        if any(mul_rows(A_rows, B_rows)):
            raise ValueError("columns of B do not lie in ker A")
        self._torsion_idx = [
            i for i, d in enumerate(self.snfW.diag) if d > 1
        ]

    # -- structure -------------------------------------------------------
    def structure(self) -> AbelianGroupStructure:
        free = self.kernel_dim - self.snfW.rank
        torsion = tuple(d for d in self.snfW.diag if d > 1)
        return AbelianGroupStructure(free, torsion)

    # -- generators ------------------------------------------------------
    def _from_kernel_coords(self, y):
        padded = ScaledVector(1, [0] * self.snfA.rank + y)
        return scaled_product(self.snfA.VT_rows, padded, self.ncols).nums

    def _uinv_column(self, i):
        return rows_to_dense([self.snfW.UinvT_rows[i]], self.kernel_dim)[0]

    def free_generator_vectors(self):
        out = []
        for i in range(self.snfW.rank, self.kernel_dim):
            out.append(self._from_kernel_coords(self._uinv_column(i)))
        return out

    def torsion_generator_vectors(self):
        """List of (order, generator, witness): B @ witness = order * gen."""
        out = []
        for i in self._torsion_idx:
            d = self.snfW.diag[i]
            gen = self._from_kernel_coords(self._uinv_column(i))
            witness = rows_to_dense([self.snfW.VT_rows[i]], self.B_cols)[0]
            out.append((d, gen, witness))
        return out

    # -- coordinates -----------------------------------------------------
    def _kernel_coords(self, v):
        full = scaled_product(self.snfA.Vinv_rows, v)
        r = self.snfA.rank
        if any(full.nums[:r]):
            raise ValueError("vector is not in the kernel of A")
        return full.tail(r)

    def coords(self, v):
        """(free coords, torsion coords mod d) of a kernel vector.

        v is a :class:`~diffchar.exact.ScaledVector`, a chain's or a
        cochain's ``form``.  A rational v is read exactly: its free
        coords are rational.  Each coord is an int or a Fraction, by its
        value.
        """
        full = scaled_product(self.snfW.U_rows, self._kernel_coords(v))
        free = tuple(full.entry(i) for i in range(self.snfW.rank, self.kernel_dim))
        torsion = tuple(
            full.entry(i) % self.snfW.diag[i] for i in self._torsion_idx
        )
        return free, torsion

    def preimage(self, v):
        """x with B x = v as a ScaledVector, or None (v as in :meth:`coords`).

        The Smith form solve of :class:`~diffchar.exact.SmithDecomposition`:
        x is integral exactly when an integral preimage exists.
        """
        return self.snfW.solve(self._kernel_coords(v))


# ---------------------------------------------------------------------------
# complex-facing wrappers


@cached("snf_delta")
def coboundary_smith_form(K: SimplicialComplex, k):
    """Smith form of delta_k (no rows outside 0..n-1), cached on K."""
    A = K.delta_rows(k) if 0 <= k <= K.dimension else []
    return smith_normal_form(A, nrows=len(A), ncols=K.n_simplices(k))


def delta_rank(K: SimplicialComplex, k) -> int:
    """Rank of the degree-k coboundary operator, from its own Smith form."""
    if k < 0 or k > K.dimension:
        return 0
    return coboundary_smith_form(K, k).rank


@cached("H_int")
def integer_cohomology(K: SimplicialComplex, k) -> LatticeQuotient:
    """H^k(K; Z) = ker(delta_k) / im(delta_{k-1}), cached on K.

    A is delta_k with its :func:`coboundary_smith_form`.  In the top
    degree n, delta_n has no rows, so the kernel coordinates are the
    identity and the relation matrix is delta_{n-1} itself: its Smith
    form is the cached one of delta_{n-1}, the object H^{n-1} uses, and
    H^n forms no Smith form of its own beyond the empty delta_n.
    """
    n_k = K.n_simplices(k)
    A = K.delta_rows(k) if 0 <= k <= K.dimension else []
    snfW = None
    if 0 < k <= K.dimension:
        B = K.delta_rows(k - 1)
        B_cols = K.n_simplices(k - 1)
        if k == K.dimension:
            snfW = coboundary_smith_form(K, k - 1)
    else:
        B = [dict() for _ in range(n_k)]
        B_cols = 0
    return LatticeQuotient(A, n_k, B, B_cols, snfA=coboundary_smith_form(K, k), snfW=snfW)


def betti_below(K: SimplicialComplex, k) -> int:
    """b_{k-1} = n_{k-1} - rank delta_{k-1} - rank delta_{k-2}, for 0 <= k <= n.

    Read off two ranks in hand, without forming H^{k-1}: rank
    delta_{k-1} is the rank of the relation matrix of H^k (im
    delta_{k-1} in the kernel coordinates of delta_k, an injective
    change of coordinates), and rank delta_{k-2} that of its cached
    :func:`coboundary_smith_form`.
    """
    return K.n_simplices(k - 1) - integer_cohomology(K, k).snfW.rank - delta_rank(K, k - 2)


@cached("snf_boundary")
def boundary_smith_form(K: SimplicialComplex, k):
    """Smith form of boundary_k (no rows outside 0..n), cached on K."""
    A = K.boundary_rows(k) if 0 <= k <= K.dimension else []
    return smith_normal_form(A, nrows=len(A), ncols=K.n_simplices(k))


@cached("H_int_chain")
def integer_homology(K: SimplicialComplex, k) -> LatticeQuotient:
    """H_k(K; Z) = ker(boundary_k) / im(boundary_{k+1}), cached on K.

    A is boundary_k with its :func:`boundary_smith_form`.  In degree 0,
    boundary_0 has no rows, so the kernel coordinates are the identity
    and the relation matrix is boundary_1 itself: its Smith form is the
    cached one H_1 uses as its A.
    """
    n_k = K.n_simplices(k)
    A = K.boundary_rows(k) if 0 <= k <= K.dimension else []
    B = K.boundary_rows(k + 1) if 0 <= k < K.dimension else [dict() for _ in range(n_k)]
    B_cols = K.n_simplices(k + 1)
    snfA = boundary_smith_form(K, k)
    snfW = boundary_smith_form(K, 1) if k == 0 < K.dimension else None
    return LatticeQuotient(A, n_k, B, B_cols, snfA=snfA, snfW=snfW)


def cohomology_structure(K, k) -> AbelianGroupStructure:
    if k < 0 or k > K.dimension:
        return TRIVIAL_GROUP
    return integer_cohomology(K, k).structure()


def homology_structure(K, k) -> AbelianGroupStructure:
    if k < 0 or k > K.dimension:
        return TRIVIAL_GROUP
    return integer_homology(K, k).structure()


def circle_cohomology_structure(K, k) -> CircleGroupStructure:
    """H^k(K; S^1) = (S^1)^{b_k} x tor H^{k+1}(K; Z)."""
    b_k = cohomology_structure(K, k).free_rank
    tor = cohomology_structure(K, k + 1).torsion
    return CircleGroupStructure(b_k, tor)


def cycle_lattice_rows(K, k):
    """Sparse rows of a primitive basis of the integral k-cycles.

    Every 0-chain is a cycle: the rows are the identity.  For k >= 1,
    boundary_k = delta_{k-1}^T, and U delta_{k-1} V = D in the cached
    :func:`coboundary_smith_form` with U unimodular, so the rows of U
    past the rank are a primitive basis of ker boundary_k.  The rows
    are shared with the Smith form and must not be modified.
    """
    if k == 0:
        return identity_rows(K.n_simplices(0))
    snf = coboundary_smith_form(K, k - 1)
    return snf.U_rows[snf.rank:]


def cycle_lattice_basis(K, k):
    """Primitive basis of integral k-cycles (kernel of boundary_k).

    The rows of :func:`cycle_lattice_rows` as dense integer vectors.
    """
    return rows_to_dense(cycle_lattice_rows(K, k), K.n_simplices(k))


def cohomology_generators(K, k):
    """Integral cocycle generators of H^k: free ones, then torsion.

    Returns (free: [Cochain], torsion: [(order, Cochain, witness Cochain)])
    with delta(witness) = order * generator.  The cochains are built
    once per degree and cached on K; each call returns new lists of
    them, which the caller may change, but the cochains are shared and
    callers must not modify their vectors.
    """
    free, torsion = _generators(K, k)
    return list(free), list(torsion)


@cached("generators")
def _generators(K, k):
    Q = integer_cohomology(K, k)
    free = [K.cochain(k, vec) for vec in Q.free_generator_vectors()]
    tors = Q.torsion_generator_vectors()
    return free, [(d, K.cochain(k, g), K.cochain(k - 1, w)) for d, g, w in tors]


def class_cocycle(K, k, free, torsion=()):
    """Sum c_i g_i, integer c_i, over the :func:`cohomology_generators` of H^k.

    ``free`` and then ``torsion`` weigh the free and torsion generators;
    coefficients not given are 0.  The inverse of ``coords`` of
    :func:`integer_cohomology` on the coordinates of an integral class.
    """
    gens, tors = cohomology_generators(K, k)
    nums = [0] * K.n_simplices(k)
    for c, g in [*zip(free, gens), *zip(torsion, (g for _, g, _ in tors))]:
        if c:
            nums = [x + c * y for x, y in zip(nums, g.form.nums)]
    return Cochain.from_scaled(k, ScaledVector(1, nums))


# ---------------------------------------------------------------------------
# Kunneth arithmetic


def _tensor(a: AbelianGroupStructure, b: AbelianGroupStructure):
    """(free rank, cyclic orders) of the tensor product."""
    cyclic = [d for d in b.torsion for _ in range(a.free_rank)]
    cyclic += [d for d in a.torsion for _ in range(b.free_rank)]
    return a.free_rank * b.free_rank, cyclic + _tor_product(a, b)


def _tor_product(a: AbelianGroupStructure, b: AbelianGroupStructure):
    cyclic = []
    for d1 in a.torsion:
        for d2 in b.torsion:
            g = gcd(d1, d2)
            if g > 1:
                cyclic.append(g)
    return cyclic


def kunneth_structure(factors_a, factors_b, k) -> AbelianGroupStructure:
    """H^k of a product space from the cohomology of its factors.

    ``factors_a`` and ``factors_b`` map degree to
    :class:`AbelianGroupStructure` (dict or list indexed by degree;
    missing degrees are trivial).  Uses the split short exact sequence
    for products of finite complexes: a tensor part in degree k and a
    torsion-product part in degree k+1.
    """

    def get(factors, i):
        if isinstance(factors, dict):
            return factors.get(i, TRIVIAL_GROUP)
        if 0 <= i < len(factors):
            return factors[i]
        return TRIVIAL_GROUP

    free = 0
    cyclic = []
    for i in range(0, k + 1):
        f, c = _tensor(get(factors_a, i), get(factors_b, k - i))
        free += f
        cyclic.extend(c)
    for i in range(0, k + 2):
        cyclic.extend(_tor_product(get(factors_a, i), get(factors_b, k + 1 - i)))
    # the Smith form of diag(cyclic) has the invariant factors on its diagonal
    snf = smith_normal_form([{i: d} for i, d in enumerate(cyclic)], ncols=len(cyclic))
    return AbelianGroupStructure(free, tuple(d for d in snf.diag if d > 1))


def cohomology_structures(K):
    """All degrees of K as a dict degree -> structure."""
    return {k: cohomology_structure(K, k) for k in range(K.dimension + 1)}


# ---------------------------------------------------------------------------
# Poincare duality


def poincare_dual(K: SimplicialComplex, z: Chain):
    """Integral cocycle u with [X] cap u homologous to z, or None.

    K must carry a fundamental cycle.  ``z`` is an integral cycle of
    degree n-k; the result has degree k.  Solves an integer linear
    system in homology coordinates, torsion slots handled modulo their
    orders.
    """
    fc = K.fundamental_cycle()
    if fc is None:
        raise ValueError("space has no fundamental cycle")
    n = K.dimension
    k = n - z.degree
    if not (0 <= k <= n):
        raise ValueError("degree out of range")
    H_target = integer_homology(K, z.degree)
    fz, tz = H_target.coords(z.form)

    free_gens, tor_gens = cohomology_generators(K, k)
    gens = free_gens + [g for _, g, _ in tor_gens]
    cap_coords = []
    for g in gens:
        capped = K.cap(fc, g)
        cap_coords.append(H_target.coords(capped.form))

    n_gens = len(gens)
    tor_orders = H_target.structure().torsion
    n_free, n_tor = len(fz), len(tz)
    rows = [{j: c[0][i] for j, c in enumerate(cap_coords) if c[0][i]} for i in range(n_free)]
    for i in range(n_tor):
        # torsion coordinate i holds modulo its order: slack column n_gens + i
        row = {j: c[1][i] for j, c in enumerate(cap_coords) if c[1][i]}
        row[n_gens + i] = tor_orders[i]
        rows.append(row)
    if not rows:
        return K.zero_cochain(k)
    sol = smith_normal_form(rows, ncols=n_gens + n_tor).solve(ScaledVector.of(fz + tz))
    if sol is None or not sol.is_integral():
        return None
    coeffs = [sol.entry(j) for j in range(n_gens)]
    return class_cocycle(K, k, coeffs[:len(free_gens)], coeffs[len(free_gens):])
