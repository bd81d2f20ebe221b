"""Discrete Morse flows on chains and cochains.

A matching pairs each non-critical cell with a cell one dimension up.
The associated flow operator stabilizes after finitely many steps to a
projection P, with an explicit homotopy T satisfying, exactly over the
integers, boundary T + T boundary = 1 - P.  Restricting P-stable chains
to the critical cells yields a small complex computing the same
homology, and transposing everything gives cochain versions that
compress a closed cochain into potential plus critical charge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import AbelianGroupStructure, LatticeQuotient
from .complexes import Chain, Cochain, SimplicialComplex
from .exact import add_rows, identity_rows, mat_vec, mul_rows, transpose_apply
from .sparks import Spark, SparkError


class MorseError(Exception):
    pass


# ---------------------------------------------------------------------------
# matchings


@dataclass(frozen=True)
class Matching:
    """Pairs (k, i, j): k-simplex number i with (k+1)-simplex number j."""

    pairs: tuple

    def up_map(self, k):
        return {i: j for kk, i, j in self.pairs if kk == k}

    def cells(self):
        out = set()
        for k, i, j in self.pairs:
            out.add((k, i))
            out.add((k + 1, j))
        return out


def critical_cells(K: SimplicialComplex, matching: Matching):
    used = matching.cells()
    return {
        k: tuple(
            i for i in range(K.n_simplices(k)) if (k, i) not in used
        )
        for k in range(K.dimension + 1)
    }


def _cofacet_lists(K, k):
    # boundary_rows(k+1) is indexed by k-simplices, columns by cofacets
    cof = [sorted(row) for row in K.boundary_rows(k + 1)]
    return cof


def validate_matching(K: SimplicialComplex, matching: Matching):
    """Check facet incidence, disjointness, and acyclicity of V-paths."""
    seen = set()
    for k, i, j in matching.pairs:
        if not (0 <= k < K.dimension):
            raise MorseError(f"bad degree {k} in matching")
        if not (0 <= i < K.n_simplices(k) and 0 <= j < K.n_simplices(k + 1)):
            raise MorseError("matching index out of range")
        if K.boundary_rows(k + 1)[i].get(j, 0) == 0:
            raise MorseError(
                f"pair ({k}, {i}, {j}) is not a facet incidence"
            )
        for cell in ((k, i), (k + 1, j)):
            if cell in seen:
                raise MorseError(f"cell {cell} matched twice")
            seen.add(cell)
    # V-paths in degree k step from a matched k-cell through its partner
    # to another matched facet of that partner; they must not cycle
    for k in range(K.dimension):
        up = matching.up_map(k)
        facets = K.delta_rows(k)
        succ = {
            i: [i2 for i2 in facets[j] if i2 != i and i2 in up]
            for i, j in up.items()
        }
        state = {}

        def visit(node):
            stack = [(node, iter(succ[node]))]
            state[node] = 1
            while stack:
                cur, it = stack[-1]
                advanced = False
                for nxt in it:
                    if state.get(nxt) == 1:
                        raise MorseError(f"matching has a V-path cycle in degree {k}")
                    if nxt not in state:
                        state[nxt] = 1
                        stack.append((nxt, iter(succ[nxt])))
                        advanced = True
                        break
                if not advanced:
                    state[cur] = 2
                    stack.pop()

        for node in succ:
            if node not in state:
                visit(node)


def greedy_matching(K: SimplicialComplex) -> Matching:
    """Deterministic collapse-based acyclic matching, cached on K.

    Repeatedly matches the lexicographically first cell that has exactly
    one unassigned cofacet; when stuck, the first unassigned cell of the
    highest remaining dimension becomes critical.  Free-face collapses
    can never create a V-path cycle.  It is formed once per complex:
    the Morse commands and the gauge of the Hodge normal systems share
    it.
    """
    if "greedy_matching" not in K._cache:
        K._cache["greedy_matching"] = _greedy_matching(K)
    return K._cache["greedy_matching"]


def _greedy_matching(K):
    assigned = set()
    pairs = []
    cof = {k: _cofacet_lists(K, k) for k in range(K.dimension)}
    while True:
        progress = True
        while progress:
            progress = False
            for k in range(K.dimension):
                for i in range(K.n_simplices(k)):
                    if (k, i) in assigned:
                        continue
                    free = [
                        j for j in cof[k][i] if (k + 1, j) not in assigned
                    ]
                    if len(free) == 1:
                        j = free[0]
                        pairs.append((k, i, j))
                        assigned.add((k, i))
                        assigned.add((k + 1, j))
                        progress = True
        remaining = None
        for k in range(K.dimension, -1, -1):
            for i in range(K.n_simplices(k)):
                if (k, i) not in assigned:
                    remaining = (k, i)
                    break
            if remaining:
                break
        if remaining is None:
            break
        assigned.add(remaining)
    return Matching(tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# the flow


class MorseFlow:
    """Stabilized flow, homotopy and critical complex of a matching."""

    def __init__(self, K: SimplicialComplex, matching: Matching):
        validate_matching(K, matching)
        self.K = K
        self.matching = matching
        self.critical = critical_cells(K, matching)
        n = K.dimension
        # V_k: C_k -> C_{k+1}, rows indexed by (k+1)-simplices;
        # V(sigma) = -(incidence)^{-1} partner, so the flow cancels sigma
        self._V = {}
        for k in range(-1, n + 1):
            rows = [dict() for _ in range(K.n_simplices(k + 1))]
            if 0 <= k < n:
                for i, j in matching.up_map(k).items():
                    sign = K.boundary_rows(k + 1)[i][j]
                    rows[j][i] = -sign
            self._V[k] = rows
        # stabilize the flow phi = 1 + d V + V d in each degree:
        # phi^i = P_k for i >= s_k, and the loop keeps the sum of the
        # powers below s_k for the homotopy
        self._P = {}
        below = {}
        exponent = {}
        for k in range(n + 1):
            phi = identity_rows(K.n_simplices(k))
            phi = add_rows(phi, mul_rows(K.boundary_rows(k + 1), self._V[k]))
            phi = add_rows(phi, mul_rows(self._V[k - 1], K.boundary_rows(k)))
            acc = identity_rows(K.n_simplices(k))
            power, s = phi, 1
            while True:
                nxt = mul_rows(power, phi)
                if nxt == power:
                    break
                acc = add_rows(acc, power)
                power, s = nxt, s + 1
            self._P[k] = power
            below[k] = acc
            exponent[k] = s
        self.stabilization_exponent = max(exponent.values(), default=0)
        # homotopy T_k = -(sum_{i < s} phi^i) V_k, the flow powers below
        # s = s_{k+1}; the powers from s on add P_{k+1} V_k, which is zero
        # for an acyclic matching: the stable flow kills every cell that
        # is matched downward (Forman, Adv. Math. 134, 1998).  Degree
        # n + 1 is empty, so T_n has no rows
        self._T = {n: []}
        for k in range(-1, n):
            prod = mul_rows(below[k + 1], self._V[k])
            self._T[k] = [{c: -v for c, v in row.items()} for row in prod]

    # -- chain operators -------------------------------------------------
    def project(self, z: Chain) -> Chain:
        return Chain(z.degree, tuple(mat_vec(self._P[z.degree], z.form)))

    def homotopy(self, z: Chain) -> Chain:
        """Degree-raising map T with boundary T + T boundary = 1 - P."""
        return Chain(
            z.degree + 1, tuple(mat_vec(self._T[z.degree], z.form))
        )

    # -- cochain operators (transposes) ----------------------------------
    def project_cochain(self, u: Cochain) -> Cochain:
        n = self.K.n_simplices(u.degree)
        return Cochain(
            u.degree, tuple(transpose_apply(self._P[u.degree], u.form, n))
        )

    def homotopy_cochain(self, u: Cochain) -> Cochain:
        """Degree-lowering transpose of T; pairs with delta like 1 - P."""
        k = u.degree - 1
        n = self.K.n_simplices(k)
        return Cochain(k, tuple(transpose_apply(self._T[k], u.form, n)))

    def homotopy_identity(self):
        """Whether boundary T + T boundary == 1 - P holds in every degree.

        Checked as the sparse matrix identity
        d_{k+1} T_k + T_{k-1} d_k + P_k == I for k = 0..dimension.
        """
        K = self.K
        for k in range(K.dimension + 1):
            dt = mul_rows(K.boundary_rows(k + 1), self._T[k])
            td = mul_rows(self._T[k - 1], K.boundary_rows(k))
            total = add_rows(add_rows(dt, td), self._P[k])
            if total != identity_rows(K.n_simplices(k)):
                return False
        return True

    # -- critical complex ------------------------------------------------
    def morse_boundary_rows(self, k):
        """Boundary of the critical complex, M_k -> M_{k-1}.

        The critical rows of d_k times P_k restricted to critical columns.
        """
        col_pos = {idx: p for p, idx in enumerate(self.critical.get(k, ()))}
        brows = self.K.boundary_rows(k)
        stable = [
            {col_pos[c]: v for c, v in row.items() if c in col_pos}
            for row in self._P.get(k, ())
        ]
        return mul_rows([brows[i] for i in self.critical.get(k - 1, ())], stable)

    def morse_homology(self, k) -> AbelianGroupStructure:
        crit_k = self.critical.get(k, ())
        A = self.morse_boundary_rows(k)
        B = self.morse_boundary_rows(k + 1)
        return LatticeQuotient(A, len(crit_k), B, len(self.critical.get(k + 1, ()))).structure()


def morse_spark(K: SimplicialComplex, flow: MorseFlow, phi: Cochain) -> Spark:
    """Spark with curvature phi from the cochain flow.

    The potential is the cochain homotopy applied to phi and the charge
    is its stable projection, which lives on critical cells; the charge
    must come out integral, otherwise phi admits no spark through this
    matching and a SparkError is raised.
    """
    if phi.degree < 0:
        raise SparkError("curvature degree must be nonnegative")
    if not K.delta(phi).is_zero():
        raise SparkError("curvature must be closed")
    a = flow.homotopy_cochain(phi)
    R = flow.project_cochain(phi)
    if not R.is_integral():
        raise SparkError("stable projection of the curvature is not integral")
    return Spark(a, R)
