"""Discrete Morse flows on chains and cochains.

A matching pairs each non-critical cell with a cell one dimension up.
The associated flow operator stabilizes after finitely many steps to a
projection P, with an explicit homotopy T satisfying, exactly over the
integers, boundary T + T boundary = 1 - P; both follow the gradient
paths of the matching cell by cell.  Restricting P-stable chains
to the critical cells yields a small complex computing the same
homology, and transposing everything gives cochain versions that
compress a closed cochain into potential plus critical charge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import AbelianGroupStructure, LatticeQuotient
from .complexes import Chain, Cochain, SimplicialComplex
from .exact import _row_axpy, add_rows, identity_rows, mul_rows, scaled_product
from .exact import transpose_rows
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
        return {(k, i) for k, i, _ in self.pairs} | {(k + 1, j) for k, _, j in self.pairs}


def critical_cells(K: SimplicialComplex, matching: Matching):
    used = matching.cells()
    return {
        k: tuple(
            i for i in range(K.n_simplices(k)) if (k, i) not in used
        )
        for k in range(K.dimension + 1)
    }


def validate_matching(K: SimplicialComplex, matching: Matching):
    """Check facet incidence, disjointness, and acyclicity of V-paths.

    Returns a dict from each degree k < dimension to the k-cells matched
    upward in V-path order: each cell comes after every matched cell its
    V-paths reach.
    """
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
    # to another matched facet of that partner; they must not cycle.
    # Peel the cells whose V-paths stop there, then the cells whose steps
    # all lead to peeled cells, and so on: a cycle is never peeled
    order = {}
    for k in range(K.dimension):
        up, facets = matching.up_map(k), K.delta_rows(k)
        left, back = {}, {i: [] for i in up}
        for i, j in up.items():
            steps = [f for f in facets[j] if f != i and f in up]
            left[i] = len(steps)
            for f in steps:
                back[f].append(i)
        done = order[k] = [i for i in up if not left[i]]
        for f in done:
            for i in back[f]:
                left[i] -= 1
                if not left[i]:
                    done.append(i)
        if len(done) < len(up):
            raise MorseError(f"matching has a V-path cycle in degree {k}")
    return order


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
    n = K.dimension
    assigned = [[False] * K.n_simplices(k) for k in range(n + 1)]
    # the cofacets of each k-cell, rising, and how many are unassigned;
    # assigning a k-cell takes one off the count of each of its faces,
    # its row of delta_rows(k - 1)
    cof = [[sorted(row) for row in K.boundary_rows(k + 1)] for k in range(n)]
    free = [[len(c) for c in cells] for cells in cof]
    pairs = []

    def assign(k, i):
        assigned[k][i] = True
        if k:
            below = free[k - 1]
            for f in K.delta_rows(k - 1)[i]:
                below[f] -= 1

    while True:
        progress = True
        while progress:
            progress = False
            for k in range(n):
                done, up = assigned[k], assigned[k + 1]
                for i, count in enumerate(free[k]):
                    if count != 1 or done[i]:
                        continue
                    j = next(j for j in cof[k][i] if not up[j])
                    pairs.append((k, i, j))
                    assign(k, i)
                    assign(k + 1, j)
                    progress = True
        remaining = next(
            ((k, i) for k in range(n, -1, -1) for i, a in enumerate(assigned[k]) if not a),
            None,
        )
        if remaining is None:
            break
        assign(*remaining)
    return Matching(tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# the flow


class MorseFlow:
    """Stabilized flow, homotopy and critical complex of a matching."""

    def __init__(self, K: SimplicialComplex, matching: Matching):
        order = validate_matching(K, matching)
        self.K = K
        self.matching = matching
        self.critical = critical_cells(K, matching)
        # V sends a k-cell i matched with j to -e j, e = <d j, i>, so the
        # flow phi = 1 + dV + Vd cancels i.  The matching is acyclic, so
        # T = -sum_s phi^s V and the stable flow P = phi^s (s large) are
        # recursions along V-paths, taken in the order validate_matching
        # gives (Forman, Adv. Math. 134, 1998):
        #   T(i) = e (j - sum_{f != i} <d j, f> T(f)), T = 0 on other cells;
        #   P(c) = c - sum_g <d c, g> T(g) for a critical c;
        #   P(i) = -e sum_{f != i} <d j, f> P(f), from P d = d P, P V = 0;
        #   P = 0 on every cell matched downward.
        # Columns are built per cell, then stored as rows.
        self._P, self._T = {}, {-1: [{} for _ in range(K.n_simplices(0))]}
        self.stabilization_exponent = 1
        t_low = []
        for k in range(K.dimension + 1):
            up, facets, n_k = matching.up_map(k), K.delta_rows(k), K.n_simplices(k)
            p, t = [{} for _ in range(n_k)], [{} for _ in range(n_k)]
            for c in self.critical[k]:
                p[c] = {c: 1}
                for g, v in K.delta_rows(k - 1)[c].items():
                    _row_axpy(p[c], t_low[g], -v)
            # step: phi on the cells matched downward, partner(i) going to
            # sum_f <d j, f> V f over the matched facets f != i of j = up[i]
            step, depth = {}, {}
            for i in order.get(k, ()):
                j = up[i]
                e = facets[j][i]
                t[i], step[i] = {j: e}, {}
                for f, v in facets[j].items():
                    if f != i:
                        _row_axpy(t[i], t[f], -e * v)
                        _row_axpy(p[i], p[f], -e * v)
                        if f in up:
                            step[i][f] = -v * facets[up[f]][f]
                depth[i] = 1 + max(map(depth.get, step[i]), default=0)
            self._P[k] = transpose_rows(p, n_k)
            self._T[k] = transpose_rows(t, K.n_simplices(k + 1))
            t_low = t
            # phi^s = phi^(s+1) once phi^s kills every cell matched
            # downward, and not before: the exponent is the longest run of
            # nonzero iterates phi^i j.  Entries can cancel, so the path
            # depth only bounds the run; iterate from the deepest cell on
            for i in sorted(depth, key=depth.get, reverse=True):
                if depth[i] <= self.stabilization_exponent:
                    break
                w, s = {i: 1}, 0
                while w:
                    w, s = mul_rows([w], step)[0], s + 1
                self.stabilization_exponent = max(self.stabilization_exponent, s)

    # -- chain operators -------------------------------------------------
    def project(self, z: Chain) -> Chain:
        return Chain.from_scaled(z.degree, scaled_product(self._P[z.degree], z.form))

    def homotopy(self, z: Chain) -> Chain:
        """Degree-raising map T with boundary T + T boundary = 1 - P."""
        return Chain.from_scaled(z.degree + 1, scaled_product(self._T[z.degree], z.form))

    # -- cochain operators (transposes) ----------------------------------
    def project_cochain(self, u: Cochain) -> Cochain:
        n = self.K.n_simplices(u.degree)
        return Cochain.from_scaled(u.degree, scaled_product(self._P[u.degree], u.form, n))

    def homotopy_cochain(self, u: Cochain) -> Cochain:
        """Degree-lowering transpose of T; pairs with delta like 1 - P."""
        k = u.degree - 1
        return Cochain.from_scaled(k, scaled_product(self._T[k], u.form, self.K.n_simplices(k)))

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
