"""Exact linear algebra: Smith form, sparse kernels, rational elimination."""

import dataclasses
import hashlib
import heapq
import random
from fractions import Fraction
from math import isqrt, lcm

import pytest

from diffchar import characters, cli, exact
from diffchar.builders import build_space
from diffchar.characters import character_table
from diffchar.cohomology import (
    AbelianGroupStructure,
    LatticeQuotient,
    coboundary_smith_form,
    cohomology_generators,
    integer_cohomology,
    integer_homology,
    kunneth_structure,
)
from diffchar.exact import (
    RatElim,
    ScaledVector,
    SymmetricSolver,
    add_rows,
    gram_rows,
    mul_rows,
    rat_nullspace,
    rows_to_dense,
    scaled_product,
    smith_normal_form,
    sparse_product,
    transpose_rows,
)
from diffchar.hodge import HodgeContext, spark_from_cocycle
from diffchar.sparks import Spark, periods, spark_equivalent
from oracles import (
    by_value,
    dense_to_rows,
    elementwise_product,
    fraction_coords,
    fraction_is_integral,
    fraction_periods,
    fraction_product,
    fraction_smith_solve,
    kernel_basis,
    ldl_mod_rowwise,
    plant_coefficient,
    rat_rank,
    typed_by_value,
    varied_weights,
)
from test_top_degree import FROZEN_SNF


def matmul(A, B):
    return [
        [sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def dense_snf(A):
    """The Smith form of a dense matrix with at least one row."""
    return smith_normal_form(dense_to_rows(A), ncols=len(A[0]))


def assert_valid_snf(A, s):
    """Full certificate: U A V = D, transforms unimodular, chain divides."""
    m, n = s.nrows, s.ncols
    U = rows_to_dense(s.U_rows, m)
    Uinv = rows_to_dense(transpose_rows(s.UinvT_rows, m), m)
    V = rows_to_dense(transpose_rows(s.VT_rows, n), n)
    Vinv = rows_to_dense(s.Vinv_rows, n)
    D = [[s.diag[i] if i == j < s.rank else 0 for j in range(n)] for i in range(m)]
    assert matmul(matmul(U, A), V) == D
    assert matmul(U, Uinv) == eye(len(A))
    assert matmul(V, Vinv) == eye(len(A[0]))
    assert all(d > 0 for d in s.diag)
    for a, b in zip(s.diag, s.diag[1:]):
        assert b % a == 0


class TestSmith:
    def test_diag_2_3(self):
        s = dense_snf([[2, 0], [0, 3]])
        assert_valid_snf([[2, 0], [0, 3]], s)
        assert s.diag == [1, 6]

    def test_zero_matrix(self):
        s = dense_snf([[0, 0], [0, 0], [0, 0]])
        assert s.rank == 0
        assert s.diag == []
        assert len(kernel_basis(s)) == 2

    def test_single_entry(self):
        s = dense_snf([[-7]])
        assert s.diag == [7]

    def test_determinant_conservation(self):
        A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        s = dense_snf(A)
        assert_valid_snf(A, s)
        prod = 1
        for d in s.diag:
            prod *= d
        # |det A| computed by cofactor expansion: 624
        assert prod == 624

    def test_random_matrices(self):
        rng = random.Random(17)
        for _ in range(150):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            A = [[rng.randint(-7, 7) for _ in range(m)] for _ in range(n)]
            s = dense_snf(A)
            assert_valid_snf(A, s)

    def test_kernel_annihilates(self):
        rng = random.Random(5)
        for _ in range(60):
            n, m = rng.randint(1, 5), rng.randint(2, 6)
            A = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
            s = dense_snf(A)
            assert len(kernel_basis(s)) == m - s.rank
            for vec in kernel_basis(s):
                assert all(
                    sum(r[j] * vec[j] for j in range(m)) == 0 for r in A
                )

    def test_int_solve_round_trip(self):
        rng = random.Random(11)
        for _ in range(80):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            A = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
            x = [rng.randint(-6, 6) for _ in range(m)]
            b = [sum(r[j] * x[j] for j in range(m)) for r in A]
            sol = dense_snf(A).solve(ScaledVector(1, b))
            assert sol is not None
            sol = sol.entries()
            assert all(type(v) is int for v in sol)
            assert [sum(r[j] * sol[j] for j in range(m)) for r in A] == b

    def test_int_solve_detects_non_integral(self):
        # 2x = 1 has no integer solution, only a rational one
        assert dense_snf([[2]]).solve(ScaledVector.of([1])).entries() == [Fraction(1, 2)]
        assert dense_snf([[2]]).solve(ScaledVector.of([Fraction(4)])).entries() == [2]

    def test_int_solve_detects_inconsistent(self):
        A = [[1, 1], [1, 1]]
        assert dense_snf(A).solve(ScaledVector.of([0, 1])) is None
        assert dense_snf(A).solve(ScaledVector.of([0, Fraction(1, 2)])) is None

    def test_sparse_input(self):
        s = smith_normal_form([{0: 2}, {1: 3}], ncols=2)
        assert s.diag == [1, 6]


def full_scan_pivot(worker, t):
    """Reference pivot rule: scan the whole active submatrix (rows/cols >= t).

    The unit entry with the least (cost, col, row) wins, cost being the
    Markowitz count (len(row) - 1) * (len(col) - 1); without a unit, the
    entry with the least (|v|, cost, col, row).
    """
    best = None
    best_unit = None
    for i in range(t, worker.nrows):
        for j, v in worker.rows[i].items():
            if j < t:
                continue
            cost = (len(worker.rows[i]) - 1) * (len(worker.cols[j]) - 1)
            key = (cost, j, i)
            if v == 1 or v == -1:
                if best_unit is None or key < best_unit[0]:
                    best_unit = (key, i, j)
            else:
                mkey = (abs(v), cost, j, i)
                if best is None or mkey < best[0]:
                    best = (mkey, i, j)
    if best_unit is not None:
        return best_unit[1], best_unit[2]
    if best is not None:
        return best[1], best[2]
    return None


@pytest.fixture
def pivot_oracle(monkeypatch):
    """Check every pivot the worker picks against the full scan.

    Returns a dict counting the steps checked, and how many of them had
    no unit entry left.
    """
    seen = {"steps": 0, "non_unit": 0}
    picked = exact._SnfWorker._find_pivot

    def checked(worker, t):
        want = full_scan_pivot(worker, t)
        got = picked(worker, t)
        assert got == want, f"step {t}: queue picked {got}, full scan {want}"
        seen["steps"] += 1
        if got is not None and abs(worker.rows[got[0]][got[1]]) != 1:
            seen["non_unit"] += 1
        return got

    monkeypatch.setattr(exact._SnfWorker, "_find_pivot", checked)
    return seen


@pytest.fixture
def heap_counter(monkeypatch):
    """Count the pops and rebuilds of the Smith-form pivot heap.

    ``peak`` is the largest heap length seen since the test last reset
    it.  The first heapify of a worker's heap builds it; every later one
    is a rebuild.
    """
    seen = {"pop": 0, "rebuilds": 0, "peak": 0}
    built = []  # the heaps seen so far, kept alive so identities stay unique

    def push(heap, key):
        heapq.heappush(heap, key)
        seen["peak"] = max(seen["peak"], len(heap))

    def pop(heap):
        seen["pop"] += 1
        return heapq.heappop(heap)

    def heapify(heap):
        heapq.heapify(heap)
        if any(h is heap for h in built):
            seen["rebuilds"] += 1
        else:
            built.append(heap)
        seen["peak"] = max(seen["peak"], len(heap))

    monkeypatch.setattr(exact, "heappush", push)
    monkeypatch.setattr(exact, "heappop", pop)
    monkeypatch.setattr(exact, "heapify", heapify)
    return seen


def random_snf_rows(rng):
    """Random sparse integer rows: units and larger entries, zero rows and
    columns, some rank-deficient, some without any unit entry."""
    n, m = rng.randint(1, 12), rng.randint(1, 12)
    values = (-1, 1) * 3 + (-6, -3, -2, 2, 3, 4, 5)
    if rng.random() < 0.1:
        values = (-6, -4, -2, 2, 3, 4, 9)
    density = rng.choice((0.15, 0.3, 0.5))
    rows = [
        {j: rng.choice(values) for j in range(m) if rng.random() < density}
        for _ in range(n)
    ]
    if n >= 3 and rng.random() < 0.3:
        a, b = rng.randint(-2, 2), rng.randint(1, 3)
        comb = {j: a * rows[0].get(j, 0) + b * rows[1].get(j, 0) for j in range(m)}
        rows[-1] = {j: v for j, v in comb.items() if v}
    if rng.random() < 0.2:
        rows[rng.randrange(n)] = {}
    return rows, m


class TestPivotQueue:
    """The kept pivot queue picks exactly what a full rescan would."""

    def test_random_sparse(self, pivot_oracle):
        rng = random.Random(53)
        for _ in range(200):
            rows, m = random_snf_rows(rng)
            dense = [[r.get(j, 0) for j in range(m)] for r in rows]
            assert_valid_snf(dense, smith_normal_form(rows, ncols=m))
        assert pivot_oracle["steps"] > 600
        assert pivot_oracle["non_unit"] > 100

    @pytest.mark.parametrize("space", ["rp3", "cp2", "lens:5,2"])
    def test_coboundaries_and_relations(self, pivot_oracle, heap_counter, space):
        # a fresh complex: every delta_k, boundary and relation matrix is
        # reduced through the checked worker, heap rebuilds included
        K = build_space(space)
        for k in range(-1, K.dimension + 2):
            integer_cohomology(K, k)
            integer_homology(K, k)
        assert pivot_oracle["steps"] > 0
        assert heap_counter["rebuilds"] > 0

    def test_heap_bounded_by_live_keys(self, heap_counter):
        # lazy deletion alone lets stale keys pile up: with no rebuild the
        # heap reached 21 times the unit entries of lens:7,2 delta_0, and
        # these six Smith forms popped 212,246 keys
        for space in ("lens:5,2", "lens:7,2"):
            K = build_space(space)
            for k in range(K.dimension + 1):
                units = sum(
                    v in (1, -1) for row in K.delta_rows(k) for v in row.values()
                )
                heap_counter["peak"] = 0
                coboundary_smith_form(K, k)
                assert heap_counter["peak"] <= 3 * units, (space, k)
        assert heap_counter["pop"] <= 212246 // 4


# sha256 of repr((rank, diag, U_rows, UinvT_rows, VT_rows, Vinv_rows)) over
# snfA and snfW of integer_cohomology then integer_homology, degrees
# 0..dim, frozen from the full-scan pivot search
FROZEN_TRANSFORMS = {
    "rp3": "0ca0bd40d5d79a167b2ed7ec7f60fcc7b6067cb0cecde3fedbb9a053c5e2770e",
    "lens:5,2": "4e0f386f45426c2741c103cc0206bb32638889fc8a191fa98fa38b58c94ae308",
}


@pytest.mark.parametrize("space", sorted(FROZEN_TRANSFORMS))
def test_smith_transforms_frozen(space):
    K = build_space(space)
    h = hashlib.sha256()
    for k in range(K.dimension + 1):
        for q in (integer_cohomology(K, k), integer_homology(K, k)):
            for s in (q.snfA, q.snfW):
                h.update(repr(
                    (s.rank, s.diag, s.U_rows, s.UinvT_rows, s.VT_rows, s.Vinv_rows)
                ).encode())
    assert h.hexdigest() == FROZEN_TRANSFORMS[space]


# sha256 of repr((rank, diag, row_ops, col_ops)) over every Smith form of
# integer_cohomology then integer_homology, degrees -1..dim+1, on each of
# OP_LOG_SPACES in turn, then of 300 random_snf_rows matrices (seed 61),
# which have non-unit pivots, steps with no unit entry and leftover swaps;
# frozen from the elimination before its per-step bookkeeping was rewritten
OP_LOG_SPACES = ("lens:5,2", "lens:7,2", "rp3", "cp2", "torus_grid5")
FROZEN_OP_LOGS = "c5397ad5ca13fab53fd6a241c04beaeee41e45aecf784da76ec453463850d252"


def test_smith_op_logs_frozen():
    h = hashlib.sha256()
    for space in OP_LOG_SPACES:
        K = build_space(space)
        for k in range(-1, K.dimension + 2):
            for q in (integer_cohomology(K, k), integer_homology(K, k)):
                for s in (q.snfA, q.snfW):
                    h.update(repr((s.rank, s.diag, s.row_ops, s.col_ops)).encode())
    rng = random.Random(61)
    for _ in range(300):
        rows, m = random_snf_rows(rng)
        s = smith_normal_form(rows, ncols=m)
        h.update(repr((s.rank, s.diag, s.row_ops, s.col_ops)).encode())
    assert h.hexdigest() == FROZEN_OP_LOGS


def test_character_table_builds_only_vinv():
    # a character table reads V^{-1} of the delta_k Smith forms and no
    # transform of a relation Smith form; the others stay an unreplayed log
    K = build_space("lens:5,2")
    character_table(K)
    deltas = [s for key, s in K._cache.items() if key[0] == "snf_delta"]
    assert len(deltas) == K.dimension + 1
    assert {name for s in deltas for name in s.built} == {"Vinv_rows"}
    relations = [
        q.snfW for key, q in K._cache.items()
        if key[0] == "H_int" and not any(q.snfW is s for s in deltas)
    ]
    assert len(relations) == K.dimension
    assert all(not s.built for s in relations)
    # read now, every transform is the one frozen from eager updates
    h = hashlib.sha256()
    for k in range(-1, K.dimension + 2):
        for q in (integer_cohomology(K, k), integer_homology(K, k)):
            for s in (q.snfA, q.snfW):
                h.update(repr(
                    (s.rank, s.diag, s.U_rows, s.UinvT_rows, s.VT_rows, s.Vinv_rows)
                ).encode())
    assert h.hexdigest() == FROZEN_SNF["lens:5,2"]


def _count_smith_forms(monkeypatch):
    """(nrows, ncols, rank, row ops, column ops) of each Smith form formed
    from now on, counting the elementary operations each side logged."""
    formed = []
    run = exact._SnfWorker.run

    def counted(self):
        snf = run(self)
        formed.append(
            (snf.nrows, snf.ncols, snf.rank, len(snf.row_ops) // 3, len(snf.col_ops) // 3)
        )
        return snf

    monkeypatch.setattr(exact._SnfWorker, "run", counted)
    return formed


def test_tables_smith_forms_frozen(monkeypatch, capsys):
    # the tables entry of the Smith-form ledger; smith_ledger imports
    # this module, so it is imported here
    from smith_ledger import frozen_entries

    formed = _count_smith_forms(monkeypatch)
    assert cli.main(["tables", "--space", "lens:5,2"]) == 0
    capsys.readouterr()
    assert formed == frozen_entries("tables lens:5,2")


def test_cycle_lattices_form_no_homology_smith_form(monkeypatch):
    # periods, spark equivalence, the fundamental cycle and the top-degree
    # harmonics read their cycles off the cached Smith forms of delta_0..2;
    # the only others are H^2's relation matrix (for d2_class) and the
    # empty delta_3 of H^3 (for the free generators of the harmonics)
    formed = _count_smith_forms(monkeypatch)
    K = build_space("rp3")
    for k in range(K.dimension + 1):
        periods(K, K.zero_cochain(k))
    zero = Spark(K.zero_cochain(1), K.zero_cochain(2))
    exact_shift = Spark(K.delta(K.cochain(0, range(K.n_vertices))), K.zero_cochain(2))
    assert spark_equivalent(K, zero, exact_shift)
    assert K.fundamental_cycle() is not None
    assert len(HodgeContext(K).harmonic_basis(3)) == 1
    assert not [key for key in K._cache if key[0] == "H_int_chain"]
    assert len(formed) == 5
    assert sum(1 for key in K._cache if key[0] == "snf_delta") == 4


@pytest.mark.parametrize("space", ["rp3", "lens:5,2"])
def test_torsion_charge_spark_forms_no_smith_form_of_h1(monkeypatch, space):
    # b_1 = 0 is read off H^2's relation matrix and delta_0, so the spark
    # of the degree-2 torsion generator adds only delta_0's Smith form
    formed = _count_smith_forms(monkeypatch)
    K = build_space(space)
    _, ((_, g, _),) = cohomology_generators(K, 2)
    before = len(formed)
    spark_from_cocycle(K, g)
    assert [f[:3] for f in formed[before:]] == [
        (K.n_simplices(1), K.n_simplices(0), K.n_vertices - 1)
    ]
    assert ("H_int", 1) not in K._cache and ("snf_delta", 1) not in K._cache
    # the top degree projects through H^2, whose A is the Smith form of
    # delta_2 that H^3 holds: only H^2's relation matrix is new
    K = build_space(space)
    (top,), _ = cohomology_generators(K, 3)
    before = len(formed)
    spark_from_cocycle(K, top)
    H2 = integer_cohomology(K, 2)
    assert [f[:3] for f in formed[before:]] == [(H2.kernel_dim, K.n_simplices(1), H2.kernel_dim)]
    assert ("snf_delta", 1) not in K._cache


def test_smith_transforms_are_read_only():
    s = dense_snf([[2, 4], [6, 8]])
    with pytest.raises(AttributeError):
        s.U_rows = []
    assert s.U_rows is s.U_rows


def test_smith_diag_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(59)
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.choice((0, 0, 1, -1, 2, -3, 4, 6)) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.2:
            A[-1] = [2 * a for a in A[0]]
        D = sympy_snf(sympy.Matrix(A), domain=sympy.ZZ)
        oracle = [abs(int(D[i, i])) for i in range(min(n, m)) if D[i, i] != 0]
        assert dense_snf(A).diag == oracle


def _axpy_count(ops):
    return sum(1 for t in range(2, len(ops), 3) if ops[t])


@pytest.mark.parametrize("space", ["rp3", "lens:5,2"])
def test_smith_certificate_catches_planted_faults(monkeypatch, space):
    # check 7 certifies the Smith form of each delta_k.  On every delta_k
    # with an axpy on a side, a copy with the first, middle or last axpy
    # coefficient of that side off by one breaks U delta = D V^{-1}, and a
    # copy whose U^{-1 T} is replayed as U^T breaks U U^{-1} = I; each
    # fails with its degree and identity, and the true form passes
    K = build_space(space)
    planted = set()
    for k in range(K.dimension + 1):
        snf = coboundary_smith_form(K, k)
        faults = [(snf, None)]
        for side in ("row_ops", "col_ops"):
            n = _axpy_count(getattr(snf, side))
            for at in sorted({0, n // 2, n - 1} if n else ()):
                faults.append((plant_coefficient(snf, side, at), "U delta != D V^-1"))
                planted.add((k, side))
        if _axpy_count(snf.row_ops):
            swapped = dataclasses.replace(snf)
            swapped.built["UinvT_rows"] = transpose_rows(snf.U_rows, snf.nrows)
            faults.append((swapped, "U U^-1 != I"))
        for form, identity in faults:
            monkeypatch.setattr(characters, "coboundary_smith_form", lambda K, j: form)
            got = characters._broken_identity(build_space(space), k)
            assert got == (identity and f"delta_{k}: {identity}"), (k, identity)
    # delta_0..2 carry axpys on both sides; delta_3 has no rows
    assert planted == {(k, side) for k in range(3) for side in ("row_ops", "col_ops")}


def test_smith_certificate_names_each_identity():
    # hand-made forms, each breaking one identity of the certificate
    def form(rows, ncols, rank, diag, row_ops=(), col_ops=()):
        return exact.SmithDecomposition(len(rows), ncols, rank, diag, row_ops, col_ops), rows

    # row 1 -= 2 row 0 takes [[2, 0], [4, 2]] to diag(2, 2)
    snf, rows = form([{0: 2}, {0: 4, 1: 2}], 2, 2, [2, 2], [1, 0, -2])
    assert snf.broken_identity(rows) is None
    cases = [
        # row 1 -= 2 row 0 logged as row 1 -= 3 row 0
        ("U delta != D V^-1", form([{0: 2}, {0: 4, 1: 2}], 2, 2, [2, 2], [1, 0, -3])),
        # 2 does not divide 3
        ("not 0 < d_1 | ... | d_r", form([{0: 2}, {1: 3}], 2, 2, [2, 3])),
        # a zero on the diagonal claims a rank the matrix does not have
        ("not 0 < d_1 | ... | d_r", form([{0: 1}, {}], 2, 2, [1, 0])),
    ]
    for identity, (snf, rows) in cases:
        assert snf.broken_identity(rows) == identity
    snf, rows = form([{0: 1, 1: 1}], 2, 1, [1], col_ops=[1, 0, -1])
    assert snf.broken_identity(rows) is None
    snf.built["VT_rows"] = snf.Vinv_rows  # V read as V^{-1 T}
    assert snf.broken_identity(rows) == "V^-1 V != I"
    snf, rows = form([{0: 1}, {0: 1}], 1, 1, [1], row_ops=[1, 0, -1])
    snf.built["UinvT_rows"] = snf.U_rows  # U^{-1} read as U^T
    assert snf.broken_identity(rows) == "U U^-1 != I"


@pytest.mark.parametrize("space", ["rp3", "cp2"])
def test_smith_certificate_keeps_no_transform(space):
    # the certificate replays what no reader has built for the check
    # alone: each delta_k Smith form keeps exactly what it held before
    K = build_space(space)
    character_table(K)
    for k in range(K.dimension + 1):
        snf = coboundary_smith_form(K, k)
        before = dict(snf.built)
        assert characters._broken_identity(K, k) is None
        assert snf.built.keys() == before.keys()
        assert all(snf.built[name] is rows for name, rows in before.items())
        # and certified against the transforms built by reading each one
        for name in ("U_rows", "UinvT_rows", "VT_rows", "Vinv_rows"):
            getattr(snf, name)
        assert snf.broken_identity(K.delta_rows(k)) is None


class TestSparseKernels:
    def test_against_dense(self):
        rng = random.Random(5)
        for _ in range(40):
            n, m, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            A = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(m)] for _ in range(n)]
            B = [[rng.choice((0, 0, 1, -1, 3)) for _ in range(p)] for _ in range(m)]
            C = [[rng.choice((0, 1, -2)) for _ in range(m)] for _ in range(n)]
            rA, rB, rC = dense_to_rows(A), dense_to_rows(B), dense_to_rows(C)
            assert mul_rows(rA, rB) == dense_to_rows(matmul(A, B))
            assert add_rows(rA, rC) == dense_to_rows(
                [[a + c for a, c in zip(ra, rc)] for ra, rc in zip(A, C)]
            )
            vec = [rng.randint(-3, 3) for _ in range(n)]
            AT = [list(col) for col in zip(*A)]
            assert scaled_product(rA, ScaledVector(1, vec), m).entries() == [
                sum(a * x for a, x in zip(row, vec)) for row in AT
            ]
            w = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
            WA = [[wi * a for a in row] for wi, row in zip(w, A)]
            gram = matmul(AT, WA)
            for i, row in enumerate(gram_rows(rA, m, w)):
                assert [row.get(j, 0) for j in range(m)] == gram[i]


class TestRatElim:
    def test_solve_and_nullspace_dimensions(self):
        rng = random.Random(23)
        for _ in range(80):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            A = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
            rows = dense_to_rows(A)
            assert rat_rank(rows, m) + len(rat_nullspace(rows, m)) == m

    def test_solution_round_trip(self):
        rng = random.Random(29)
        for _ in range(80):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            A = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
            x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
            b = [sum(r[j] * x[j] for j in range(m)) for r in A]
            sol = RatElim(dense_to_rows(A), m, rhs=[b]).solution()
            assert sol is not None
            assert [sum(r[j] * sol[j] for j in range(m)) for r in A] == b

    def test_inconsistent_detected(self):
        rows = dense_to_rows([[1, 1], [2, 2]])
        elim = RatElim(rows, 2, rhs=[[1, 3], [1, 2]])
        assert elim.solution(0) is None
        assert elim.solution(1) == [Fraction(1), Fraction(0)]

    def test_nullspace_annihilates(self):
        A = [[1, 2, 3], [4, 5, 6]]
        null = rat_nullspace(dense_to_rows(A), 3)
        assert len(null) == 1
        for r in A:
            assert sum(a * x for a, x in zip(r, null[0])) == 0

    def test_multiple_rhs(self):
        A = dense_to_rows([[2, 1], [1, 1]])
        elim = RatElim(A, 2, rhs=[[1, 0], [0, 1]])
        inv_cols = [elim.solution(0), elim.solution(1)]
        assert inv_cols[0] == [Fraction(1), Fraction(-1)]
        assert inv_cols[1] == [Fraction(-1), Fraction(2)]

    def test_fractional_rows(self):
        rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(3, 4)}]
        x = RatElim(rows, 2, rhs=[[Fraction(5, 6), 3]]).solution()
        assert x == [Fraction(4), Fraction(-7, 2)]

    def test_outputs_are_fractions(self):
        elim = RatElim(dense_to_rows([[2, 1, 0], [0, 3, 3]]), 3, rhs=[[1, 1]])
        assert all(type(v) is Fraction for v in elim.solution())
        assert all(type(v) is Fraction for vec in elim.nullspace() for v in vec)


def random_sparse_rows(rng, n, m, fractional=False, density=0.4):
    """Random sparse rows; with probability 0.35 the last row is a
    combination of the first two, so the matrix is rank-deficient."""
    dens = (1, 2, 3, 6) if fractional else (1,)
    rows = []
    for _ in range(n):
        row = {}
        for j in range(m):
            if rng.random() < density:
                v = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 5)), rng.choice(dens))
                row[j] = v if v.denominator != 1 else v.numerator
        rows.append(row)
    if n >= 3 and rng.random() < 0.35:
        a, b = rng.randint(-2, 2), Fraction(rng.randint(1, 3), rng.choice(dens))
        comb = {j: a * rows[0].get(j, 0) + b * rows[1].get(j, 0) for j in range(m)}
        rows[-1] = {j: v for j, v in comb.items() if v}
    return rows


class TestRatElimOracle:
    """RatElim against sympy's dense rational linear algebra."""

    @pytest.fixture(scope="class")
    def sympy(self):
        return pytest.importorskip("sympy")

    def cases(self, seed, count=60):
        rng = random.Random(seed)
        for i in range(count):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            yield rng, m, random_sparse_rows(rng, n, m, fractional=i % 2 == 1)

    def matrix(self, sympy, rows, m):
        return sympy.Matrix(
            [[sympy.Rational(str(Fraction(r.get(j, 0)))) for j in range(m)] for r in rows]
        )

    def test_rank(self, sympy):
        for _, m, rows in self.cases(41):
            assert RatElim(rows, m).rank == self.matrix(sympy, rows, m).rank()

    def test_nullspace_spans_oracle(self, sympy):
        for _, m, rows in self.cases(43):
            A = self.matrix(sympy, rows, m)
            ours = RatElim(rows, m).nullspace()
            oracle = A.nullspace()
            assert len(ours) == len(oracle)
            if not ours:
                continue
            N = sympy.Matrix([[sympy.Rational(str(v)) for v in vec] for vec in ours]).T
            assert (A * N).is_zero_matrix
            assert N.rank() == len(ours)
            assert N.row_join(sympy.Matrix.hstack(*oracle)).rank() == len(ours)

    def test_solution_exact(self, sympy):
        for rng, m, rows in self.cases(47):
            A = self.matrix(sympy, rows, m)
            n = len(rows)
            x0 = [sympy.Rational(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)]
            consistent_b = list(A * sympy.Matrix(x0))
            other_b = [sympy.Rational(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            bs = [[Fraction(str(v)) for v in b] for b in (consistent_b, other_b)]
            elim = RatElim(rows, m, rhs=bs)
            for i, b in enumerate(bs):
                x = elim.solution(i)
                solvable = A.rank() == A.row_join(sympy.Matrix(b)).rank()
                if not solvable:
                    assert x is None
                    continue
                assert x is not None
                assert [sum(r.get(j, 0) * x[j] for j in range(m)) for r in rows] == b


# the first 13 primes, and the least n that is a strong pseudoprime to all
# of them is at least this bound (Sorenson and Webster, Math. Comp. 86, 2017)
SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
SPRP_PROOF_BOUND = 3_317_044_064_679_887_385_961_981


def strong_probable_prime(n, bases=SPRP_BASES):
    """Whether n passes the strong probable-prime test to every base."""
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestSymmetricSolver:
    """SymmetricSolver against RatElim on normal systems A^T W A x = A^T W u.

    The solutions may differ by a kernel vector; A x, the exact part of
    u, may not.
    """

    def normal_systems(self, rng):
        """(A, columns of A, weights of the rows of A)."""
        for _ in range(80):
            n, m = rng.randint(1, 9), rng.randint(1, 7)
            w = [Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(n)]
            yield random_sparse_rows(rng, n, m), m, w
        for name in ("torus", "rp2", "cp2"):
            K = build_space(name)
            w = varied_weights(K, rng)
            for k in range(K.dimension):
                yield K.delta_rows(k), K.n_simplices(k), w[k + 1]

    def test_exact_part_matches_ratelim(self):
        rng = random.Random(53)
        kernels = 0
        for A, m, w in self.normal_systems(rng):
            N = gram_rows(A, m, w)
            bs = []
            for _ in range(3):
                u = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in A]
                wu = ScaledVector.of([a * x for a, x in zip(w, u)])
                bs.append(scaled_product(A, wu, m).entries())
            solver, elim = SymmetricSolver(N), RatElim(N, m, rhs=bs)
            kernels += elim.rank < m
            for i, b in enumerate(bs):
                x = solver.solve(ScaledVector.of(b)).entries()
                assert typed_by_value(x)
                assert list(elementwise_product(N, x)) == b
                assert elementwise_product(A, x) == elementwise_product(A, elim.solution(i))
        assert kernels > 40

    @pytest.mark.parametrize("rows", [
        # rank 1 modulo 3: the second row vanishes with the first pivot
        [{0: 2, 1: 1}, {0: 1, 1: 2}],
        # a zero pivot modulo 3 in a nonzero row
        [{0: 3, 1: 1}, {0: 1, 1: 1}],
    ])
    def test_unlucky_prime_gives_way_to_the_next(self, monkeypatch, rows):
        monkeypatch.setattr(exact, "PRIMES", (3,) + exact.PRIMES)
        solver = SymmetricSolver(rows)
        for b in ([1, 0], [0, Fraction(1, 5)]):
            assert solver.solve(ScaledVector.of(b)).entries() == RatElim(rows, 2, rhs=[b]).solution()
        assert list(solver._factors) == [3, exact.PRIMES[1]]

    def test_every_prime_is_prime(self):
        # pow(d, -1, p) in _ldl_mod and the p-adic lift assume a prime p;
        # a strong probable prime to the first 13 prime bases is prime
        # below SPRP_PROOF_BOUND (Sorenson and Webster, Math. Comp. 86, 2017)
        assert len(SPRP_BASES) == 13
        assert all(strong_probable_prime(p) for p in exact.PRIMES)
        assert all(p < SPRP_PROOF_BOUND for p in exact.PRIMES)
        assert len(set(exact.PRIMES)) == len(exact.PRIMES)

    def test_strong_probable_prime_refuses_composites(self):
        # 3215031751 = 151 * 751 * 28351 passes the bases 2, 3, 5 and 7
        # and fails 11; every other composite below 10^4 fails too
        n = 3215031751
        assert n == 151 * 751 * 28351
        assert strong_probable_prime(n, (2, 3, 5, 7))
        assert not strong_probable_prime(n)
        small = [q for q in range(10_000) if strong_probable_prime(q)]
        assert small == [q for q in range(2, 10_000) if all(q % d for d in range(2, isqrt(q) + 1))]

    def test_premature_reconstruction_refused(self):
        # 3 q = 1 modulo p, so after one lift 1/q reads 3, a small
        # rational that the exact check must refuse
        q = (2 * exact.PRIMES[0] + 1) // 3
        assert 3 * q % exact.PRIMES[0] == 1
        assert SymmetricSolver([{0: q}]).solve(ScaledVector(1, [1])).entries() == [Fraction(1, q)]

    def test_inconsistent_rhs_refused(self):
        K = build_space("torus")
        N = gram_rows(K.delta_rows(0), K.n_simplices(0))
        solver = SymmetricSolver(N)
        # N is singular on the constants, so a unit vector is no A^T u
        with pytest.raises(ValueError, match="inconsistent"):
            solver.solve(ScaledVector(1, [1] + [0] * (len(N) - 1)))
        assert list(solver._factors) == list(exact.PRIMES)
        rows = [{0: 1, 1: 1}, {0: 1, 1: 1}]
        with pytest.raises(ValueError, match="inconsistent"):
            SymmetricSolver(rows).solve(ScaledVector(1, [1, 0]))
        assert SymmetricSolver(rows).solve(ScaledVector(1, [2, 2])).entries() == [2, 0]

    def test_empty_system(self):
        assert SymmetricSolver([]).solve(ScaledVector(1, [])).entries() == []

    @pytest.mark.parametrize("name", ["torus", "rp2", "rp3", "cp2", "torus_grid5", "genus2"])
    def test_symmetric_updates_keep_the_rowwise_steps(self, name):
        # pivots, d^{-1} and the order of every column match the routine
        # that updates (i, j) and (j, i) apart, for every prime, on the
        # full and the gauged normal systems, uniform and varied weights
        K = build_space(name)
        weights = varied_weights(K, random.Random(4))
        for k in range(K.dimension):
            for w in (None, weights):
                w_up = None if w is None else w[k + 1]
                solvers = [SymmetricSolver(gram_rows(K.delta_rows(k), K.n_simplices(k), w_up)),
                           HodgeContext(K, w)._normal(k)[2]]
                for solver in solvers:
                    for p in exact.PRIMES:
                        assert exact._ldl_mod(solver.rows, p) == ldl_mod_rowwise(solver.rows, p)


def invariant_factors(orders):
    """The invariant-factor chain of a sum of cyclic groups, as
    kunneth_structure reads it off the Smith form: Z tensor the sum."""
    Z, T = AbelianGroupStructure(1), AbelianGroupStructure(0, tuple(orders))
    return list(kunneth_structure([Z], [T], 0).torsion)


class TestInvariantFactors:
    def test_coprime_merge(self):
        assert invariant_factors([2, 3]) == [6]

    def test_mixed(self):
        assert invariant_factors([2, 2, 4, 3]) == [2, 2, 12]

    def test_empty(self):
        assert invariant_factors([]) == []

    def test_chain_divides(self):
        rng = random.Random(7)
        for _ in range(40):
            orders = [rng.randint(2, 30) for _ in range(rng.randint(1, 5))]
            chain = invariant_factors(orders)
            for a, b in zip(chain, chain[1:]):
                assert b % a == 0
            prod_in = 1
            for n in orders:
                prod_in *= n
            prod_out = 1
            for d in chain:
                prod_out *= d
            assert prod_in == prod_out


if __name__ == "__main__":
    pytest.main([__file__, "-v"])


# ---------------------------------------------------------------------------
# denominators cleared once: the kernels against plain Fraction arithmetic


def plain_mat_vec(rows, vec):
    """Sparse rows times dense vector, term by term (the reference)."""
    out = []
    for row in rows:
        acc = 0
        for j, v in row.items():
            x = vec[j]
            if x:
                acc += v * x
        out.append(acc)
    return out


def library_product(rows, vec, ncols=None):
    """rows @ vec (rows^T @ vec with ncols entries) by the library's kernels.

    :func:`scaled_product` on an exact vec, read back as entries;
    :func:`sparse_product` on a vec with float entries.
    """
    sv = ScaledVector.of(vec)
    if sv is None:
        return sparse_product(rows, vec, ncols)
    return scaled_product(rows, sv, ncols).entries()


def plain_transpose_apply(rows, vec, ncols):
    out = [0] * ncols
    for r, row in enumerate(rows):
        x = vec[r]
        if x:
            for c, v in row.items():
                out[c] += v * x
    return out


BIG_PRIMES = (1_000_003, 998_244_353, 2**61 - 1)


def mixed_entry(rng, kind):
    if kind == "float":
        return rng.choice((0.0, 0, rng.uniform(-3, 3)))
    choice = rng.randrange(7)
    if choice == 0:
        return 0
    if choice == 1:
        return rng.randint(-5, 5)
    if choice == 2:
        return Fraction(0)
    if choice == 3:
        return Fraction(rng.randint(-4, 4), 1)
    if choice == 4:
        return Fraction(rng.randint(-9, 9), rng.choice(BIG_PRIMES))
    if kind == "int":
        return rng.randint(-5, 5)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 12))


def mixed_vector(rng, n):
    kind = rng.choice(("mixed", "mixed", "float", "int", "fraction"))
    if kind == "int":
        return [rng.randint(-4, 4) for _ in range(n)]
    if kind == "fraction":
        return [Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(n)]
    return [mixed_entry(rng, kind) for _ in range(n)]


def assert_same_entries(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b) and a == b, (a, b)


class TestClearedDenominators:
    """Each entry of the integer kernels equals the term-by-term Fraction
    sum in value and is an int exactly when it is integral, whatever the
    types of the terms (float vectors are summed term by term)."""

    def test_mat_vec_and_transpose_apply(self):
        rng = random.Random(41)
        for _ in range(300):
            n, m = rng.randint(0, 9), rng.randint(1, 9)
            rows = [{j: int(v) for j, v in r.items()} for r in random_sparse_rows(rng, n, m)]
            vec = mixed_vector(rng, m)
            want = map(by_value, plain_mat_vec(rows, vec))
            assert_same_entries(library_product(rows, vec), list(want))
            vec_t = mixed_vector(rng, n)
            want = map(by_value, plain_transpose_apply(rows, vec_t, m))
            assert_same_entries(library_product(rows, vec_t, m), list(want))

    def test_cancelling_fractions_stay_fractions(self):
        # Fractions that cancel to an integer sum to an int: the type
        # follows the value, not the terms
        rows = [{0: 1, 1: 1}, {2: 3}, {0: 2, 2: 1}]
        vec = [Fraction(1, 3), Fraction(-1, 3), 2]
        got = scaled_product(rows, ScaledVector.of(vec)).entries()
        assert_same_entries(got, [0, 6, Fraction(8, 3)])
        assert plain_mat_vec(rows, vec) == [Fraction(0), 6, Fraction(8, 3)]
        assert_same_entries(got, [by_value(x) for x in plain_mat_vec(rows, vec)])

    def test_float_vectors_pass_unchanged(self):
        rows = [{0: 1, 1: -2}, {1: 3}]
        vec = [0.5, 0.25]
        assert_same_entries(sparse_product(rows, vec), [0.0, 0.75])
        assert_same_entries(sparse_product(rows, vec, 2), [0.5, -0.25])

    def test_ratelim_solution_against_smith_form(self):
        # right-hand sides mixing ints and Fractions, some over large
        # primes: a solution solves the system exactly in Fractions, and
        # there is none exactly when the Smith form finds none either
        rng = random.Random(43)
        seen_none = seen_solution = 0
        for _ in range(120):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            rows = random_sparse_rows(rng, n, m, fractional=rng.random() < 0.5)
            bs = [[mixed_entry(rng, "mixed") for _ in range(n)] for _ in range(3)]
            elim = RatElim(rows, m, rhs=bs)
            # the same system over the integers: each equation times the
            # lcm of its row's denominators
            scale = [lcm(*(Fraction(v).denominator for v in r.values())) for r in rows]
            snf = smith_normal_form(
                [{j: int(v * s) for j, v in r.items()} for r, s in zip(rows, scale)],
                nrows=n,
                ncols=m,
            )
            for i, b in enumerate(bs):
                x = elim.solution(i)
                if snf.solve(ScaledVector.of([v * s for v, s in zip(b, scale)])) is None:
                    assert x is None
                    seen_none += 1
                    continue
                assert all(type(v) is Fraction for v in x)
                assert [sum(v * x[j] for j, v in r.items()) for r in rows] == b
                seen_solution += 1
        assert seen_none and seen_solution


# ---------------------------------------------------------------------------
# the ScaledVector boundary of the exact kernels against plain Fractions


def random_rationals(rng, n):
    return [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7))) for _ in range(n)]


def int_rows(rng, n, m, density=0.4):
    return [{j: int(v) for j, v in r.items()} for r in random_sparse_rows(rng, n, m, density=density)]


def assert_same_solution(got, want):
    """A ScaledVector or None against the oracle's entries or None."""
    assert (got is None) == (want is None)
    if got is not None:
        assert_same_entries(got.entries(), want)


def assert_quotient_matches(Q, B, v):
    """coords and preimage of the list v against :func:`fraction_coords`.

    Returns whether v lies in the kernel of Q's A.
    """
    sv = ScaledVector.of(v)
    try:
        (free, torsion), pre = fraction_coords(Q, v)
    except ValueError:
        with pytest.raises(ValueError, match="kernel"):
            Q.coords(sv)
        return False
    got_free, got_torsion = Q.coords(sv)
    assert_same_entries(list(got_free), list(free))
    assert_same_entries(list(got_torsion), list(torsion))
    x = Q.preimage(sv)
    assert_same_solution(x, pre)
    if x is not None:
        assert fraction_product(B, x.entries()) == v
    return True


def float_bits(x):
    return (type(x), x.hex() if isinstance(x, float) else x)


class TestScaledVectorBoundary:
    """The Smith solve, lattice coordinates and preimages and the periods take
    and return ScaledVectors; read back, their entries equal a plain-Fraction
    oracle's in value and in type."""

    def test_smith_solve_on_random_systems(self):
        rng = random.Random(71)
        seen = {True: 0, False: 0}
        for _ in range(200):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            rows = int_rows(rng, n, m)
            snf = smith_normal_form(rows, ncols=m)
            for b in (fraction_product(rows, random_rationals(rng, m)), random_rationals(rng, n)):
                got = snf.solve(ScaledVector.of(b))
                assert_same_solution(got, fraction_smith_solve(snf, b))
                # None exactly when A x = b has no rational solution
                assert (got is None) == (RatElim(rows, m, rhs=[b]).solution() is None)
                if got is not None:
                    assert fraction_product(rows, got.entries()) == b
                seen[got is None] += 1
        assert all(seen.values()), seen

    def test_lattice_quotients_on_random_relations(self):
        rng = random.Random(73)
        seen = {"outside": 0, "torsion": 0, "preimage": 0, "none": 0}
        for _ in range(80):
            n, p = rng.randint(1, 6), rng.randint(1, 5)
            B = int_rows(rng, n, p, density=0.5)
            # rows annihilating the columns of B: the kernel of B^T
            left = smith_normal_form(transpose_rows(B, p), ncols=n)
            A = [row for row in left.VT_rows[left.rank:] if rng.random() < 0.7]
            Q = LatticeQuotient(A, n, B, p)
            seen["torsion"] += bool(Q.structure().torsion)
            vectors = [
                fraction_product(B, random_rationals(rng, p)),
                fraction_product(B, [rng.randint(-3, 3) for _ in range(p)]),
                [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)],
            ]
            for v in vectors:
                if not assert_quotient_matches(Q, B, v):
                    seen["outside"] += 1
                elif Q.preimage(ScaledVector.of(v)) is None:
                    seen["none"] += 1
                else:
                    seen["preimage"] += 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("name", ["rp3", "lens:5,2"])
    def test_spaces_against_fractions(self, name):
        K = build_space(name)
        rng = random.Random(79)
        seen = {"preimage": 0, "none": 0, "solve": 0, "inconsistent": 0}
        for k in range(K.dimension + 1):
            n_k = K.n_simplices(k)
            free, torsion = cohomology_generators(K, k)
            Q = integer_cohomology(K, k)
            # H^k's relation matrix, delta_{k-1}: none below degree 1
            B, n_lo = (K.delta_rows(k - 1), K.n_simplices(k - 1)) if k else ([{}] * n_k, 0)
            snf = coboundary_smith_form(K, k)
            for _ in range(3):
                # a rational cocycle: generators with rational weights plus
                # the coboundary of a rational cochain, and that coboundary
                exact = K.cochain(k, fraction_product(B, random_rationals(rng, n_lo)))
                u = exact
                for g in free + [g for _, g, _ in torsion]:
                    u = u + g.scale(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 5))))
                for v in (u, exact):
                    assert assert_quotient_matches(Q, B, list(v.values))
                    seen["none" if Q.preimage(v.form) is None else "preimage"] += 1
                b_exact = K.delta(K.cochain(k, random_rationals(rng, n_k))).values
                for b in (list(b_exact), random_rationals(rng, len(b_exact))):
                    got = snf.solve(ScaledVector.of(b))
                    assert_same_solution(got, fraction_smith_solve(snf, b))
                    seen["inconsistent" if got is None else "solve"] += 1
                w = K.cochain(k, random_rationals(rng, n_k))
                assert_same_entries(periods(K, w).entries(), fraction_periods(K, w))
        assert all(seen.values()), seen

    def test_is_integral_against_fractions(self):
        rng = random.Random(83)
        seen = {True: 0, False: 0}
        for _ in range(600):
            den = rng.choice((1, 2, 3, 4, 6, 12, 2**61 - 1))
            n = rng.randint(0, 6)
            if rng.random() < 0.5:
                # den divides every numerator, negative ones included
                nums = [den * rng.randint(-9, 9) for _ in range(n)]
            else:
                nums = [rng.randint(-30, 30) for _ in range(n)]
            sv = ScaledVector(den, nums)
            assert sv.is_integral() == fraction_is_integral(den, nums)
            assert sv.is_integral() == all(type(x) is int for x in sv.entries())
            seen[sv.is_integral()] += 1
        assert all(seen.values()), seen
        assert ScaledVector(3, [-6, 9, 0, -3]).is_integral()
        assert not ScaledVector(3, [-6, -4]).is_integral()
        assert not ScaledVector(4, [8, -2]).is_integral()
        assert ScaledVector(7, []).is_integral()

    def test_sparse_product_on_floats_sums_left_to_right(self):
        rng = random.Random(89)
        order_matters = 0

        def draw(k):
            return [
                rng.choice((0, 0.0, -0.0, rng.uniform(-1, 1), rng.uniform(-1, 1) * 1e16))
                for _ in range(k)
            ]

        for _ in range(300):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            rows = int_rows(rng, n, m, density=0.7)
            xs, ys = draw(m), draw(n)
            # each sum one term at a time, left to right: the transposed
            # product in the order of the rows
            for got, want in (
                (sparse_product(rows, xs), elementwise_product(rows, xs)),
                (sparse_product(rows, ys, m), elementwise_product(transpose_rows(rows, m), ys)),
            ):
                assert list(map(float_bits, got)) == list(map(float_bits, want))
            # the data tells the orders apart: summed right to left, some
            # entries come out other bits
            flipped = [dict(reversed(row.items())) for row in rows]
            order_matters += list(map(float_bits, elementwise_product(flipped, xs))) != list(
                map(float_bits, elementwise_product(rows, xs))
            )
        assert order_matters > 20
