"""Exact integer and rational linear algebra kernels.

Pure Python over arbitrary-precision ``int`` and ``fractions.Fraction``.
Matrices live in two shapes:

* dense: list of row lists,
* sparse: list of row dicts ``{col: value}`` with zero entries absent.

The two workhorses are :func:`smith_normal_form`, whose four
unimodular transforms serve kernels, integer and rational preimages,
quotient-group coordinates and torsion witnesses downstream, and
:class:`SymmetricSolver`, which solves the symmetric positive
semidefinite systems of :class:`diffchar.hodge.HodgeContext` (the
coboundary normal matrices on their Morse gauges and the harmonic Gram
systems): an L D L^T factorization modulo a prime, p-adic lifting and
rational reconstruction, and an exact integer check of every solution
it returns.  Every kernel, preimage and rank comes from a Smith form
(check 7 of :mod:`diffchar.characters` certifies the ranks); only
``perfbench`` and the tests build :class:`RatElim`, a sparse Gauss-Jordan.

Exact vectors have one representation, :class:`ScaledVector`: integer
numerators over one common denominator L.  Chains and cochains keep
their values in it, and every exact kernel takes and returns it: the
one sparse product, :func:`scaled_product`, the Smith-form solve and
:class:`SymmetricSolver`.  Every product and sum is an int one, and no
``Fraction`` is built.  An entry is built only when it is read, and its
type follows its value alone: the int ``n // L`` when L divides n, else
``Fraction(n, L)``; :meth:`ScaledVector.is_integral` is the one test of
integrality.  Under :func:`scaled_product` is the term-by-term product
:func:`sparse_product`, which the conjugate-gradient route of the Hodge
decomposition calls on its lists of floats.  Only the right-hand sides
of :class:`RatElim` may still be lists.

Pivoting is Markowitz-style with deterministic tie-breaks, so
identical inputs give identical outputs everywhere.  The Smith form
takes the unit entry of least (Markowitz cost, col, row) from a lazy
heap kept up to date across steps, re-keying only the rows and columns
the last step changed; only when no unit entry is left does it scan for
the entry of least (|v|, cost, col, row).  Superseded keys stay in the
heap until popped, so the heap is rebuilt from the live unit keys
whenever it has grown past :data:`HEAP_SLACK` times the size of its
last rebuild; it stays within a constant multiple of the live keys, and the
pivots are the same as with no rebuild.

Clearing a Smith pivot runs a column sweep, then a row sweep while the
pivot's column holds the pivot alone, so each column step of the row
sweep changes one entry in place (see :class:`_SnfWorker`).  The order
of each sparse row's dict decides which column a leftover remainder
brings in, so the swaps keep it as well as the entries.

The Smith elimination keeps no transform up to date.  It logs its
elementary operations instead, one list for the row side and one for
the column side, and each transform is replayed from the identity on
its first read, then cached.  The replay repeats the same operations in
the same order, so a transform is the same, down to dict order, as one
kept up to date through the elimination; a caller that reads only
V^{-1} (a character table) or nothing (an invariant factor) pays for
no other transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm


# ---------------------------------------------------------------------------
# shape helpers

def rows_to_dense(rows, ncols):
    out = []
    for row in rows:
        dense = [0] * ncols
        for j, v in row.items():
            dense[j] = v
        out.append(dense)
    return out


def transpose_rows(rows, ncols):
    out = [dict() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


class ScaledVector:
    """A dense vector of ints and Fractions over one common denominator.

    Entry i has the value ``nums[i] / den`` and is typed by it: the int
    ``nums[i] // den`` when ``den`` divides ``nums[i]``, else
    ``Fraction(nums[i], den)``.  Chains and cochains keep their values in
    this form, and the kernels below read and return it.  Nobody changes
    ``nums`` after construction.
    """

    __slots__ = ("den", "nums")

    def __init__(self, den, nums):
        self.den, self.nums = den, nums

    @classmethod
    def of(cls, vec):
        """vec over the lcm of its denominators, or None.

        None when an entry is neither an int nor a ``Fraction``.
        """
        types = set(map(type, vec))
        if not types <= _EXACT_TYPES:
            return None
        if Fraction not in types:
            return cls(1, list(vec))
        dens = {x.denominator for x in vec}
        L = lcm(*dens)
        mult = {d: L // d for d in dens}
        return cls(L, [x.numerator * mult[x.denominator] for x in vec])

    def entry(self, i):
        n, den = self.nums[i], self.den
        return Fraction(n, den) if n % den else n // den

    def entries(self):
        """The list of ints and Fractions the vector stands for."""
        den = self.den
        if den == 1:
            return list(self.nums)
        return [Fraction(n, den) if n % den else n // den for n in self.nums]

    def tail(self, start):
        """The entries from ``start`` on, as a ScaledVector."""
        return ScaledVector(self.den, self.nums[start:])

    def combine(self, other, sign):
        """self + other (sign 1) or self - other (sign -1), entry by entry."""
        a, b = self.nums, other.nums
        if self.den == other.den:
            den = self.den
        else:
            den = lcm(self.den, other.den)
            ma, mb = den // self.den, den // other.den
            a = [x * ma for x in a] if ma != 1 else a
            b = [y * mb for y in b] if mb != 1 else b
        if sign > 0:
            nums = [x + y for x, y in zip(a, b)]
        else:
            nums = [x - y for x, y in zip(a, b)]
        return ScaledVector(den, nums)

    def times(self, c):
        """c times every entry, for an int or ``Fraction`` c."""
        if isinstance(c, Fraction):
            nums = [c.numerator * x for x in self.nums]
            return ScaledVector(self.den * c.denominator, nums)
        return ScaledVector(self.den, [c * x for x in self.nums])

    def mul(self, other):
        """The entry-wise product."""
        nums = [x * y for x, y in zip(self.nums, other.nums)]
        return ScaledVector(self.den * other.den, nums)

    def is_integral(self):
        """Whether every entry is an int."""
        den = self.den
        return den == 1 or all(x % den == 0 for x in self.nums)

    def same_values(self, other):
        """Whether the entries are equal in value, one by one."""
        if self.den == other.den:
            return self.nums == other.nums
        da, db = self.den, other.den
        return all(x * db == y * da for x, y in zip(self.nums, other.nums))


_EXACT_TYPES = frozenset((int, Fraction))


def scaled_product(rows, vec, ncols=None):
    """Sparse integer rows times a :class:`ScaledVector`, as a ScaledVector.

    The product is rows @ vec, or rows^T @ vec with ``ncols`` entries
    when ``ncols`` is given (then vec has one entry per row).  Every
    product and sum is an int one over vec's denominator, and each entry
    reads by its value, as in :class:`ScaledVector`.
    """
    return ScaledVector(vec.den, sparse_product(rows, vec.nums, ncols))


def sparse_product(rows, xs, ncols=None):
    """rows @ xs, or rows^T @ xs with ncols entries, summed term by term.

    xs is a list of numbers; on floats each entry is the left-to-right
    sum of its terms.
    """
    if ncols is None:
        out = []
        for row in rows:
            acc = 0
            for j, v in row.items():
                x = xs[j]
                if x:
                    acc += v * x
            out.append(acc)
        return out
    out = [0] * ncols
    for r, row in enumerate(rows):
        x = xs[r]
        if x:
            for c, v in row.items():
                out[c] += v * x
    return out


def mul_rows(A, B):
    """Sparse product A @ B, rows kept free of explicit zeros."""
    out = []
    for row in A:
        acc = {}
        for m, v in row.items():
            _row_axpy(acc, B[m], v)
        out.append(acc)
    return out


def add_rows(A, B):
    """Sparse sum A + B, rows kept free of explicit zeros."""
    out = []
    for ra, rb in zip(A, B):
        acc = dict(ra)
        _row_axpy(acc, rb, 1)
        out.append(acc)
    return out


def gram_rows(rows, ncols, weights=None):
    """Sparse rows of A^T W A, W the diagonal of row ``weights`` (default 1).

    Entries that cancel to zero are dropped.
    """
    out = [dict() for _ in range(ncols)]
    for r, row in enumerate(rows):
        w = 1 if weights is None else weights[r]
        items = list(row.items())
        for i, vi in items:
            oi = out[i]
            for j, vj in items:
                oi[j] = oi.get(j, 0) + vi * vj * w
    return [{j: v for j, v in row.items() if v} for row in out]


def identity_rows(n):
    return [{i: 1} for i in range(n)]


def _row_axpy(target, source, c):
    """target += c * source, both sparse dicts."""
    for j, v in source.items():
        w = target.get(j, 0) + c * v
        if w:
            target[j] = w
        else:
            target.pop(j, None)


# ---------------------------------------------------------------------------
# Smith normal form

# the pivot heap is rebuilt from the live unit keys once it holds more
# than this many times the keys of its last rebuild (at least 64)
HEAP_SLACK = 2


def _replay(n, ops, inverse):
    """Rows of the n x n transform that the logged ``ops`` make of I.

    ``ops`` is one side of a :class:`_SnfWorker` log, flat triples
    (i, j, c): line i += c * line j when c != 0, else swap lines i and
    j, or negate line i when i == j.  The rows are those of U (row side)
    or V^T (column side); with ``inverse`` they are those of U^{-1}
    transposed or V^{-1}, where line i += c * line j acts as
    line j -= c * line i.
    """
    rows = identity_rows(n)
    it = iter(ops)
    for i, j, c in zip(it, it, it):
        if c:
            if inverse:
                _row_axpy(rows[j], rows[i], -c)
            else:
                _row_axpy(rows[i], rows[j], c)
        elif i != j:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            row = rows[i]
            for col in row:
                row[col] = -row[col]
    return rows


@dataclass
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D = diag(invariant factors).

    ``diag`` holds the nonzero invariant factors d_1 | d_2 | ... | d_r,
    all positive; ``rank`` is r.  The transforms are sparse, read-only
    properties: ``U_rows`` are rows of U, ``UinvT_rows`` rows of U^{-1}
    transposed, ``VT_rows`` rows of V transposed (i.e. columns of V),
    ``Vinv_rows`` rows of V^{-1}.  Each is replayed from the elimination's
    ``row_ops`` or ``col_ops`` (see :func:`_replay`) on its first read
    and cached in ``built``, keyed by name.
    """

    nrows: int
    ncols: int
    rank: int
    diag: list
    row_ops: list
    col_ops: list
    built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _transform(self, name, n, ops, inverse):
        if name not in self.built:
            self.built[name] = _replay(n, ops, inverse)
        return self.built[name]

    @property
    def U_rows(self):
        return self._transform("U_rows", self.nrows, self.row_ops, False)

    @property
    def UinvT_rows(self):
        return self._transform("UinvT_rows", self.nrows, self.row_ops, True)

    @property
    def VT_rows(self):
        return self._transform("VT_rows", self.ncols, self.col_ops, False)

    @property
    def Vinv_rows(self):
        return self._transform("Vinv_rows", self.ncols, self.col_ops, True)

    def solve(self, b):
        """A solution x of A x = b as a :class:`ScaledVector`, or None when there is none.

        x = V c with c_i = y_i / d_i for y = U b and the free coordinates
        of c zero; b is a ScaledVector.  V is unimodular, so x is
        integral exactly when A x = b has an integral solution.
        """
        y = scaled_product(self.U_rows, b)
        r = self.rank
        if any(y.nums[r:]):
            return None
        # c over the common denominator den * d_r: d_i | d_r
        top = self.diag[r - 1] if r else 1
        den = y.den * top
        nums = [x * (top // d) for x, d in zip(y.nums, self.diag)]
        nums += [0] * (self.ncols - r)
        return scaled_product(self.VT_rows, ScaledVector(den, nums), self.ncols)


class _SnfWorker:
    """Sparse Smith elimination with a Markowitz pivot queue kept across steps.

    The elementary operations change ``rows`` and ``cols`` only; each one
    is appended to ``row_ops`` or ``col_ops`` as a triple in the format
    of :func:`_replay`, and :class:`SmithDecomposition` builds a
    transform from that log when it is first read.

    At step t the pivot is the unit (+-1) entry of the active submatrix
    (rows and columns >= t) with the least key (cost, col, row), where
    cost = (len(row) - 1) * (len(col) - 1); without a unit it is the
    entry with the least (|v|, cost, col, row), found by a full scan.
    Unit keys sit in a lazy min-heap, each packed into the one int
    (cost * ncols + col) * nrows + row, which orders like the tuple and
    keeps the heap small.  The elementary operations mark as dirty the
    rows and columns whose entries, lengths or indices they change;
    before each pick the unit entries of dirty rows and columns are
    pushed again with their current keys, and a popped key counts only
    if it is still the current key of an active unit entry.

    Keys of eliminated rows and columns, and keys superseded by a new
    cost, stay behind as stale keys.  Once the heap holds more than
    ``HEAP_SLACK`` times the keys of its last rebuild (at least 64), the
    pick rebuilds it instead: one pass over the active rows collects the
    current key of every unit entry, which covers the dirty rows and
    columns, and ``heapify`` orders them.  The first pick builds the
    heap the same way.  A rebuild holds every key a pop would accept and
    no stale one, so the pivot sequence is the same as without it.

    :meth:`_clear_pivot` alternates two sweeps, one loop for every
    pivot.  The column sweep takes each other row of column t, in row
    order, to its least remainder by the pivot; if one survives, the
    least row holding one becomes row t and the loop starts over.
    Otherwise column t is {t}, so in the row sweep ``col c -= q * col t``
    changes entry (t, c) alone, and :meth:`col_axpy` updates just that
    entry.  Its other caller, the divisibility chain, adds a column j
    that is {j} too, since every column below the rank is diagonal by
    then.  A remainder surviving the row
    sweep brings in the first other column of row t in dict order.  That
    order is part of the log: it follows from the order in which the
    operations popped and inserted a row's entries, so :meth:`col_swap`
    keeps each row's pop-then-insert order, and a swap of the two
    values in place, with the same matrix, would bring in other
    columns.  The heap traffic does not depend on how the bookkeeping
    is done: the rows and columns marked dirty and the keys pushed, as
    ints, are the same, and so are the pushes, pops and rebuilds.
    """

    def __init__(self, rows, nrows, ncols):
        self.rows = rows
        self.nrows = nrows
        self.ncols = ncols
        self.cols = [set() for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j in row:
                self.cols[j].add(i)
        self.row_ops = []
        self.col_ops = []
        self._heap = []
        self._heap_limit = -1  # the first pick builds the heap
        self._dirty_rows = set()
        self._dirty_cols = set()

    # elementary operations, logged for the transforms -----------------
    def row_axpy(self, i, j, c):
        """row i += c * row j, for c != 0."""
        row_j = self.rows[j]
        row_i = self.rows[i]
        cols = self.cols
        dirty_cols = self._dirty_cols
        for col, v in row_j.items():
            old = row_i.get(col, 0)
            w = old + c * v
            if w:
                row_i[col] = w
                if not old:
                    cols[col].add(i)
                    dirty_cols.add(col)
            else:
                # c * v != 0, so old != 0 and the entry is there
                del row_i[col]
                cols[col].discard(i)
                dirty_cols.add(col)
        self._dirty_rows.add(i)
        self.row_ops += (i, j, c)

    def col_axpy(self, i, j, c):
        """col i += c * col j, for a column j that is {j}: entry (j, i)
        alone changes."""
        row = self.rows[j]
        old = row.get(i, 0)
        w = old + c * row[j]
        if w:
            row[i] = w
            if not old:
                self.cols[i].add(j)
                self._dirty_rows.add(j)
        else:
            del row[i]
            self.cols[i].discard(j)
            self._dirty_rows.add(j)
        self._dirty_cols.add(i)
        self.col_ops += (i, j, c)

    def row_swap(self, i, j):
        if i == j:
            return
        rows, cols = self.rows, self.cols
        rows[i], rows[j] = rows[j], rows[i]
        row_i, row_j = rows[i], rows[j]
        # a column in both rows keeps both members
        for col in row_i:
            if col not in row_j:
                members = cols[col]
                members.add(i)
                members.discard(j)
        for col in row_j:
            if col not in row_i:
                members = cols[col]
                members.discard(i)
                members.add(j)
        self._dirty_rows.update((i, j))
        self.row_ops += (i, j, 0)

    def col_swap(self, i, j):
        if i == j:
            return
        rows, cols = self.rows, self.cols
        col_i, col_j = cols[i], cols[j]
        # each row pops before it inserts, i before j: the order of a
        # row's dict decides the leftover column of _clear_pivot
        for r in col_i:
            row = rows[r]
            vi = row.pop(i)
            if r in col_j:
                row[i] = row.pop(j)
            row[j] = vi
        for r in col_j:
            if r not in col_i:
                row = rows[r]
                row[i] = row.pop(j)
        cols[i], cols[j] = col_j, col_i
        self._dirty_cols.update((i, j))
        self.col_ops += (i, j, 0)

    def row_negate(self, i):
        row = self.rows[i]
        for col in row:
            row[col] = -row[col]
        self.row_ops += (i, i, 0)

    # pivot machinery ----------------------------------------------------
    def _find_pivot(self, t):
        """Best pivot (row, col) in the active submatrix, or None."""
        rows, cols, heap = self.rows, self.cols, self._heap
        dirty_rows, dirty_cols = self._dirty_rows, self._dirty_cols
        m, n = self.ncols, self.nrows
        # the key (cost * m + j) * n + i as cost * mn + j * n + i, with
        # cost * mn = (len(row) - 1) * (len(col) - 1) * mn
        mn = m * n
        if len(heap) > self._heap_limit:
            # stale keys dominate: rebuild from the current key of every
            # active unit entry, which covers the dirty rows and columns
            heap.clear()
            append = heap.append
            for i in range(t, n):
                row = rows[i]
                rmn = (len(row) - 1) * mn
                for j, v in row.items():
                    if v == 1 or v == -1:
                        append((len(cols[j]) - 1) * rmn + j * n + i)
            heapify(heap)
            self._heap_limit = HEAP_SLACK * max(len(heap), 64)
        else:
            push = heappush
            for i in dirty_rows:
                if i >= t:
                    row = rows[i]
                    rmn = (len(row) - 1) * mn
                    for j, v in row.items():
                        if v == 1 or v == -1:
                            push(heap, (len(cols[j]) - 1) * rmn + j * n + i)
            for j in dirty_cols:
                if j >= t:
                    col = cols[j]
                    cmn = (len(col) - 1) * mn
                    jn = j * n
                    for i in col:
                        # entries of dirty rows were pushed above
                        if i not in dirty_rows:
                            row = rows[i]
                            v = row[j]
                            if v == 1 or v == -1:
                                push(heap, (len(row) - 1) * cmn + jn + i)
        dirty_rows.clear()
        dirty_cols.clear()
        while heap:
            rest, i = divmod(heappop(heap), n)
            cost, j = divmod(rest, m)
            if i < t or j < t:
                continue
            v = rows[i].get(j)
            if (v == 1 or v == -1) and cost == (len(rows[i]) - 1) * (len(cols[j]) - 1):
                return i, j
        # no unit entry is left: least (|v|, cost, col, row)
        best = None
        for i in range(t, self.nrows):
            rcost = len(rows[i]) - 1
            for j, v in rows[i].items():
                key = (abs(v), rcost * (len(cols[j]) - 1), j, i)
                if best is None or key < best:
                    best = key
        return None if best is None else (best[3], best[2])

    def _clear_pivot(self, t):
        """Make (t,t) the only nonzero of row t and column t via gcd steps."""
        rows, cols = self.rows, self.cols
        while True:
            row_t = rows[t]
            piv = row_t[t]
            # column sweep
            for r in sorted(cols[t]):
                if r != t:
                    q = _nearest_div(rows[r][t], piv)
                    if q:
                        self.row_axpy(r, t, -q)
            col_t = cols[t]
            if len(col_t) > 1:
                # remainder survived: strictly smaller pivot available
                self.row_swap(t, min(r for r in col_t if r != t))
                continue
            # row sweep: column t is {t}, so col c -= q * col t changes
            # entry (t, c) alone
            for c in sorted(row_t):
                if c != t:
                    q = _nearest_div(row_t[c], piv)
                    if q:
                        self.col_axpy(c, t, -q)
            if len(row_t) == 1:
                return
            # remainder survived: the first in row t's dict order
            self.col_swap(t, next(c for c in row_t if c != t))

    def run(self):
        t = 0
        limit = min(self.nrows, self.ncols)
        while t < limit:
            found = self._find_pivot(t)
            if found is None:
                break
            i, j = found
            self.row_swap(t, i)
            self.col_swap(t, j)
            self._clear_pivot(t)
            t += 1
        rank = t
        # positive diagonal
        for i in range(rank):
            if self.rows[i][i] < 0:
                self.row_negate(i)
        # divisibility chain
        changed = True
        while changed:
            changed = False
            for i in range(rank - 1):
                di = self.rows[i][i]
                dj = self.rows[i + 1][i + 1]
                if dj % di:
                    self.col_axpy(i, i + 1, 1)
                    self._clear_pivot(i)
                    if self.rows[i][i] < 0:
                        self.row_negate(i)
                    if self.rows[i + 1][i + 1] < 0:
                        self.row_negate(i + 1)
                    changed = True
        diag = [self.rows[i][i] for i in range(rank)]
        return SmithDecomposition(
            nrows=self.nrows,
            ncols=self.ncols,
            rank=rank,
            diag=diag,
            row_ops=self.row_ops,
            col_ops=self.col_ops,
        )


def _nearest_div(a, b):
    """Quotient q minimizing |a - q b| (ties toward floor)."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def smith_normal_form(rows, nrows=None, *, ncols):
    """Smith normal form, with transforms, of sparse integer ``rows``.

    ``rows`` is a list of {col: value} dicts, read and not modified.
    """
    nrows = len(rows) if nrows is None else nrows
    return _SnfWorker([dict(r) for r in rows], nrows, ncols).run()


# ---------------------------------------------------------------------------
# sparse rational elimination


class RatElim:
    """Fraction-free sparse Gauss-Jordan over Q.

    Only ``perfbench`` and the tests, as an oracle, build it: the library
    reads ranks off certified Smith forms and solves its symmetric systems
    with :class:`SymmetricSolver`.

    ``rows`` is a list of {col: value} dicts (int or Fraction values),
    read and not modified; ``rhs`` an optional list of dense
    right-hand-side vectors (one entry per row each).  Each row is
    scaled by the lcm of its denominators and divided by its content,
    so elimination runs on primitive integer rows: ``row_r := (p/g)
    row_r - (c/g) prow`` with ``g = gcd(p, c)``, then ``row_r`` is
    divided by its content.  Rows stay proportional to the rows of a
    rational Gauss-Jordan, so the sparsity pattern, the pivots and the
    results are the same.  Each right-hand side is scaled to integers
    by the lcm of its denominators and carried through the same row
    operations in step with the rows.  After ``run()``:

    * ``pivots``  -- list of (row, col) in elimination order,
    * ``rank``    -- len(pivots),
    * ``rows``    -- the eliminated integer rows,
    * ``solution(which)`` -- particular solution for the constructor's
      rhs number ``which``, free vars 0, or None if it is inconsistent,
    * ``nullspace()``     -- basis of the kernel.

    Solutions and nullspace vectors have ``Fraction`` entries.
    """

    def __init__(self, rows, ncols, rhs=None):
        # each right-hand side as (L, L * b), L the lcm of its denominators
        self._rhs = []
        for b in rhs or ():
            y = _exact_vector(b)
            self._rhs.append((y.den, list(y.nums)))
        self.rows = []
        for i, r in enumerate(rows):
            mult = lcm(*(v.denominator for v in r.values()))
            row = {j: v.numerator * (mult // v.denominator) for j, v in r.items()}
            g = gcd(*row.values())
            if g > 1:
                row = {j: v // g for j, v in row.items()}
            if mult != 1 or g > 1:
                for _, y in self._rhs:
                    y[i] = _exact_div(y[i] * mult, g)
            self.rows.append(row)
        self.ncols = ncols
        self.cols = [set() for _ in range(ncols)]
        for i, row in enumerate(self.rows):
            for j in row:
                self.cols[j].add(i)
        self.pivots = []
        self._ran = False

    def _pick(self, active_rows):
        best = None
        for i in active_rows:
            row = self.rows[i]
            if not row:
                continue
            rlen = len(row)
            for j in row:
                key = ((rlen - 1) * (len(self.cols[j]) - 1), j, i)
                if best is None or key < best:
                    best = key
        if best is None:
            return None
        return best[2], best[1]

    def run(self):
        if self._ran:
            return self
        self._ran = True
        rows, cols, rhs = self.rows, self.cols, self._rhs
        active = set(range(len(rows)))
        while True:
            picked = self._pick(active)
            if picked is None:
                break
            pr, pc = picked
            active.discard(pr)
            self.pivots.append((pr, pc))
            prow = rows[pr]
            p = prow[pc]
            for r in sorted(cols[pc]):
                if r == pr:
                    continue
                row = rows[r]
                c = row[pc]
                g = gcd(p, c)
                a, b = p // g, c // g
                if a != 1:
                    for j in row:
                        row[j] *= a
                for j, v in prow.items():
                    w = row.get(j, 0) - b * v
                    if w:
                        row[j] = w
                        cols[j].add(r)
                    else:
                        row.pop(j, None)
                        cols[j].discard(r)
                d = gcd(*row.values()) or 1
                if d > 1:
                    for j in row:
                        row[j] //= d
                for _, y in rhs:
                    y[r] = _exact_div(a * y[r] - b * y[pr], d)
        # dicts keep their peak size after deletions; copies release the fill
        self.rows = [dict(row) for row in rows]
        self.cols = None
        return self

    @property
    def rank(self):
        self.run()
        return len(self.pivots)

    def solution(self, which=0):
        self.run()
        L, y = self._rhs[which]
        pivot_rows = {r for r, _ in self.pivots}
        if any(y[i] for i in range(len(self.rows)) if i not in pivot_rows):
            return None
        x = [Fraction(0)] * self.ncols
        for r, c in self.pivots:
            x[c] = Fraction(y[r], self.rows[r][c] * L)
        return x

    def nullspace(self):
        self.run()
        pivot_cols = {c: r for r, c in self.pivots}
        free = [j for j in range(self.ncols) if j not in pivot_cols]
        basis = []
        for f in free:
            vec = [Fraction(0)] * self.ncols
            vec[f] = Fraction(1)
            for c, r in pivot_cols.items():
                v = self.rows[r].get(f)
                if v:
                    vec[c] = -Fraction(v, self.rows[r][c])
            basis.append(vec)
        return basis


def _exact_vector(vec):
    sv = ScaledVector.of(vec)
    if sv is None:
        raise TypeError("exact arithmetic needs int and Fraction entries")
    return sv


def _exact_div(t, d):
    """t / d for an int or Fraction t; an int whenever the quotient is one."""
    if type(t) is int:
        return t // d if not t % d else Fraction(t, d)
    q = Fraction(t, d)
    return q.numerator if q.denominator == 1 else q


def rat_nullspace(rows, ncols):
    return RatElim(rows, ncols).nullspace()


# ---------------------------------------------------------------------------
# symmetric systems: factored modulo a prime, lifted p-adically, checked exactly

# 2^61 - 1 and the next two primes below it, tried in this order
PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45)


class SymmetricSolver:
    """Exact solutions of N x = b for a symmetric positive semidefinite N.

    ``rows`` are the {col: value} rows of the square matrix N (int or
    Fraction values), read and not modified.  N is scaled to the integer
    matrix A = L N by the lcm L of its denominators, which keeps it
    symmetric, and A is factored as L D L^T over GF(p) for the first
    prime p of :data:`PRIMES`, with diagonal pivots in minimum-degree
    order (least count of off-diagonal nonzeros in the active rows, ties
    by index).  A row that is zero when its turn comes is a free
    variable.  A zero pivot in a nonzero row makes the prime unlucky:
    over Q a positive semidefinite matrix with a zero diagonal entry has
    a zero row there.

    :meth:`solve` scales b to an integer c with A z = c and lifts the
    solution of the principal subsystem, free variables 0, p-adically
    (Dixon, Numer. Math. 40, 1982).  After lifts 1, 2, 4, 8, ... and
    after the last lift the bound allows, it rebuilds the rationals over
    one running common denominator by rational reconstruction (Wang
    1981) and accepts z = Z / D only if A Z = D c holds exactly, over
    the whole system.  A reconstruction costs more the longer p^m is,
    so at doubling lift counts all of them together cost a constant
    multiple of the last one, where one after every lift grew with the
    square of the lift count.  With the free variables 0 the principal
    subsystem has one solution, so a later reconstruction accepts the
    same z.  A Hadamard bound on the numerators and denominators of z
    caps the lifts: past it the reconstruction is certain, so a failed
    check, like a residual of the free rows that does not vanish modulo
    p, means that p is unlucky or that b is inconsistent.  The next
    prime is then tried, factored on first use; if none gives a
    solution, ValueError.

    Solutions are :class:`ScaledVector` values.  Which solution comes
    back depends on the pivot order, so callers read only quantities
    that are unique, such as delta x; its entries are typed by value, so
    they read the same whatever the solution.
    """

    def __init__(self, rows):
        scale = lcm(*(v.denominator for row in rows for v in row.values()))
        self._scale = scale
        self.rows = [
            {j: v.numerator * (scale // v.denominator) for j, v in row.items()}
            for row in rows
        ]
        # product of the squared norms of the nonzero columns (= rows):
        # Hadamard's bound on every minor of A, squared
        self._hadamard2 = 1
        for row in self.rows:
            if row:
                self._hadamard2 *= sum(v * v for v in row.values())
        self._factors = {}
        self._factor(PRIMES[0])

    def _factor(self, p):
        """The L D L^T steps of A over GF(p), or None for an unlucky p.

        One step (k, d^{-1}, [(i, l_ik), ...]) per eliminated index k,
        in pivot order; d^{-1} is 0 for a free variable.
        """
        if p not in self._factors:
            self._factors[p] = _ldl_mod(self.rows, p)
        return self._factors[p]

    def solve(self, b):
        """A solution x of N x = b (see the class).

        b is a :class:`ScaledVector`; x is the ScaledVector Z / (D mult)
        of the lifted solution.
        """
        # b's least common denominator, and L b over it
        g = gcd(b.den, *b.nums)
        mult = b.den // g
        c = [x // g * self._scale for x in b.nums]
        bound = 2 * self._hadamard2 * max(1, sum(v * v for v in c)) + 1
        for p in PRIMES:
            steps = self._factor(p)
            lifted = None if steps is None else self._lift(steps, p, c, bound)
            if lifted is not None:
                Z, D = lifted
                return ScaledVector(D * mult, Z)
        raise ValueError("no prime gives a solution: the system is inconsistent")

    def _lift(self, steps, p, c, bound):
        """(Z, D) with A Z = D c, or None.

        None when c - A X has a nonzero residual modulo p on a free row,
        or when no reconstruction has passed the check once p^m exceeds
        ``bound``.
        """
        rows = self.rows
        X = [0] * len(rows)
        r = c
        P = 1
        lifts, check_at = 0, 1
        while P <= bound:
            y = _ldl_solve(steps, p, r)
            if y is None:
                return None
            for i, v in enumerate(y):
                if v:
                    X[i] += v * P
            P *= p
            lifts += 1
            r = [(ri - ay) // p for ri, ay in zip(r, sparse_product(rows, y))]
            # reconstruct at lift counts 1, 2, 4, ... and at the last lift
            if lifts < check_at and P <= bound:
                continue
            check_at *= 2
            found = _reconstruct(X, P)
            if found is not None:
                Z, D = found
                if all(az == D * ci for az, ci in zip(sparse_product(rows, Z), c)):
                    return Z, D
        return None


def _ldl_mod(rows, p):
    """Minimum-degree L D L^T of the symmetric integer ``rows`` modulo p.

    Returns the steps of :meth:`SymmetricSolver._factor`, or None when
    a zero pivot has a nonzero row.  The active rows stay symmetric, so
    a pivot step computes the update of each pair (i, j), (j, i) once;
    the steps are those of updating every row on its own.
    """
    active = [
        {j: w for j, v in row.items() if j != i and (w := v % p)}
        for i, row in enumerate(rows)
    ]
    diag = [row.get(i, 0) % p for i, row in enumerate(rows)]
    heap = [(len(row), i) for i, row in enumerate(active)]
    heapify(heap)
    steps = []
    while heap:
        degree, k = heappop(heap)
        row = active[k]
        if row is None or degree != len(row):
            continue
        active[k] = None
        d = diag[k]
        if not d:
            if row:
                return None
            steps.append((k, 0, ()))
            continue
        dinv = pow(d, -1, p)
        items = list(row.items())
        col = [(i, v * dinv % p) for i, v in items]
        for a, (i, l) in enumerate(col):
            ri = active[i]
            del ri[k]
            diag[i] = (diag[i] - l * items[a][1]) % p
            for j, v in items[a + 1:]:
                w = (ri.get(j, 0) - l * v) % p
                if w:
                    ri[j] = active[j][i] = w
                else:
                    ri.pop(j, None)
                    active[j].pop(i, None)
        for i, _ in col:
            heappush(heap, (len(active[i]), i))
        steps.append((k, dinv, col))
    return steps


def _ldl_solve(steps, p, r):
    """y in [0, p) with A y = r modulo p and y 0 on the free variables.

    None when r has a nonzero residual modulo p on a free row, that is
    when r is not in the column space of A over GF(p).
    """
    y = list(r)
    for k, dinv, col in steps:
        yk = y[k] = y[k] % p
        if not dinv:
            if yk:
                return None
        elif yk:
            for i, l in col:
                y[i] -= l * yk
    for k, dinv, col in reversed(steps):
        acc = y[k] * dinv
        for i, l in col:
            acc -= l * y[i]
        y[k] = acc % p
    return y


def _reconstruct(X, P):
    """(Z, D) with Z_i / D = X_i modulo P for every i, or None.

    Each X_i is rebuilt as a / b with |a| and D b at most
    sqrt((P - 1) / 2), which makes the rational unique, by the extended
    Euclidean algorithm on (P, D X_i) with D the common denominator of
    the entries before it.
    """
    N = isqrt((P - 1) // 2)
    D = 1
    parts = []
    for x in X:
        r0, r1, t0, t1 = P, x * D % P, 0, 1
        while r1 > N:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if t1 < 0:
            r1, t1 = -r1, -t1
        D *= t1
        if D > N or gcd(r1, t1) != 1:
            return None
        parts.append((r1, D))
    return [a * (D // d) for a, d in parts], D
