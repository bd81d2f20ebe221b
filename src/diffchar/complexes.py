"""Finite simplicial complexes with exact chain/cochain calculus.

A complex stores its k-simplices as lexicographically sorted tuples of
vertex ids 0..N-1.  Boundary and coboundary operators are sparse integer
matrices; chains and cochains are coefficient vectors tagged with a
degree.  Each holds one :class:`~diffchar.exact.ScaledVector`,
integer numerators over one common denominator, built from ints and
``Fraction`` values only and refused when built from anything else;
their arithmetic (sums, negation, scaling, cup products, evaluation,
delta and boundary) runs on it, and the tuple of entries, ``values``,
is built only when something reads it; each entry is an int exactly
when it is integral.  Products use the standard
front-face/back-face (Alexander-Whitney) formulas, which satisfy the
Leibniz rule on the nose; that exactness is what the spark calculus
downstream leans on.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

from .exact import ScaledVector, scaled_product, transpose_rows


class ComplexError(ValueError):
    """Malformed simplicial data (closure violations, bad ids, ...)."""


# ---------------------------------------------------------------------------
# the cache


def cached(name, owner=None):
    """Build ``f(obj, *args)`` once and keep it in the ``_cache`` of ``owner(obj, *args)``.

    The owner is ``obj`` itself by default, and the key is ``(name,
    *args)``.  What is kept is shared: its readers never change it.
    This is the one reader and writer of every ``_cache``.
    """
    def decorate(f):
        @functools.wraps(f)
        def read(obj, *args):
            store = (obj if owner is None else owner(obj, *args))._cache
            key = (name, *args)
            if key not in store:
                store[key] = f(obj, *args)
            return store[key]
        return read
    return decorate


# ---------------------------------------------------------------------------
# scalars


# the exponent that ends decimal text such as "-1.5e-3"
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_scalar(text):
    """Parse "p/q" or "p" into Fraction or int (integers stay int).

    Raises ValueError on malformed text, on a zero denominator, and on a
    value whose numerator or denominator has more digits than ``str``
    prints (``sys.get_int_max_str_digits``).  An exponent that alone
    makes one of them that long is refused before the number is built.
    """
    if isinstance(text, int):
        return text
    text = str(text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    m = _EXPONENT.search(text)
    if limit and m and "/" not in text and abs(int(m.group(1))) > limit + len(text):
        # x 10^e with fewer than len(text) digits in x: a nonzero x has
        # a numerator or a reduced denominator of more than limit digits
        if Fraction(text[:m.start()]):
            raise ValueError(f"{text!r} has more than {limit} digits")
        return 0
    try:
        f = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    big = max(abs(f.numerator), f.denominator)
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise ValueError(f"{text!r} has more than {limit} digits")
    return int(f) if f.denominator == 1 else f


def scalar_str(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# chains and cochains


_set = object.__setattr__


class _Vector:
    """Coefficients on the k-simplices, tagged with the degree k.

    Chains and cochains share this body.  A vector is one
    :class:`~diffchar.exact.ScaledVector`, ``form``: integers over one
    common denominator.  ``Cochain(k, values)`` builds it from ints and
    ``Fraction`` values and raises ValueError naming the first other
    entry, a float, a bool or text.  ``values`` is built from ``form``
    when it is first read, every entry an int exactly when it is
    integral.  Immutable, with the equality, hash and repr of a frozen
    dataclass of ``degree`` and ``values``: equality compares classes
    first, so a chain never equals a cochain.
    """

    __slots__ = ("degree", "form", "_values")

    def __init__(self, degree, values):
        values = tuple(values)
        form = ScaledVector.of(values)
        if form is None:
            _refuse(type(self), degree, values)
        _set(self, "degree", degree)
        _set(self, "form", form)
        _set(self, "_values", None)

    @classmethod
    def from_scaled(cls, degree, scaled):
        """The vector of a :class:`~diffchar.exact.ScaledVector`; values built when read."""
        out = object.__new__(cls)
        _set(out, "degree", degree)
        _set(out, "form", scaled)
        _set(out, "_values", None)
        return out

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.degree, self.values)

    @property
    def values(self):
        if self._values is None:
            _set(self, "_values", tuple(self.form.entries()))
        return self._values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.degree != other.degree or len(self.form.nums) != len(other.form.nums):
            return False
        return self.form.same_values(other.form)

    def __hash__(self):
        return hash((self.degree, self.values))

    def __repr__(self):
        return f"{type(self).__qualname__}(degree={self.degree!r}, values={self.values!r})"

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        _check_same(self, other)
        return self.from_scaled(self.degree, self.form.combine(other.form, sign))

    def __neg__(self):
        return self.from_scaled(self.degree, self.form.times(-1))

    def scale(self, c):
        """c times every entry, for an int or ``Fraction`` c."""
        if ScaledVector.of((c,)) is None:
            raise ValueError(f"scalar {c!r} is not an int or Fraction")
        return self.from_scaled(self.degree, self.form.times(c))

    def is_zero(self):
        return not any(self.form.nums)

    def is_integral(self):
        return self.form.is_integral()


class Chain(_Vector):
    """Formal sum of k-simplices; values indexed like K.simplices[k]."""

    __slots__ = ()


class Cochain(_Vector):
    """Function on k-simplices; values indexed like K.simplices[k]."""

    __slots__ = ()

    def ring(self):
        return "INT" if self.is_integral() else "RAT"

    def to_json_dict(self):
        return {
            "degree": self.degree,
            "ring": self.ring(),
            "values": [scalar_str(v) for v in self.values],
        }


def _check_same(a, b):
    if a.degree != b.degree or len(a.form.nums) != len(b.form.nums):
        raise ValueError("degree/length mismatch")


def _refuse(cls, k, values):
    """Raise ValueError naming the first entry that is no int or ``Fraction``."""
    i = next(i for i, v in enumerate(values) if ScaledVector.of((v,)) is None)
    raise ValueError(
        f"entry {i} of a degree-{k} {cls.__name__.lower()} is {values[i]!r}, "
        "not an int or Fraction"
    )


# ---------------------------------------------------------------------------
# the complex


class SimplicialComplex:
    """Finite abstract simplicial complex on vertices 0..N-1.

    ``simplices[k]`` is the sorted list of k-simplices (sorted vertex
    tuples).  Build from any generating set of simplices; faces are
    filled in when ``auto_close`` is true, otherwise missing faces raise
    :class:`ComplexError`.  The closure runs level by level from the top
    dimension down, adding only the codimension-one faces of each
    simplex, so every face is formed once per coface rather than once per
    subset of every generator.
    """

    def __init__(self, simplices, n_vertices=None, auto_close=True):
        levels = {}  # simplex size -> set of sorted vertex tuples
        for s in simplices:
            t = tuple(s)
            if len(set(t)) != len(t):
                raise ComplexError(f"degenerate simplex {t}")
            if any(not isinstance(v, int) or v < 0 for v in t):
                raise ComplexError(f"bad vertex id in {t}")
            if t:
                levels.setdefault(len(t), set()).add(tuple(sorted(t)))
        if n_vertices is not None:
            levels.setdefault(1, set()).update((i,) for i in range(n_vertices))
        top = max(levels, default=0)
        missing = []
        for size in range(top, 1, -1):
            below = levels.setdefault(size - 1, set())
            faces = {t[:i] + t[i + 1:] for t in levels[size] for i in range(size)}
            if not auto_close and not faces <= below:
                missing.append(min(faces - below))
            below |= faces
        if missing:
            raise ComplexError(f"closure violated: missing face {min(missing)}")
        vertices = sorted(v for (v,) in levels.get(1, ()))
        n = (vertices[-1] + 1) if vertices else 0
        if vertices != list(range(n)):
            gap = next(i for i in range(n) if i not in set(vertices))
            raise ComplexError(f"vertex ids must be contiguous from 0; missing {gap}")
        self.n_vertices = n
        self.dimension = top - 1 if levels.get(top) else -1
        self.simplices = {k: sorted(levels[k + 1]) for k in range(self.dimension + 1)}
        self.index = {
            k: {t: i for i, t in enumerate(lst)} for k, lst in self.simplices.items()
        }
        self._cache = {}

    # -- bookkeeping -----------------------------------------------------
    def n_simplices(self, k):
        return len(self.simplices.get(k, []))

    def total_simplices(self):
        return sum(len(v) for v in self.simplices.values())

    def f_vector(self):
        return tuple(self.n_simplices(k) for k in range(self.dimension + 1))

    def euler_characteristic(self):
        return sum((-1) ** k * self.n_simplices(k) for k in range(self.dimension + 1))

    def maximal_simplices(self):
        """Simplices with no proper coface, by dimension, then sorted.

        In a closed complex a simplex with a proper coface is a facet of
        a coface one dimension up, so one pass over codimension-one
        faces finds all the others.
        """
        out = []
        for k in range(self.dimension + 1):
            covered = {
                t[:i] + t[i + 1:]
                for t in self.simplices.get(k + 1, ())
                for i in range(k + 2)
            }
            out.extend(t for t in self.simplices[k] if t not in covered)
        return out

    # -- operators -------------------------------------------------------
    @cached("boundary")
    def boundary_rows(self, k):
        """Sparse rows of the boundary matrix C_k -> C_{k-1}.

        Row index runs over (k-1)-simplices, column over k-simplices.
        """
        rows = [dict() for _ in range(self.n_simplices(k - 1))]
        if 1 <= k <= self.dimension:
            idx = self.index[k - 1]
            for j, simp in enumerate(self.simplices[k]):
                for i in range(len(simp)):
                    face = simp[:i] + simp[i + 1:]
                    rows[idx[face]][j] = (-1) ** i
        return rows

    @cached("delta")
    def delta_rows(self, k):
        """Sparse rows of the coboundary matrix C^k -> C^{k+1}.

        Row index runs over (k+1)-simplices; it is the transpose of
        ``boundary_rows(k+1)``.  Row sigma lists the k + 2 faces of
        sigma by rising face index.  Simplices are sorted tuples, so the
        face index falls as the position of the removed vertex rises:
        position p holds the face without vertex k + 1 - p, with sign
        (-1)^(k+1-p).
        """
        return transpose_rows(self.boundary_rows(k + 1), self.n_simplices(k + 1))

    def boundary(self, z: Chain) -> Chain:
        rows = self.boundary_rows(z.degree)
        return Chain.from_scaled(z.degree - 1, scaled_product(rows, z.form))

    def delta(self, u: Cochain) -> Cochain:
        """The coboundary, (delta u)(sigma) = sum_i (-1)^i u(sigma without vertex i).

        Reads the face columns of :meth:`delta_rows`, cached on the
        complex: column p holds, for every (k+1)-simplex, the index of
        its face without vertex k + 1 - p.  The last column has sign +1,
        the one before it -1, and so on, so the product is a sum of
        column differences, plus the first column when k + 2 is odd.
        delta_{-1} and the top degree have no columns and give zeros.
        """
        k = u.degree
        cols = self._delta_columns(k)
        a = u.form
        xs = a.nums
        if cols:
            nums = [xs[f] - xs[g] for f, g in zip(cols[-1], cols[-2])]
            for p in range(len(cols) - 3, 0, -2):
                nums = [s + xs[f] - xs[g] for s, f, g in zip(nums, cols[p], cols[p - 1])]
            if len(cols) % 2:
                nums = [s + xs[f] for s, f in zip(nums, cols[0])]
        else:
            nums = [0] * self.n_simplices(k + 1)
        return Cochain.from_scaled(k + 1, ScaledVector(a.den, nums))

    @cached("delta_columns")
    def _delta_columns(self, k):
        return list(zip(*self.delta_rows(k)))

    # -- constructors ----------------------------------------------------
    def zero_cochain(self, k) -> Cochain:
        return Cochain.from_scaled(k, ScaledVector(1, [0] * self.n_simplices(k)))

    def cochain(self, k, values) -> Cochain:
        return self._vector(Cochain, k, values)

    def chain(self, k, values) -> Chain:
        return self._vector(Chain, k, values)

    def _vector(self, cls, k, values):
        values = tuple(values)
        if len(values) != self.n_simplices(k):
            raise ValueError(
                f"expected {self.n_simplices(k)} values in degree {k}, got {len(values)}"
            )
        return cls(k, values)

    # -- pairings and products ------------------------------------------
    def evaluate(self, u: Cochain, z: Chain):
        if u.degree != z.degree:
            raise ValueError("evaluate needs matching degrees")
        a, b = u.form, z.form
        total = sum(x * y for x, y in zip(a.nums, b.nums) if y)
        den = a.den * b.den
        return Fraction(total, den) if total % den else total // den

    def cup(self, u: Cochain, v: Cochain) -> Cochain:
        """Front-face/back-face product C^p x C^q -> C^{p+q}.

        C^{-1} is empty, so a factor of negative degree gives zero.
        Each entry is an int exactly when it is integral.  The face
        index lists are formed once per (p, q) and cached on the
        complex (:meth:`_faces`).
        """
        p, q = u.degree, v.degree
        k = p + q
        if p < 0 or q < 0 or k > self.dimension:
            return self.zero_cochain(k)
        front, back = self._faces(p, q)
        a, b = u.form, v.form
        xs, ys = a.nums, b.nums
        nums = [xs[f] * ys[g] for f, g in zip(front, back)]
        return Cochain.from_scaled(k, ScaledVector(a.den * b.den, nums))

    @cached("faces")
    def _faces(self, p, q):
        """Indices of the front p-faces and of the back q-faces of the (p+q)-simplices."""
        idx_p, idx_q = self.index[p], self.index[q]
        simplices = self.simplices[p + q]
        return [idx_p[s[: p + 1]] for s in simplices], [idx_q[s[p:]] for s in simplices]

    def cap(self, z: Chain, u: Cochain) -> Chain:
        """Cap product C_m x C^p -> C_{m-p}, front face eaten by u.

        Adjoint to cup: <u cup w, z> == <w, cap(z, u)> for all w.
        """
        m, p = z.degree, u.degree
        if p > m:
            raise ValueError("cap needs deg(cochain) <= deg(chain)")
        q = m - p
        a, b = u.form, z.form
        xs = a.nums
        nums = [0] * self.n_simplices(q)
        front, back = self._faces(p, q)
        for f, g, y in zip(front, back, b.nums):
            if y:
                nums[g] += y * xs[f]
        return Chain.from_scaled(q, ScaledVector(a.den * b.den, nums))

    # -- fundamental cycle ----------------------------------------------
    @cached("fundamental")
    def fundamental_cycle(self):
        """Top-degree cycle with all coefficients +-1, or None.

        Exists (up to global sign, fixed by making the first coefficient
        +1) exactly when the integral top-degree cycles are the multiples
        of one such cycle, as on a closed orientable pseudomanifold.
        Read off the cycle rows of the cached Smith form of the
        coboundary delta_{n-1}, whose transpose is the top boundary
        matrix (:func:`~diffchar.cohomology.cycle_lattice_basis`).
        """
        from .cohomology import cycle_lattice_basis

        basis = cycle_lattice_basis(self, self.dimension)
        if len(basis) == 1 and all(abs(v) == 1 for v in basis[0]):
            sign = basis[0][0]
            return Chain(self.dimension, tuple(sign * v for v in basis[0]))
        return None

    # -- graph structure -------------------------------------------------
    def bfs_path(self, src, dst):
        """Deterministic shortest vertex path along edges, or None."""
        if src == dst:
            return [src]
        adj = {v: [] for v in range(self.n_vertices)}
        for a, b in self.simplices.get(1, []):
            adj[a].append(b)
            adj[b].append(a)
        for v in adj:
            adj[v].sort()
        prev = {src: None}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in prev:
                        prev[w] = v
                        if w == dst:
                            path = [w]
                            while path[-1] is not None:
                                path.append(prev[path[-1]])
                            path.pop()
                            return path[::-1]
                        nxt.append(w)
            frontier = nxt
        return None

    # -- serialization ---------------------------------------------------
    def to_json_dict(self):
        out = {
            "dimension": self.dimension,
            "vertices": self.n_vertices,
            "simplices": {
                str(k): [list(t) for t in self.simplices[k]]
                for k in range(1, self.dimension + 1)
            },
        }
        fc = self.fundamental_cycle()
        if fc is not None:
            out["fundamental_cycle"] = [
                {"simplex": list(s), "coeff": c}
                for s, c in zip(self.simplices[self.dimension], fc.values)
                if c
            ]
        return out

    @classmethod
    def from_json_dict(cls, data, auto_close=False):
        try:
            n = json_int(data["vertices"], "malformed complex JSON: vertices")
            by_degree = data.get("simplices", {})
            if not isinstance(by_degree, dict):
                raise ComplexError(
                    "malformed complex JSON: simplices must map degrees to lists"
                )
            simps = []
            for lst in by_degree.values():
                for t in lst:
                    simps.append(tuple(
                        json_int(v, "malformed complex JSON: vertex id") for v in t
                    ))
        except (KeyError, TypeError) as exc:
            raise ComplexError(f"malformed complex JSON: {exc}") from exc
        K = cls(simps, n_vertices=n, auto_close=auto_close)
        declared = data.get("dimension")
        if "dimension" in data and (
            json_int(declared, "malformed complex JSON: dimension") != K.dimension
        ):
            raise ComplexError(
                f"declared dimension {declared} but found {K.dimension}"
            )
        return K


def json_int(value, what):
    """An integer field of JSON input: an int, or text or a float that is one.

    Anything else (1.5, true, null, "x") raises ComplexError with the
    message ``what`` followed by the value; this rule reads the integer
    fields of complex, cochain, chain, spark, weight and cover files and
    the vertices of ``--path`` alike.
    """
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or isinstance(value, bool) or (isinstance(value, float) and n != value):
        raise ComplexError(f"{what} {value!r} is not an integer")
    return n


def json_scalars(values, what):
    """A value list of JSON input: an array of numbers or number text.

    Text such as ``"10000"`` and objects are not arrays and would be
    read character by character or through their keys; ``true`` is not
    a number.  These, and entries :func:`parse_scalar` cannot read,
    raise ComplexError with the message ``what``.  Returns a tuple of
    ints and Fractions.
    """
    if not isinstance(values, list):
        raise ComplexError(
            f"{what}: expected a list of numbers, got {type(values).__name__}"
        )
    for v in values:
        if isinstance(v, bool):
            raise ComplexError(f"{what}: expected a list of numbers, found {v!r}")
    try:
        return tuple(map(parse_scalar, values))
    except ValueError as exc:
        raise ComplexError(f"{what}: {exc}") from None


def json_vector(K, data, where, cls=Cochain, degree=None, top=None):
    """A Cochain or Chain (``cls``) of K from ``{"degree": k, "values": [...]}``.

    k must equal ``degree`` when that is given, and lie in -1..``top``,
    the dimension of K unless given: the charge of a top-degree spark
    has degree dim + 1.  Malformed data raises ComplexError naming
    ``where``.
    """
    try:
        k = json_int(data["degree"], f"{where}: degree")
        values = json_scalars(data["values"], f"{where}: values")
    except (KeyError, TypeError) as exc:
        raise ComplexError(f"{where}: malformed {cls.__name__.lower()} ({exc})") from exc
    if degree is not None and k != degree:
        raise ComplexError(f"{where}: degree {k}, expected {degree}")
    top = K.dimension if top is None else top
    if not -1 <= k <= top:
        raise ComplexError(f"{where}: degree {k} outside -1..{top}")
    return K._vector(cls, k, values)


# ---------------------------------------------------------------------------
# subcomplexes


@dataclass
class ComplexEmbedding:
    """A face-closed subset of a complex, repackaged as a complex.

    ``simplex_to_parent[k][j]`` is the parent index of local k-simplex j.
    """

    sub: SimplicialComplex
    parent: SimplicialComplex
    simplex_to_parent: dict


def induced_subcomplex(K: SimplicialComplex, simplices) -> ComplexEmbedding:
    """Embedding of the face closure of ``simplices`` inside K."""
    gens = []
    for s in simplices:
        t = tuple(sorted(s))
        if t not in K.index.get(len(t) - 1, ()):
            raise ComplexError(f"simplex {t} not in complex")
        gens.append(t)
    vertices = sorted({v for t in gens for v in t})
    to_local = {v: i for i, v in enumerate(vertices)}
    # the relabelling keeps vertex order, so the constructor closes the
    # generators to exactly the relabelled faces of their closure in K
    sub = SimplicialComplex([tuple(to_local[v] for v in t) for t in gens])
    simplex_to_parent = {}
    for k in range(sub.dimension + 1):
        table = []
        for t in sub.simplices[k]:
            parent_t = tuple(vertices[v] for v in t)
            table.append(K.index[k][parent_t])
        simplex_to_parent[k] = table
    for k in range(sub.dimension + 1, K.dimension + 1):
        simplex_to_parent.setdefault(k, [])
    return ComplexEmbedding(
        sub=sub,
        parent=K,
        simplex_to_parent=simplex_to_parent,
    )


def closed_star(K: SimplicialComplex, v) -> list:
    """Simplices containing vertex v; their closure is the closed star."""
    out = []
    for k in range(K.dimension + 1):
        for t in K.simplices[k]:
            if v in t:
                out.append(t)
    return out


# ---------------------------------------------------------------------------
# simplicial maps


def simplicial_chain_maps(src: SimplicialComplex, tgt: SimplicialComplex, vertex_map):
    """Chain-map matrices of a simplicial map, one per degree.

    ``vertex_map[v]`` is the target vertex of source vertex v.  Degenerate
    images (repeated vertices) map to zero; otherwise the image simplex is
    sorted and picks up the sign of the sorting permutation.  Returns
    {k: sparse rows indexed by target k-simplices}.
    """
    for v in range(src.n_vertices):
        w = vertex_map[v]
        if (w,) not in tgt.index.get(0, {}):
            raise ComplexError(f"vertex {v} maps to missing target vertex {w}")
    maps = {}
    for k in range(src.dimension + 1):
        rows = [dict() for _ in range(tgt.n_simplices(k))]
        for j, simp in enumerate(src.simplices[k]):
            image = [vertex_map[v] for v in simp]
            if len(set(image)) != len(image):
                continue
            sign = _sort_sign(image)
            key = tuple(sorted(image))
            if key not in tgt.index[k]:
                raise ComplexError(
                    f"image simplex {key} of {simp} missing from target"
                )
            row = rows[tgt.index[k][key]]
            row[j] = row.get(j, 0) + sign
            if row[j] == 0:
                del row[j]
        maps[k] = rows
    return maps


def _sort_sign(seq):
    """Sign of the permutation sorting ``seq`` (distinct entries)."""
    sign = 1
    arr = list(seq)
    for i in range(len(arr)):
        m = min(range(i, len(arr)), key=arr.__getitem__)
        if m != i:
            arr[i], arr[m] = arr[m], arr[i]
            sign = -sign
    return sign


def pull_cochain(maps, u: Cochain, src_size) -> Cochain:
    """Cochain pullback along a chain map: transpose application."""
    return Cochain.from_scaled(u.degree, scaled_product(maps[u.degree], u.form, src_size))
