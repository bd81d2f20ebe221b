"""Answer checks for the benchmark workloads.

Every reference here comes from a closed form or a known topological
fact about the fixture (f-vector, lens-space cohomology, grid
coordinates, the linking form of RP^3), or from an exact identity
evaluated with the plain cochain operations (coboundary, cup product,
evaluation).  No reference is read back from the library routine whose
answer it checks.  Each checker returns a list of failure messages; an
empty list means the answer passed.
"""

from __future__ import annotations

import json
from fractions import Fraction


class Tally:
    """Operations attempted and failed; an operation fails on any message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, op, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{op}: {msg}" for msg in failures)


# ---------------------------------------------------------------------------
# character tables


def lens_cohomology(p):
    """H^k(L(p, q); Z) for k = 0..3 as (free rank, torsion): Z, 0, Z_p, Z."""
    return [(1, ()), (0, ()), (0, (p,)), (1, ())]


def table_reference(f_vector, cohomology):
    """Character-table rows predicted from the f-vector and H^*(K; Z).

    Rows are (degree, torus rank, curvature dimension, discrete part)
    for degrees -1..n.  The curvature dimension in degree k is the rank
    of delta_k, which is f_k - b_k - rank delta_{k-1}: an alternating sum
    of the f-vector and the Betti numbers.
    """
    n = len(f_vector) - 1
    ranks = []
    prev = 0
    for k in range(n + 1):
        prev = f_vector[k] - cohomology[k][0] - prev
        ranks.append(prev)
    rows = [(-1, 0, 0, cohomology[0])]
    for k in range(n + 1):
        discrete = cohomology[k + 1] if k < n else (0, ())
        rows.append((k, cohomology[k][0], ranks[k], discrete))
    return rows


def table_rows(table):
    """Plain tuples from a list of ``CharacterStructure``."""
    return [
        (c.degree, c.torus_rank, c.exact_dim,
         (c.discrete.free_rank, tuple(c.discrete.torsion)))
        for c in table
    ]


def check_table(rows, f_vector, cohomology):
    want = table_reference(f_vector, cohomology)
    failures = []
    if want[-1][2] != 0:
        failures.append("f-vector inconsistent with the cohomology reference")
    if len(rows) != len(want):
        failures.append(f"{len(rows)} rows, expected {len(want)}")
    for got, exp in zip(rows, want):
        if got != exp:
            failures.append(f"degree {exp[0]}: got {got}, expected {exp}")
    return failures


def check_snf(rank, invariant_factors, f_vector, cohomology, k):
    """SNF of delta_k: rank from the f-vector, factors > 1 = tor H^{k+1}."""
    ranks = [row[2] for row in table_reference(f_vector, cohomology)[1:]]
    failures = []
    if rank != ranks[k]:
        failures.append(f"rank {rank}, expected {ranks[k]}")
    torsion = tuple(d for d in invariant_factors if d > 1)
    want = cohomology[k + 1][1] if k + 1 < len(cohomology) else ()
    if torsion != tuple(want):
        failures.append(f"invariant factors > 1 are {torsion}, expected {want}")
    return failures


# ---------------------------------------------------------------------------
# Abel-Jacobi values on grid tori


def grid_closed_form(m, src, dst):
    """AJ value of dst - src against the seam cocycles of an m x m grid.

    The harmonic representatives of the seam cocycles are the constant
    forms dx/m and dy/m, so the value is the coordinate displacement
    over m, mod 1.  Vertex v sits at (v mod m, v div m).
    """
    di = dst % m - src % m
    dj = dst // m - src // m
    return (Fraction(di, m) % 1, Fraction(dj, m) % 1)


def grid_x_loop(m, v):
    """Vertex list of the closed x-direction loop through vertex v."""
    i, j = v % m, v // m
    return [(i + t) % m + m * j for t in range(m + 1)]


def check_aj(m, value, looped_value, closed_form=None):
    failures = []
    for x in value:
        if not 0 <= x < 1:
            failures.append(f"component {x} not reduced mod 1")
        if (x * m).denominator != 1:
            failures.append(f"{m} * {x} is not an integer")
    if looped_value != value:
        failures.append(f"value {value} changed to {looped_value} along a longer path")
    if closed_form is not None and value != closed_form:
        failures.append(f"value {value}, closed form {closed_form}")
    return failures


# ---------------------------------------------------------------------------
# sparks on RP^3


def check_rp3_generators(K, free2, tor2, free3, tor3):
    """H^2(RP^3) = Z_2 with an exact witness, H^3(RP^3) = Z."""
    failures = []
    if free2 or len(tor2) != 1 or tor2[0][0] != 2:
        failures.append(f"H^2 generators: {len(free2)} free, orders {[t[0] for t in tor2]}")
    elif K.delta(tor2[0][2]) != tor2[0][1].scale(2):
        failures.append("torsion witness w fails delta(w) = 2 g")
    if len(free3) != 1 or tor3:
        failures.append(f"H^3 generators: {len(free3)} free, {len(tor3)} torsion")
    return failures


def check_spark_charge(K, s, R, d2, want_class, flat=False, fundamental=None):
    """A spark built from charge R: its class, and its curvature facts.

    ``flat`` asks for zero curvature (the charge is a torsion class);
    ``fundamental`` asks for curvature pairing to +-1 with [X] (the charge
    generates top cohomology).
    """
    failures = []
    if s.R != R:
        failures.append("charge of the spark is not the given cocycle")
    if d2 != want_class:
        failures.append(f"d2 class {d2}, expected {want_class}")
    phi = K.delta(s.a) + s.R
    if flat and not phi.is_zero():
        failures.append("curvature of a torsion charge is not zero")
    if fundamental is not None and abs(K.evaluate(phi, fundamental)) != 1:
        failures.append("curvature of a top generator does not pair to +-1 with [X]")
    return failures


def check_equivalence(same, trivial):
    failures = []
    if same is not True:
        failures.append("sparks of g and g + delta x are not equivalent")
    if trivial is not False:
        failures.append("spark of the Z_2 generator is equivalent to zero")
    return failures


def check_leibniz(K, s1, s2, st):
    """delta(a*) = phi_1 cup phi_2 - R_1 cup R_2 and R* = R_1 cup R_2."""
    phi1 = K.delta(s1.a) + s1.R
    phi2 = K.delta(s2.a) + s2.R
    failures = []
    if K.delta(st.a) != K.cup(phi1, phi2) - K.cup(s1.R, s2.R):
        failures.append("Leibniz identity fails")
    if st.R != K.cup(s1.R, s2.R):
        failures.append("charge of the star product is not R_1 cup R_2")
    return failures


def check_value(got, want, what):
    return [] if got == want else [f"{what} is {got}, expected {want}"]


def check_solution(rows, x, b):
    """Exact residual of a sparse system: rows @ x == b."""
    for i, row in enumerate(rows):
        if sum(v * x[j] for j, v in row.items()) != b[i]:
            return [f"row {i} of the solve has a nonzero residual"]
    return []


def check_kernel(rows, basis, want_dim):
    failures = []
    if len(basis) != want_dim:
        failures.append(f"kernel dimension {len(basis)}, expected {want_dim}")
    for vec in basis:
        failures.extend(check_solution(rows, vec, [0] * len(rows)))
    return failures


# ---------------------------------------------------------------------------
# verify reports


def check_verify(rc, text, dimension):
    """A ``diffchar verify`` report: exit 0, every expected check true."""
    failures = []
    if rc != 0:
        failures.append(f"exit code {rc}")
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return failures + ["stdout is not a JSON report"]
    expected = {f"sequences_k{k}" for k in range(-1, dimension + 1)} | {
        "star_leibniz",
        "d2_ring_homomorphism",
        "holonomy_invariance",
        "morse_homotopy_identity",
        "morse_homology",
        "hodge_residuals",
        "duality",
    }
    checks = report.get("checks", {})
    missing = sorted(expected - set(checks))
    if missing:
        failures.append(f"missing checks {missing}")
    false = sorted(name for name, ok in checks.items() if ok is not True)
    if false:
        failures.append(f"failed checks {false}")
    if report.get("results", {}).get("dimension") != dimension:
        failures.append(f"dimension is not {dimension}")
    if report.get("residuals", {}).get("hodge_max") != "0":
        failures.append("exact Hodge residual is not 0")
    return failures
