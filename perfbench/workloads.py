"""The four benchmark workloads, their rationale and their layer map.

Every repetition starts from freshly built complexes, so ``K._cache``
and every ``HodgeContext`` cache start cold.  Building the fixtures and
drawing the seeded inputs is set-up (``setup_s``); the calls listed
under each workload are the answer (``answer_s``).  Checks run after
the clock stops.  All work runs in one single-threaded process.

Workloads (the ``why`` strings below are the one-line rationale):

* ``lens-tables``: ``character_table`` on lens:5,2 and lens:7,2.  Bound
  by Smith normal form through ``cohomology.LatticeQuotient``; no
  ``RatElim``, no Hodge.  An SNF change in ``cohomology``/``exact`` must
  show here, a Hodge or spark change must not.
* ``grid-aj``: exact ``HodgeContext`` on torus_grid7 and torus_grid8,
  three seeded ``point_abel_jacobi`` queries per grid on one context,
  the third against the seam cocycles.  ``RatElim`` only as a nullspace
  (the Laplacian kernel), then cheap warm queries: shows
  harmonic-projection changes and bypasses factor-once-solve-many.
* ``rp3-sparks``: on rp3, ``cohomology_generators`` in degrees 2 and 3,
  ``spark_from_cocycle`` for the Z_2 generator g, again for g + delta x
  (seeded x, same complex, so the same 232 x 232 normal matrix is
  factored again), and for the degree-3 generator; then
  ``spark_equivalent``, ``star``, ``holonomy`` on [X] and
  ``torsion_linking_matrix(K, 2, 2)``.  ``RatElim`` with a right-hand
  side, and the SNF transforms read back: the tier-1 hot path.
* ``verify``: ``diffchar verify --trials 20`` on cp2 and torus_grid5 with
  stdout captured: the only workload that runs ``morse`` and the exact
  ``green()``; the end-to-end CLI path.  The CLI builds its own
  complexes, so here building is part of the answer and set-up is the
  import alone.

End-to-end metrics: ``answer_s`` is the mean answer time of one
repetition (the per-workload times tables_s, aj_s, spark_s and verify_s
are ``answer_s`` on lens-tables, grid-aj, rp3-sparks and verify);
``setup_s`` is import plus fixture construction; ``peak_rss_mb`` is the
peak resident memory of the run's process; the fail ratio is the
``failed`` / ``attempted`` pair of the result line.

Layer map: per-layer metric -> the end-to-end metric it should move,
on which workload.  Span times are self times from one traced pass.

=================================  ==========================================
builders.build_s                   setup_s on lens-tables, grid-aj and
                                   rp3-sparks; answer_s on verify, whose
                                   CLI calls build_space itself
complexes.coboundary_s             answer_s on lens-tables (cold delta_rows)
exact.snf_s                        answer_s on lens-tables, not on grid-aj
exact.normal_solve_s               answer_s on rp3-sparks and verify, not on
                                   lens-tables
exact.nullspace_s                  answer_s on grid-aj and verify
cohomology.integer_cohomology_s    answer_s on lens-tables
cohomology.generators_s            answer_s on rp3-sparks and grid-aj
characters.table_s                 answer_s on lens-tables (warm cohomology)
characters.sequences_s             answer_s on verify
characters.duality_s               answer_s on verify
sparks.from_cocycle_cold_s         answer_s on rp3-sparks
sparks.from_cocycle_repeat_s       answer_s on rp3-sparks; a reused
                                   factorization moves only this one
sparks.equivalent_s, star_s,       answer_s on rp3-sparks and verify
holonomy_s, linking_s
hodge.harmonic_basis_s             answer_s on grid-aj and verify (cold)
hodge.aj_warm_s                    answer_s on grid-aj
hodge.decompose_s                  answer_s on verify
morse.matching_s, flow_s, apply_s  answer_s on verify (and on lens-tables
                                   once cohomology goes through Morse)
cli.report_s                       answer_s on verify
=================================  ==========================================

The ``exact.*`` times are standalone probes on the fixtures above:
``smith_normal_form`` of each lens delta_k, a ``RatElim`` solve of
rp3's delta_1^T delta_1 x = -delta_1^T R, and ``rat_nullspace`` of
torus_grid8's uniform degree-1 Laplacian.  Counters (unit ``count``)
are summed over the fixtures a layer runs on (both lens spaces, both
grids, both verify spaces) and depend only on those fixtures, never on
the seed or the machine.  An ``*_nnz`` counter is the nonzeros fed to
the kernel, ``*_fill`` the nonzeros it left (the four SNF transforms,
or the eliminated rows), and ``*_den_bits`` the largest denominator bit
length in the result.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from diffchar import (
    HodgeContext,
    MorseFlow,
    character_table,
    cohomology_generators,
    curvature,
    d2_class,
    duality_match,
    greedy_matching,
    holonomy,
    point_abel_jacobi,
    spark_equivalent,
    spark_from_cocycle,
    star,
    torsion_linking_matrix,
    verify_sequences,
)
from diffchar import cli
from diffchar.builders import build_space, torus_grid_axis_cocycles
from diffchar.cohomology import cycle_lattice_basis, homology_structure, integer_cohomology
from diffchar.exact import RatElim, smith_normal_form
from diffchar.sparks import Spark, random_equivalent_shift, random_spark

import answers

LENS_PS = (5, 7)
GRID_SIZES = (7, 8)
NULLSPACE_GRID = 8
VERIFY_SPACES = (("cp2", 4), ("torus_grid5", 2))
VERIFY_TRIALS = 20

TIME_METRICS = (
    "builders.build_s",
    "complexes.coboundary_s",
    "exact.snf_s",
    "exact.normal_solve_s",
    "exact.nullspace_s",
    "cohomology.integer_cohomology_s",
    "cohomology.generators_s",
    "characters.table_s",
    "characters.sequences_s",
    "characters.duality_s",
    "sparks.from_cocycle_cold_s",
    "sparks.from_cocycle_repeat_s",
    "sparks.equivalent_s",
    "sparks.star_s",
    "sparks.holonomy_s",
    "sparks.linking_s",
    "hodge.harmonic_basis_s",
    "hodge.aj_warm_s",
    "hodge.decompose_s",
    "morse.matching_s",
    "morse.flow_s",
    "morse.apply_s",
    "cli.report_s",
)
COUNTERS = (
    "complexes.simplices",
    "complexes.coboundary_nnz",
    "exact.snf_nnz",
    "exact.snf_rank",
    "exact.snf_fill",
    "exact.normal_solve_nnz",
    "exact.normal_solve_fill",
    "exact.normal_solve_den_bits",
    "exact.nullspace_nnz",
    "exact.nullspace_fill",
    "exact.nullspace_den_bits",
    "hodge.harmonic_dim",
    "morse.stabilization_exponent",
    "morse.critical_cells",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # build(seed, tracer) -> fixtures; run(fixtures, seed, tracer) -> answers
    build: Callable
    run: Callable
    check: Callable  # check(fixtures, seed, answers, tally)
    probe: Optional[Callable] = None  # probe(fixtures, seed, answers, tracer, tally)


def _built(tr, name):
    with tr.span("builders.build"):
        return build_space(name)


def _nnz(rows):
    return sum(len(row) for row in rows)


def gram(rows, n):
    """A^T A for the sparse rows of A over n columns, zeros dropped."""
    out = [dict() for _ in range(n)]
    for row in rows:
        for i, vi in row.items():
            for j, vj in row.items():
                out[i][j] = out[i].get(j, 0) + vi * vj
    return [{j: v for j, v in r.items() if v} for r in out]


def _den_bits(vectors):
    return max(
        (Fraction(x).denominator.bit_length() for vec in vectors for x in vec),
        default=0,
    )


# ---------------------------------------------------------------------------
# lens-tables


def lens_build(seed, tr):
    # character tables take no input besides the space, so the seed is unused
    return [(p, _built(tr, f"lens:{p},2")) for p in LENS_PS]


def lens_run(spaces, seed, tr):
    tables = []
    for _, K in spaces:
        if tr.enabled:
            with tr.span("complexes.coboundary"):
                for k in range(K.dimension + 1):
                    K.delta_rows(k)
            tr.count("complexes.simplices", K.total_simplices())
            tr.count(
                "complexes.coboundary_nnz",
                sum(_nnz(K.delta_rows(k)) for k in range(K.dimension + 1)),
            )
            with tr.span("cohomology.integer_cohomology"):
                for k in range(K.dimension + 1):
                    integer_cohomology(K, k)
        with tr.span("characters.table"):
            tables.append(character_table(K))
    return tables


def lens_check(spaces, seed, tables, tally):
    for (p, K), table in zip(spaces, tables):
        tally.record(
            f"character_table lens:{p},2",
            answers.check_table(
                answers.table_rows(table), K.f_vector(), answers.lens_cohomology(p)
            ),
        )


def lens_probe(spaces, seed, tables, tr, tally):
    for p, K in spaces:
        for k in range(K.dimension + 1):
            rows = K.delta_rows(k)
            with tr.span("exact.snf"):
                snf = smith_normal_form(rows, nrows=len(rows), ncols=K.n_simplices(k))
            tr.count("exact.snf_nnz", _nnz(rows))
            tr.count("exact.snf_rank", snf.rank)
            tr.count(
                "exact.snf_fill",
                sum(_nnz(m) for m in (snf.U_rows, snf.UinvT_rows, snf.VT_rows, snf.Vinv_rows)),
            )
            tally.record(
                f"smith_normal_form lens:{p},2 delta_{k}",
                answers.check_snf(
                    snf.rank, snf.diag, K.f_vector(), answers.lens_cohomology(p), k
                ),
            )


# ---------------------------------------------------------------------------
# grid-aj


def grid_build(seed, tr):
    rng = random.Random(seed)
    grids = []
    for m in GRID_SIZES:
        K = _built(tr, f"torus_grid{m}")
        queries = [tuple(rng.sample(range(m * m), 2)) for _ in range(3)]
        grids.append((m, K, queries, list(torus_grid_axis_cocycles(K, m))))
    return grids


def _grid_basis(i, axis):
    return axis if i == 2 else None


def grid_run(grids, seed, tr):
    out = []
    for m, K, queries, axis in grids:
        if tr.enabled:
            with tr.span("cohomology.generators"):
                cohomology_generators(K, 1)
            with tr.span("hodge.harmonic_basis"):
                ctx = HodgeContext(K, method="exact")
                dim = len(ctx.harmonic_basis(1))
            tr.count("hodge.harmonic_dim", dim)
        else:
            ctx = HodgeContext(K, method="exact")
        with tr.span("hodge.aj_warm"):
            values = [
                point_abel_jacobi(ctx, src, dst, basis=_grid_basis(i, axis))
                for i, (src, dst) in enumerate(queries)
            ]
        out.append((ctx, values))
    return out


def grid_check(grids, seed, results, tally):
    for (m, K, queries, axis), (ctx, values) in zip(grids, results):
        for i, ((src, dst), value) in enumerate(zip(queries, values)):
            basis = _grid_basis(i, axis)
            longer = K.bfs_path(src, dst) + answers.grid_x_loop(m, dst)[1:]
            looped = point_abel_jacobi(ctx, src, dst, path=longer, basis=basis)
            closed = answers.grid_closed_form(m, src, dst) if basis else None
            tally.record(
                f"point_abel_jacobi torus_grid{m} {src}->{dst}",
                answers.check_aj(m, value, looped, closed),
            )


def grid_probe(grids, seed, results, tr, tally):
    m, K = next((m, K) for m, K, _, _ in grids if m == NULLSPACE_GRID)
    n = K.n_simplices(1)
    # delta_1^T delta_1 from the triangle rows plus delta_0 delta_0^T from
    # the vertex columns of delta_0
    cols = [dict() for _ in range(K.n_simplices(0))]
    for e, row in enumerate(K.delta_rows(0)):
        for v, c in row.items():
            cols[v][e] = c
    lap = gram(list(K.delta_rows(1)) + cols, n)
    elim = RatElim(lap, n)
    with tr.span("exact.nullspace"):
        basis = elim.nullspace()
    tr.count("exact.nullspace_nnz", _nnz(lap))
    tr.count("exact.nullspace_fill", _nnz(elim.rows))
    tr.count("exact.nullspace_den_bits", _den_bits(basis))
    tally.record(
        f"rat_nullspace torus_grid{m} Laplacian", answers.check_kernel(lap, basis, 2)
    )


# ---------------------------------------------------------------------------
# rp3-sparks


def rp3_build(seed, tr):
    K = _built(tr, "rp3")
    rng = random.Random(seed)
    x = K.cochain(1, tuple(rng.randint(-2, 2) for _ in range(K.n_simplices(1))))
    return K, x


def rp3_run(fixtures, seed, tr):
    K, x = fixtures
    with tr.span("cohomology.generators"):
        gens2 = cohomology_generators(K, 2)
        gens3 = cohomology_generators(K, 3)
    g = gens2[1][0][1]
    with tr.span("sparks.from_cocycle_cold"):
        s = spark_from_cocycle(K, g)
    g_moved = g + K.delta(x)
    with tr.span("sparks.from_cocycle_repeat"):
        s_moved = spark_from_cocycle(K, g_moved)
    with tr.span("sparks.from_cocycle_cold"):
        s_top = spark_from_cocycle(K, gens3[0][0])
    with tr.span("sparks.equivalent"):
        same = spark_equivalent(K, s, s_moved)
    with tr.span("sparks.star"):
        st = star(K, s, s_moved)
    with tr.span("sparks.holonomy"):
        hol = holonomy(K, st, K.fundamental_cycle())
    with tr.span("sparks.linking"):
        link = torsion_linking_matrix(K, 2, 2)
    return {
        "gens2": gens2, "gens3": gens3, "g": g, "g_moved": g_moved,
        "s": s, "s_moved": s_moved, "s_top": s_top, "same": same,
        "star": st, "holonomy": hol, "linking": link,
    }


def rp3_check(fixtures, seed, a, tally):
    K, _ = fixtures
    fc = K.fundamental_cycle()
    z2 = ((), (1,))
    tally.record(
        "cohomology_generators rp3",
        answers.check_rp3_generators(K, *a["gens2"], *a["gens3"]),
    )
    tally.record(
        "spark_from_cocycle g",
        answers.check_spark_charge(K, a["s"], a["g"], d2_class(K, a["s"]), z2, flat=True),
    )
    tally.record(
        "spark_from_cocycle g + delta x",
        answers.check_spark_charge(
            K, a["s_moved"], a["g_moved"], d2_class(K, a["s_moved"]), z2, flat=True
        ),
    )
    top = a["gens3"][0][0]
    tally.record(
        "spark_from_cocycle degree-3 generator",
        answers.check_spark_charge(
            K, a["s_top"], top, d2_class(K, a["s_top"]), ((1,), ()), fundamental=fc
        ),
    )
    zero = Spark(K.zero_cochain(1), K.zero_cochain(2))
    tally.record(
        "spark_equivalent",
        answers.check_equivalence(a["same"], spark_equivalent(K, a["s"], zero)),
    )
    tally.record("star", answers.check_leibniz(K, a["s"], a["s_moved"], a["star"]))
    # the Z_2 generator of H^2(RP^3) links itself with value 1/2
    tally.record(
        "holonomy on [X]",
        answers.check_value(a["holonomy"], Fraction(1, 2), "holonomy of g * g on [X]"),
    )
    tally.record(
        "torsion_linking_matrix",
        answers.check_value(a["linking"], [[Fraction(1, 2)]], "linking matrix"),
    )


def rp3_probe(fixtures, seed, a, tr, tally):
    K, _ = fixtures
    n = K.n_simplices(1)
    D = K.delta_rows(1)
    normal = gram(D, n)
    rhs = [0] * n
    for r, row in zip(a["g"].values, D):
        for i, vi in row.items():
            rhs[i] -= vi * r
    elim = RatElim(normal, n, rhs=[rhs])
    with tr.span("exact.normal_solve"):
        x = elim.solution()
    tr.count("exact.normal_solve_nnz", _nnz(normal))
    tr.count("exact.normal_solve_fill", _nnz(elim.rows))
    tr.count("exact.normal_solve_den_bits", _den_bits([x]))
    tally.record(
        "RatElim normal solve rp3", answers.check_solution(normal, x, rhs)
    )


# ---------------------------------------------------------------------------
# verify


def verify_build(seed, tr):
    # the CLI builds its own complexes, inside the answer; only the traced
    # pass, which makes the CLI's calls itself, needs them as fixtures
    if not tr.enabled:
        return None
    return [_built(tr, name) for name, _ in VERIFY_SPACES]


def run_cli_verify(name, seed):
    """``diffchar verify`` on one space, stdout captured: (exit code, report)."""
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        rc = cli.main([
            "verify", "--space", name,
            "--trials", str(VERIFY_TRIALS), "--seed", str(seed),
        ])
    return rc, stdout.getvalue()


def verify_run(spaces, seed, tr):
    if tr.enabled:
        return [
            traced_verify(K, name, seed, tr)
            for (name, _), K in zip(VERIFY_SPACES, spaces)
        ]
    return [run_cli_verify(name, seed) for name, _ in VERIFY_SPACES]


def traced_verify(K, name, seed, tr):
    """The calls of ``cli.cmd_verify``, in its order, one layer per span."""
    inputs = {"space": name, "seed": seed, "trials": VERIFY_TRIALS}
    rng = random.Random(seed)
    n = K.dimension
    checks = {}
    residuals = {}

    with tr.span("characters.sequences"):
        for k in range(-1, n + 1):
            checks[f"sequences_k{k}"] = verify_sequences(K, k, rng=rng, trials=4).ok

    with tr.span("characters.duality"):
        if K.fundamental_cycle() is not None:
            checks["duality"] = all(duality_match(K, k) for k in range(-1, n + 1))

    pairs = [(k1, k2) for k1 in range(n) for k2 in range(n - 1 - k1 + 1)]
    if pairs:
        with tr.span("sparks.star"):
            ok_leibniz = ok_ring = True
            for _ in range(VERIFY_TRIALS):
                k1, k2 = rng.choice(pairs)
                s1, s2 = random_spark(K, k1, rng), random_spark(K, k2, rng)
                st = star(K, s1, s2)
                lhs = K.delta(st.a)
                rhs = K.cup(curvature(K, s1), curvature(K, s2)) - K.cup(s1.R, s2.R)
                ok_leibniz = ok_leibniz and lhs == rhs
                shifted = star(
                    K,
                    random_equivalent_shift(K, s1, rng),
                    random_equivalent_shift(K, s2, rng),
                )
                ok_ring = ok_ring and d2_class(K, shifted) == d2_class(K, st)
        checks["star_leibniz"] = ok_leibniz
        checks["d2_ring_homomorphism"] = ok_ring

    with tr.span("sparks.holonomy"):
        ok_hol = True
        for _ in range(VERIFY_TRIALS):
            k = rng.randrange(0, n + 1)
            s = random_spark(K, k, rng)
            s2 = random_equivalent_shift(K, s, rng)
            for vec in cycle_lattice_basis(K, k):
                z = K.chain(k, vec)
                ok_hol = ok_hol and holonomy(K, s, z) == holonomy(K, s2, z)
    checks["holonomy_invariance"] = ok_hol

    with tr.span("morse.matching"):
        matching = greedy_matching(K)
    with tr.span("morse.flow"):
        flow = MorseFlow(K, matching)
    tr.count("morse.stabilization_exponent", flow.stabilization_exponent)
    tr.count("morse.critical_cells", sum(len(c) for c in flow.critical.values()))
    with tr.span("morse.apply"):
        ok_homotopy = True
        for k in range(n + 1):
            for i in range(K.n_simplices(k)):
                z = K.chain(k, tuple(1 if j == i else 0 for j in range(K.n_simplices(k))))
                lhs = K.boundary(flow.homotopy(z)) + flow.homotopy(K.boundary(z))
                ok_homotopy = ok_homotopy and lhs == z - flow.project(z)
        checks["morse_homotopy_identity"] = ok_homotopy
        checks["morse_homology"] = all(
            flow.morse_homology(k) == homology_structure(K, k) for k in range(n + 1)
        )

    with tr.span("hodge.decompose"):
        ctx = HodgeContext(K, method="auto", tol=1e-10)
        worst = Fraction(0) if ctx.exact else 0.0
        for k in range(n + 1):
            if K.n_simplices(k) == 0:
                continue
            u = K.cochain(
                k,
                tuple(
                    Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4)))
                    for _ in range(K.n_simplices(k))
                ),
            )
            dec = ctx.decompose(u)
            for val in ctx.decomposition_residuals(u, dec).values():
                worst = max(worst, abs(val))
    residuals["hodge_max"] = worst
    checks["hodge_residuals"] = worst == 0 if ctx.exact else worst <= 1e-10

    report = cli.RunReport("verify", inputs, {"dimension": n}, residuals, checks)
    with tr.span("cli.report"):
        text = cli.canonical_json(report.to_dict())
    return (0 if report.passed() else 1), text


def verify_check(spaces, seed, results, tally):
    for (name, dim), (rc, text) in zip(VERIFY_SPACES, results):
        tally.record(f"verify {name}", answers.check_verify(rc, text, dim))


def verify_probe(spaces, seed, results, tr, tally):
    # the traced per-layer times are only worth citing while traced_verify
    # does the CLI's work: its report must stay byte-identical
    for (name, _), traced in zip(VERIFY_SPACES, results):
        same = traced == run_cli_verify(name, seed)
        tally.record(
            f"traced verify {name}", [] if same else ["report differs from the CLI's"]
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lens-tables",
            "SNF-bound character tables of lens:5,2 and lens:7,2; no RatElim or Hodge",
            lens_build, lens_run, lens_check, lens_probe,
        ),
        Workload(
            "grid-aj",
            "exact Hodge on torus_grid7/8: Laplacian nullspace, then warm seeded "
            "Abel-Jacobi queries",
            grid_build, grid_run, grid_check, grid_probe,
        ),
        Workload(
            "rp3-sparks",
            "rp3 sparks: two RatElim normal solves on one matrix, equivalence, "
            "star, holonomy, linking",
            rp3_build, rp3_run, rp3_check, rp3_probe,
        ),
        Workload(
            "verify",
            "diffchar verify on cp2 and torus_grid5: the CLI path, Morse flow and "
            "exact Green operator",
            verify_build, verify_run, verify_check, verify_probe,
        ),
    )
}
