"""Self-test of the answer checks on tiny fixtures.

    python3 perfbench/selftest.py

Feeds every checker in answers.py one right answer computed on the
7-vertex torus or torus_grid3, and deliberately wrong answers (an
altered table row, a shifted Abel-Jacobi value, a claimed equivalence
that does not hold, a failed verify report, ...).  Passes, with exit
code 0, when every right answer is accepted and every wrong one is
counted as a failed operation.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from run import load_library


def shifted(value, by):
    return tuple((x + by) % 1 for x in value)


def cases():
    """Yield (label, failures, wrong) for every checker probe."""
    import answers
    from diffchar import (
        HodgeContext, character_table, cohomology_generators, d2_class,
        point_abel_jacobi, spark_equivalent, spark_from_cocycle, star,
    )
    from diffchar import cli
    from diffchar.builders import build_space, torus_grid_axis_cocycles
    from diffchar.exact import rat_nullspace, smith_normal_form
    from diffchar.sparks import Spark, random_spark
    from workloads import gram

    K = build_space("torus")
    torus_h = [(1, ()), (2, ()), (1, ())]
    f = K.f_vector()

    rows = answers.table_rows(character_table(K))
    yield "torus table", answers.check_table(rows, f, torus_h), False
    bumped = list(rows)
    bumped[1] = (rows[1][0], rows[1][1], rows[1][2] + 1, rows[1][3])
    yield "table row with curvature dimension + 1", answers.check_table(bumped, f, torus_h), True
    twisted = list(rows)
    twisted[2] = rows[2][:3] + ((1, (2,)),)
    yield "table row with a Z_2 added", answers.check_table(twisted, f, torus_h), True
    yield "torus table against lens:3 cohomology", answers.check_table(
        rows, f, answers.lens_cohomology(3)), True

    for k in range(K.dimension + 1):
        D = K.delta_rows(k)
        snf = smith_normal_form(D, nrows=len(D), ncols=K.n_simplices(k))
        yield f"SNF delta_{k}", answers.check_snf(snf.rank, snf.diag, f, torus_h, k), False
    yield "SNF delta_1 with rank + 1", answers.check_snf(snf.rank + 1, snf.diag, f, torus_h, 1), True
    yield "SNF delta_0 with a factor 2", answers.check_snf(
        f[0] - 1, [1] * (f[0] - 2) + [2], f, torus_h, 0), True

    m = 3
    G = build_space(f"torus_grid{m}")
    ctx = HodgeContext(G, method="exact")
    axis = list(torus_grid_axis_cocycles(G, m))
    for src, dst, basis in ((0, 7, axis), (4, 2, axis), (1, 8, None)):
        value = point_abel_jacobi(ctx, src, dst, basis=basis)
        longer = G.bfs_path(src, dst) + answers.grid_x_loop(m, dst)[1:]
        looped = point_abel_jacobi(ctx, src, dst, path=longer, basis=basis)
        closed = answers.grid_closed_form(m, src, dst) if basis else None
        tag = f"AJ {src}->{dst}" + (" seam basis" if basis else "")
        yield tag, answers.check_aj(m, value, looped, closed), False
        yield tag + " shifted by 1/3", answers.check_aj(m, shifted(value, Fraction(1, 3)), looped, closed), True
        yield tag + " shifted by 1/6", answers.check_aj(m, shifted(value, Fraction(1, 6)), looped, closed), True

    fc = K.fundamental_cycle()
    free2, _ = cohomology_generators(K, 2)
    top = free2[0]
    s = spark_from_cocycle(K, top)
    d2 = d2_class(K, s)
    yield "top-generator spark", answers.check_spark_charge(
        K, s, top, d2, ((1,), ()), fundamental=fc), False
    yield "top-generator spark with a wrong class", answers.check_spark_charge(
        K, s, top, ((2,), ()), ((1,), ()), fundamental=fc), True
    yield "top-generator spark claimed flat", answers.check_spark_charge(
        K, s, top, d2, ((1,), ()), flat=True), True
    doubled = Spark(s.a, top.scale(2))
    yield "twice the top generator as a generator", answers.check_spark_charge(
        K, doubled, doubled.R, d2, ((1,), ()), fundamental=fc), True
    yield "torus generators as RP^3 generators", answers.check_rp3_generators(
        K, *cohomology_generators(K, 2), *cohomology_generators(K, 2)), True

    rng = random.Random(0)
    x = K.cochain(1, tuple(rng.randint(-2, 2) for _ in range(K.n_simplices(1))))
    s_moved = spark_from_cocycle(K, top + K.delta(x))
    zero = Spark(K.zero_cochain(1), K.zero_cochain(2))
    same = spark_equivalent(K, s, s_moved)
    trivial = spark_equivalent(K, s, zero)
    yield "equivalent sparks", answers.check_equivalence(same, trivial), False
    yield "equivalence denied", answers.check_equivalence(False, trivial), True
    yield "spark claimed trivial", answers.check_equivalence(same, True), True

    s0, s1 = random_spark(K, 0, rng), random_spark(K, 0, rng)
    st = star(K, s0, s1)
    yield "star product", answers.check_leibniz(K, s0, s1, st), False
    a = list(st.a.values)
    a[0] += Fraction(1, 2)
    yield "star product with a moved potential", answers.check_leibniz(
        K, s0, s1, Spark(K.cochain(st.a.degree, a), st.R)), True
    yield "holonomy 0 for 1/2", answers.check_value(Fraction(0), Fraction(1, 2), "holonomy"), True
    yield "linking [[0]]", answers.check_value([[Fraction(0)]], [[Fraction(1, 2)]], "linking"), True

    lap = gram(K.delta_rows(0), K.n_simplices(0))
    basis = rat_nullspace(lap, len(lap))
    yield "graph Laplacian kernel", answers.check_kernel(lap, basis, 1), False
    yield "kernel of the wrong dimension", answers.check_kernel(lap, basis, 2), True
    bent = [list(basis[0])]
    bent[0][0] += 1
    yield "vector outside the kernel", answers.check_kernel(lap, bent, 1), True
    yield "solve with a residual", answers.check_solution(lap, bent[0], [0] * len(lap)), True

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(["verify", "--space", "torus", "--trials", "2", "--seed", "0"])
    text = out.getvalue()
    yield "torus verify report", answers.check_verify(rc, text, 2), False
    yield "verify with exit code 1", answers.check_verify(1, text, 2), True
    report = json.loads(text)
    report["checks"]["star_leibniz"] = False
    yield "verify report with a false check", answers.check_verify(0, json.dumps(report), 2), True
    report = json.loads(text)
    del report["checks"]["morse_homology"]
    yield "verify report missing a check", answers.check_verify(0, json.dumps(report), 2), True
    report = json.loads(text)
    report["residuals"]["hodge_max"] = "1/7"
    yield "verify report with a Hodge residual", answers.check_verify(0, json.dumps(report), 2), True
    yield "verify output that is not JSON", answers.check_verify(0, "Traceback", 2), True


def main():
    error = load_library()
    if error:
        print(f"selftest: {error}", file=sys.stderr)
        return 2
    from answers import Tally

    right, wrong = Tally(), Tally()
    ok = True
    for label, failures, is_wrong in cases():
        (wrong if is_wrong else right).record(label, failures)
        good = bool(failures) == is_wrong
        ok = ok and good
        kind = "wrong" if is_wrong else "right"
        print(f"{'ok ' if good else 'BAD'} {kind:5} {label}")
    print(f"right answers: {right.attempted} attempted, {right.failed} failed")
    print(f"wrong answers: {wrong.attempted} attempted, {wrong.failed} failed")
    ok = ok and right.failed == 0 and wrong.failed == wrong.attempted
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
