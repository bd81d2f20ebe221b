"""Command line front end.

Batch plumbing around the library: build fixtures, print cohomology,
character and duality tables, run the invariant verification suite, and
expose spark, Hodge, Morse and low-degree operations on JSON artifacts.

Exit codes: 0 every check passed, 1 an invariant check failed, 2 usage
error, 3 input error.  With ``--format json`` (the default) identical
invocations print byte-identical reports to stdout; wall time goes to
stderr so it never perturbs the report.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .builders import DEFAULT_BUDGET, build_space, split_top_comma
from .characters import (
    CharacterStructure,
    character_structure,
    dual_structure,
    duality_match,
    kunneth_character_rows,
    verify_sequences,
)
from .cohomology import (
    circle_cohomology_structure,
    cohomology_structure,
    cohomology_structures,
    homology_structure,
    integer_cohomology,
)
from .complexes import (
    Chain,
    SimplicialComplex,
    json_int,
    json_scalars,
    json_vector,
    scalar_str,
)
from .hodge import (
    DEFAULT_METHOD,
    DEFAULT_TOL,
    HodgeContext,
    point_abel_jacobi,
    spark_from_cocycle,
)
from .lowdegree import (
    _glued_spark,
    cech_gerbe,
    chern_cocycle,
    gerbe_total_differential,
    patch_cover,
    phase_curvature,
    phase_holonomy,
    phase_spark,
    spark_phases,
    star_cover,
    total_flux,
)
from .morse import MorseFlow, greedy_matching, morse_spark
from .sparks import (
    curvature,
    d2_class,
    duality_pair,
    holonomy,
    mod1,
    periods,
    random_cochain,
    random_equivalent_shift,
    random_spark,
    spark_equivalent,
    spark_from_json,
    spark_to_json,
    star,
    torsion_linking_matrix,
)


class InputDataError(ValueError):
    """A file or parameter could not be understood."""


# ---------------------------------------------------------------------------
# reports and serialization


def _enc(x):
    """Recursively turn report values into JSON-safe primitives."""
    if isinstance(x, bool) or isinstance(x, str) or x is None:
        return x
    if isinstance(x, Fraction):
        return scalar_str(x)
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, int):
        return x
    if isinstance(x, dict):
        return {str(k): _enc(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_enc(v) for v in x]
    if hasattr(x, "to_json_dict"):
        return _enc(x.to_json_dict())
    raise TypeError(f"cannot serialize {type(x).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(_enc(obj), sort_keys=True, indent=2) + "\n"


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    def digest(self):
        return hashlib.sha256(canonical_json(self.inputs).encode()).hexdigest()

    def passed(self):
        return all(self.checks.values())

    def to_dict(self):
        return {
            "command": self.command,
            "inputs": self.inputs,
            "digest": self.digest(),
            "results": self.results,
            "residuals": self.residuals,
            "checks": self.checks,
        }


def _render_md(rows):
    headers = list(rows[0]) if rows else []
    cells = [[str(_enc(r[h])) for h in headers] for r in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def line(vals):
        return "| " + " | ".join(v.ljust(w) for v, w in zip(vals, widths)) + " |"
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def _render_csv(rows):
    buf = io.StringIO()
    headers = list(rows[0]) if rows else []
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for r in rows:
        writer.writerow([_enc(r[h]) for h in headers])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# input loading


def _read_input(path, inputs, key):
    """Parse the JSON file at ``path``, reading its bytes once.

    The sha256 of those bytes goes into the report ``inputs`` under
    ``key``, appended when that entry is a list.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    sha = hashlib.sha256(raw).hexdigest()
    if isinstance(inputs.get(key), list):
        inputs[key].append(sha)
    else:
        inputs[key] = sha
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise InputDataError(f"{path}: not valid JSON ({exc})") from exc


def load_complex(args) -> tuple[SimplicialComplex, dict]:
    """Build from --space or load from --input; returns (K, input facts)."""
    if getattr(args, "input", None):
        inputs = {}
        data = _read_input(args.input, inputs, "input")
        K = SimplicialComplex.from_json_dict(
            data, auto_close=getattr(args, "auto_close", False)
        )
        return K, inputs
    budget = getattr(args, "budget", DEFAULT_BUDGET)
    return build_space(args.space, budget), {"space": args.space}


def _load_cochain(K, path, inputs, key):
    return json_vector(K, _read_input(path, inputs, key), path)


def _load_connection(K, path, inputs):
    """Edge phases, either ``{"edges": [...]}`` or a degree-1 cochain file."""
    data = _read_input(path, inputs, "theta")
    if isinstance(data, dict) and "edges" in data:
        return K.cochain(1, json_scalars(data["edges"], f"{path}: edges"))
    return json_vector(K, data, path, degree=1)


def _load_chain(K, path, inputs):
    return json_vector(K, _read_input(path, inputs, "cycle"), path, cls=Chain)


def _load_spark(K, path, inputs, key="spark"):
    return spark_from_json(K, _read_input(path, inputs, key), path)


def _load_spark_pair(K, args, inputs):
    inputs["sparks"] = []
    return [_load_spark(K, path, inputs, "sparks") for path in (args.spark, args.spark2)]


def _write_artifact(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


def _spark_results(s, out):
    """The spark for the report, or where ``--out`` wrote it instead."""
    if not out:
        return {"spark": spark_to_json(s)}
    _write_artifact(out, spark_to_json(s))
    return {"written": out}


def _hodge_context(K, args, inputs):
    """Context from --weights, and --method/--tol where the command has them.

    The flags that differ from their defaults go into ``inputs`` (the
    weights as a file sha), so default-flag digests stay unchanged.
    """
    weights = None
    if args.weights is not None:
        data = _read_input(args.weights, inputs, "weights")
        try:
            weights = {
                json_int(k, f"{args.weights}: weights degree"):
                json_scalars(vals, f"{args.weights}: weights {k}")
                for k, vals in data.items()
            }
        except (TypeError, AttributeError) as exc:
            raise InputDataError(f"{args.weights}: malformed weights ({exc})") from exc
    method = getattr(args, "method", DEFAULT_METHOD)
    tol = getattr(args, "tol", DEFAULT_TOL)
    if method != DEFAULT_METHOD:
        inputs["method"] = method
    if tol != DEFAULT_TOL:
        inputs["tol"] = tol
    return HodgeContext(K, weights=weights, method=method, tol=tol)


# ---------------------------------------------------------------------------
# command handlers; each returns (RunReport, table rows or None)


def cmd_build(args):
    K, inputs = load_complex(args)
    counts = {str(k): K.n_simplices(k) for k in range(K.dimension + 1)}
    results = {
        "dimension": K.dimension,
        "simplices": counts,
        "euler": K.euler_characteristic(),
        "closed_oriented": K.fundamental_cycle() is not None,
    }
    if args.out:
        _write_artifact(args.out, K.to_json_dict())
        results["written"] = args.out
    else:
        results["complex"] = K.to_json_dict()
    return RunReport("build", inputs, results), None


def cmd_cohomology(args):
    K, inputs = load_complex(args)
    inputs["k"] = args.k
    g = cohomology_structure(K, args.k)
    results = {
        "integer": g.to_json_dict(),
        "integer_format": g.format(),
        "circle": circle_cohomology_structure(K, args.k).to_json_dict(),
        "homology": homology_structure(K, args.k).format(),
    }
    return RunReport("cohomology", inputs, results), None


def _character_rows(K, ks):
    rows = []
    for k in ks:
        c = character_structure(K, k)
        rows.append(
            {
                "degree": c.degree,
                "torus_rank": c.torus_rank,
                "exact_dim": c.exact_dim,
                "discrete": c.discrete.format(),
                "structure": c.format(),
            }
        )
    return rows


def cmd_characters(args):
    K, inputs = load_complex(args)
    ks = range(-1, K.dimension + 1) if args.k is None else [args.k]
    inputs["k"] = args.k
    rows = _character_rows(K, ks)
    return RunReport("characters", inputs, {"table": rows}), rows


def cmd_dual(args):
    K, inputs = load_complex(args)
    n = K.dimension
    ks = range(-1, n + 1) if args.k is None else [args.k]
    inputs["k"] = args.k
    rows = []
    for k in ks:
        rows.append(
            {
                "degree": k,
                "predicted": dual_structure(K, k).format(),
                "actual": character_structure(K, n - k - 1).format(),
                "match": duality_match(K, k),
            }
        )
    checks = {"duality_match": all(r["match"] for r in rows)}
    report = RunReport("dual", inputs, {"table": rows}, checks=checks)
    return report, rows


def cmd_tables(args):
    name = args.space.strip().lower()
    if name.startswith("kunneth:"):
        body = name[len("kunneth:"):]
        if "," not in body:
            raise InputDataError(f"expected kunneth:A,B, got {name!r}")
        left, right = split_top_comma(body)
        A, B = build_space(left, args.budget), build_space(right, args.budget)
        fa, fb = cohomology_structures(A), cohomology_structures(B)
        total = A.dimension + B.dimension
        rows = [
            {
                "degree": k,
                "torus_rank": t,
                "discrete": g.format(),
                "structure": CharacterStructure(k, t, 0, g).format(),
            }
            for k, t, g in kunneth_character_rows(fa, fb, total)
        ]
        return RunReport("tables", {"space": name}, {"table": rows}), rows
    K = build_space(name, args.budget)
    rows = _character_rows(K, range(-1, K.dimension + 1))
    return RunReport("tables", {"space": name}, {"table": rows}), rows


def cmd_verify(args):
    if args.trials < 0:
        raise InputDataError(f"--trials must be nonnegative, got {args.trials}")
    K, inputs = load_complex(args)
    inputs.update({"seed": args.seed, "trials": args.trials})
    rng = random.Random(args.seed)
    n = K.dimension
    checks = {}
    residuals = {}

    for k in range(-1, n + 1):
        rep = verify_sequences(K, k, rng=rng, trials=4)
        checks[f"sequences_k{k}"] = rep.ok

    if K.fundamental_cycle() is not None:
        checks["duality"] = all(duality_match(K, k) for k in range(-1, n + 1))

    pairs = [(k1, k2) for k1 in range(n) for k2 in range(n - 1 - k1 + 1)]
    if pairs:
        ok_leibniz = ok_ring = True
        for _ in range(args.trials):
            k1, k2 = rng.choice(pairs)
            s1, s2 = random_spark(K, k1, rng), random_spark(K, k2, rng)
            st = star(K, s1, s2)
            lhs = K.delta(st.a)
            rhs = K.cup(curvature(K, s1), curvature(K, s2)) - K.cup(s1.R, s2.R)
            ok_leibniz = ok_leibniz and lhs == rhs
            t1 = random_equivalent_shift(K, s1, rng)
            t2 = random_equivalent_shift(K, s2, rng)
            # d2_class reads only the charge of star(t1, t2): t1.R cup t2.R
            R = K.cup(t1.R, t2.R)
            ring_class = integer_cohomology(K, R.degree).coords(R.form)
            ok_ring = ok_ring and ring_class == d2_class(K, st)
        checks["star_leibniz"] = ok_leibniz
        checks["d2_ring_homomorphism"] = ok_ring

    ok_hol = True
    # no spark to draw below dimension 0: the check is vacuous, as are
    # the sequence checks
    for _ in range(args.trials if n >= 0 else 0):
        k = rng.randrange(0, n + 1)
        s = random_spark(K, k, rng)
        s2 = random_equivalent_shift(K, s, rng)
        ok_hol = ok_hol and periods(K, s.a - s2.a).is_integral()
    checks["holonomy_invariance"] = ok_hol

    flow = MorseFlow(K, greedy_matching(K))
    checks["morse_homotopy_identity"] = flow.homotopy_identity()
    checks["morse_homology"] = all(
        flow.morse_homology(k) == homology_structure(K, k) for k in range(n + 1)
    )

    ctx = _hodge_context(K, args, inputs)
    defects = []
    for k in range(n + 1):
        u = random_cochain(K, k, rng, 12, 4)
        defects.extend(ctx.decomposition_residuals(u, ctx.decompose(u)).values())
    residuals["hodge_max"], checks["hodge_residuals"] = ctx.judge(defects)

    report = RunReport("verify", inputs, {"dimension": n}, residuals, checks)
    return report, None


# -- spark subcommands ------------------------------------------------------


def cmd_spark_new(args):
    K, inputs = load_complex(args)
    if args.cocycle:
        s = spark_from_cocycle(K, _load_cochain(K, args.cocycle, inputs, "cocycle"))
    else:
        if args.k is None:
            raise InputDataError("spark new needs --cocycle FILE or --k with --seed")
        s = random_spark(K, args.k, random.Random(args.seed))
        inputs.update({"k": args.k, "seed": args.seed})
    return RunReport("spark new", inputs, _spark_results(s, args.out)), None


def cmd_spark_d1(args):
    K, inputs = load_complex(args)
    s = _load_spark(K, args.spark, inputs)
    return RunReport("spark d1", inputs, {"curvature": curvature(K, s)}), None


def cmd_spark_d2(args):
    K, inputs = load_complex(args)
    s = _load_spark(K, args.spark, inputs)
    free, torsion = d2_class(K, s)
    results = {"free": list(free), "torsion": list(torsion)}
    return RunReport("spark d2", inputs, results), None


def cmd_spark_equiv(args):
    K, inputs = load_complex(args)
    s1, s2 = _load_spark_pair(K, args, inputs)
    same = spark_equivalent(K, s1, s2)
    report = RunReport(
        "spark equiv", inputs, {"equivalent": same}, checks={"equivalent": same}
    )
    return report, None


def cmd_spark_holonomy(args):
    K, inputs = load_complex(args)
    s = _load_spark(K, args.spark, inputs)
    if args.cycle:
        z = _load_chain(K, args.cycle, inputs)
    else:
        z = K.fundamental_cycle()
        if z is None:
            raise InputDataError("no fundamental cycle; pass --cycle FILE")
    return RunReport("spark holonomy", inputs, {"holonomy": holonomy(K, s, z)}), None


def cmd_spark_star(args):
    K, inputs = load_complex(args)
    s1, s2 = _load_spark_pair(K, args, inputs)
    st = star(K, s1, s2)
    return RunReport("spark star", inputs, _spark_results(st, args.out)), None


def cmd_spark_pair(args):
    K, inputs = load_complex(args)
    s1, s2 = _load_spark_pair(K, args, inputs)
    return RunReport("spark pair", inputs, {"pairing": duality_pair(K, s1, s2)}), None


def cmd_spark_link(args):
    K, inputs = load_complex(args)
    inputs.update({"p": args.p, "q": args.q})
    matrix = torsion_linking_matrix(K, args.p, args.q)
    rows = [[scalar_str(v) for v in row] for row in matrix]
    return RunReport("spark link", inputs, {"matrix": rows}), None


# -- hodge subcommands ------------------------------------------------------


def cmd_hodge_decompose(args):
    K, inputs = load_complex(args)
    u = _load_cochain(K, args.cochain, inputs, "cochain")
    ctx = _hodge_context(K, args, inputs)
    dec = ctx.decompose(u)
    res = ctx.decomposition_residuals(u, dec)
    checks = {"residuals": ctx.judge(res.values())[1]}
    results = {
        "method": ctx.method,
        "harmonic": dec.harmonic,
        "primitive": dec.primitive,
        "coprimitive": dec.coprimitive,
    }
    return RunReport("hodge decompose", inputs, results, res, checks), None


def cmd_hodge_spark(args):
    K, inputs = load_complex(args)
    R = _load_cochain(K, args.cocycle, inputs, "cocycle")
    ctx = _hodge_context(K, args, inputs)
    s = ctx.hodge_spark(R)
    results = {"spark": spark_to_json(s), "curvature": curvature(K, s)}
    if args.out:
        _write_artifact(args.out, spark_to_json(s))
        results["written"] = args.out
    return RunReport("hodge spark", inputs, results), None


def cmd_hodge_normal(args):
    K, inputs = load_complex(args)
    s = _load_spark(K, args.spark, inputs)
    ctx = _hodge_context(K, args, inputs)
    nf = ctx.spark_normal_form(s)
    checks = {"equivalent": spark_equivalent(K, s, nf)}
    return RunReport(
        "hodge normal", inputs, {"spark": spark_to_json(nf)}, checks=checks
    ), None


def cmd_hodge_aj(args):
    K, inputs = load_complex(args)
    inputs.update({"src": args.src, "dst": args.dst, "path": args.path})
    ctx = _hodge_context(K, args, inputs)
    path = None
    if args.path:
        path = [json_int(v, "--path: vertex") for v in args.path.split(",")]
    values = point_abel_jacobi(ctx, args.src, args.dst, path=path)
    return RunReport("hodge aj", inputs, {"values": list(values)}), None


# -- morse subcommands ------------------------------------------------------


def cmd_morse_match(args):
    K, inputs = load_complex(args)
    matching = greedy_matching(K)
    flow = MorseFlow(K, matching)
    results = {
        "pairs": [list(p) for p in sorted(matching.pairs)],
        "critical": {str(k): len(v) for k, v in sorted(flow.critical.items())},
        "stabilization_exponent": flow.stabilization_exponent,
    }
    return RunReport("morse match", inputs, results), None


def cmd_morse_homology(args):
    K, inputs = load_complex(args)
    flow = MorseFlow(K, greedy_matching(K))
    ks = range(K.dimension + 1) if args.k is None else [args.k]
    inputs["k"] = args.k
    rows = []
    for k in ks:
        m = flow.morse_homology(k)
        s = homology_structure(K, k)
        rows.append(
            {"degree": k, "morse": m.format(), "simplicial": s.format(), "match": m == s}
        )
    checks = {"homology_match": all(r["match"] for r in rows)}
    return RunReport("morse homology", inputs, {"table": rows}, checks=checks), rows


def cmd_morse_verify(args):
    K, inputs = load_complex(args)
    flow = MorseFlow(K, greedy_matching(K))
    checks = {"homotopy_identity": flow.homotopy_identity()}
    return RunReport("morse verify", inputs, checks=checks), None


def cmd_morse_spark(args):
    K, inputs = load_complex(args)
    phi = _load_cochain(K, args.cocycle, inputs, "cocycle")
    flow = MorseFlow(K, greedy_matching(K))
    s = morse_spark(K, flow, phi)
    return RunReport("morse spark", inputs, _spark_results(s, args.out)), None


# -- low-degree subcommands -------------------------------------------------


def cmd_lowdeg_circle(args):
    K, inputs = load_complex(args)
    data = _read_input(args.values, inputs, "values")
    theta = K.cochain(0, list(json_scalars(data, args.values)))
    s = phase_spark(K, theta)
    recovered = spark_phases(s).values
    # read back through the character, not the phases: the holonomy on
    # each vertex is theta there mod 1, and the curvature lifts delta(theta)
    n = K.n_simplices(0)
    round_trip = all(
        holonomy(K, s, K.chain(0, [int(w == v) for w in range(n)])) == mod1(t)
        for v, t in enumerate(theta.values)
    ) and (curvature(K, s) - K.delta(theta)).is_integral()
    results = {"spark": spark_to_json(s), "recovered": [scalar_str(v) for v in recovered]}
    return (
        RunReport(
            "lowdeg circle", inputs, results, checks={"round_trip": round_trip}
        ),
        None,
    )


def cmd_lowdeg_conn(args):
    K, inputs = load_complex(args)
    theta = _load_connection(K, args.theta, inputs)
    Fs, N = chern_cocycle(K, theta)
    results = {"field_strength": Fs, "integral_part": N}
    checks = {}
    z = K.fundamental_cycle()
    if z is not None and K.dimension == 2:
        # the total flux is defined on a closed oriented surface only; it
        # is the Chern number, minus the period of the integral part
        flux = total_flux(K, theta)
        results["total_flux"] = flux
        checks["integer_flux"] = (
            Fs + N == K.delta(theta)
            and K.evaluate(Fs, z) == -K.evaluate(N, z) == flux
        )
    return RunReport("lowdeg conn", inputs, results, checks=checks), None


def _cover_from_json(K, choice):
    if choice is None or choice == "star":
        return star_cover(K)
    nested = isinstance(choice, list) and all(
        isinstance(patch, list) and all(isinstance(s, list) for s in patch)
        for patch in choice
    )
    if not nested:
        raise InputDataError('cover: expected "star" or a list of patch simplex lists')
    return patch_cover(K, [
        [tuple(json_int(v, "cover: vertex") for v in s) for s in patch]
        for patch in choice
    ])


def _gerbe_from_data(K, data):
    """Gerbe JSON: cover plus patch/pair/triple values, layers 0, 1 and 2."""
    cover = _cover_from_json(K, data.get("cover"))
    patch = None
    if data.get("patch") is not None:
        try:
            patch = {
                (i,): K.cochain(2, json_scalars(vals, f"patch {i}"))
                for i, vals in enumerate(data["patch"])
            }
        except (TypeError, ValueError) as exc:
            raise InputDataError(f"patch layer: {exc}") from exc

    def overlap_layer(name, degree):
        raw = data.get(name)
        if raw is None:
            return None
        out = {}
        try:
            for key, vals in raw.items():
                idx = tuple(json_int(p, f"overlap {key!r}: patch") for p in key.split(","))
                out[idx] = K.cochain(degree, json_scalars(vals, key))
        except (AttributeError, TypeError, ValueError) as exc:
            raise InputDataError(f"{name} layer: {exc}") from exc
        return out

    return cech_gerbe(cover, [patch, overlap_layer("pair", 1), overlap_layer("triple", 0)])


def cmd_lowdeg_gerbe(args):
    K, inputs = load_complex(args)
    data = _read_input(args.gerbe, inputs, "gerbe")
    z = None
    if args.cycle:
        z = _load_chain(K, args.cycle, inputs)
    elif K.dimension == 2:
        z = K.fundamental_cycle()
    layered = isinstance(data, dict) and not ("degree" in data and "values" in data)
    if layered:
        g = _gerbe_from_data(K, data)
        phi, obstruction = gerbe_total_differential(g)
        results = {
            "model": "cover",
            "n_patches": g.cover.n_patches,
            "flagged_overlaps": len(g.cover.acyclicity_flags),
            "curvature": phi,
            "flat": phi.is_zero(),
            "obstruction": {
                ",".join(str(i) for i in key): [scalar_str(v) for v in R.values]
                for key, R in sorted(obstruction.items())
                if not R.is_zero()
            },
        }
        if z is not None:
            # phi is checked already; gerbe_spark would check the layers again
            results["holonomy"] = holonomy(K, _glued_spark(g, phi), z)
    else:
        t = json_vector(K, data, args.gerbe, degree=2)
        phi = phase_curvature(K, t)
        results = {"model": "global", "curvature": phi, "flat": phi.is_zero()}
        if z is not None:
            results["holonomy"] = phase_holonomy(K, t, z)
    return RunReport("lowdeg gerbe", inputs, results), None


# ---------------------------------------------------------------------------
# parser


def _add_space_args(p):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--space", help="named fixture, e.g. torus, rp3, sphere2")
    grp.add_argument("--input", help="complex JSON file")
    p.add_argument(
        "--auto-close",
        action="store_true",
        help="add missing faces when loading --input",
    )
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)


def _add_format_arg(p):
    p.add_argument("--format", choices=("json", "md", "csv"), default="json")


def _add_hodge_args(p):
    p.add_argument("--weights", help="JSON file: degree -> list of weights")


def _add_solver_args(p):
    """The solver of the Hodge decomposition, for the commands that decompose."""
    p.add_argument("--method", choices=("auto", "exact", "cg"), default=DEFAULT_METHOD)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diffchar",
        description="Differential characters on finite simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="construct a fixture complex")
    _add_space_args(p)
    p.add_argument("--out", help="write complex JSON here instead of stdout")
    p.set_defaults(handler=cmd_build)

    p = sub.add_parser("cohomology", help="integer and circle cohomology")
    _add_space_args(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=cmd_cohomology)

    p = sub.add_parser("characters", help="character group structure table")
    _add_space_args(p)
    p.add_argument("--k", type=int, default=None)
    _add_format_arg(p)
    p.set_defaults(handler=cmd_characters)

    p = sub.add_parser("dual", help="duality prediction vs actual structure")
    _add_space_args(p)
    p.add_argument("--k", type=int, default=None)
    _add_format_arg(p)
    p.set_defaults(handler=cmd_dual)

    p = sub.add_parser("tables", help="character tables (kunneth:A,B supported)")
    p.add_argument("--space", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_format_arg(p)
    p.set_defaults(handler=cmd_tables)

    p = sub.add_parser("verify", help="full invariant suite on one fixture")
    _add_space_args(p)
    p.add_argument("--seed", type=int, default=0)
    trials_help = "N star, ring and holonomy trials; the sequence checks always run 4"
    p.add_argument("--trials", type=int, default=100, metavar="N", help=trials_help)
    _add_hodge_args(p)
    _add_solver_args(p)
    p.set_defaults(handler=cmd_verify)

    spark = sub.add_parser("spark", help="spark operations on JSON artifacts")
    ssub = spark.add_subparsers(dest="subcmd", required=True)

    p = ssub.add_parser("new")
    _add_space_args(p)
    p.add_argument(
        "--cocycle",
        help="integral cocycle JSON file; cohomologous cocycles give one "
        "character, and a cohomology generator gets the character of "
        "'hodge spark'",
    )
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_spark_new)

    for name, handler, two in (
        ("d1", cmd_spark_d1, False),
        ("d2", cmd_spark_d2, False),
        ("equiv", cmd_spark_equiv, True),
        ("star", cmd_spark_star, True),
        ("pair", cmd_spark_pair, True),
    ):
        p = ssub.add_parser(name)
        _add_space_args(p)
        p.add_argument("spark", help="spark JSON file")
        if two:
            p.add_argument("spark2", help="second spark JSON file")
        if name == "star":
            p.add_argument("--out")
        p.set_defaults(handler=handler)

    p = ssub.add_parser("holonomy")
    _add_space_args(p)
    p.add_argument("spark")
    p.add_argument("--cycle", help="chain JSON file; default fundamental cycle")
    p.set_defaults(handler=cmd_spark_holonomy)

    p = ssub.add_parser("link")
    _add_space_args(p)
    p.add_argument("--p", type=int, required=True, help="torsion degree")
    p.add_argument("--q", type=int, required=True, help="other torsion degree")
    p.set_defaults(handler=cmd_spark_link)

    hodge = sub.add_parser("hodge", help="harmonic decomposition and maps")
    hsub = hodge.add_subparsers(dest="subcmd", required=True)

    p = hsub.add_parser("decompose")
    _add_space_args(p)
    p.add_argument("--cochain", required=True)
    _add_hodge_args(p)
    _add_solver_args(p)
    p.set_defaults(handler=cmd_hodge_decompose)

    p = hsub.add_parser("spark")
    _add_space_args(p)
    p.add_argument(
        "--cocycle",
        required=True,
        help="integral cocycle JSON file; the character follows the cocycle: "
        "R + delta S gives that of R plus the flat spark of the harmonic "
        "part of S",
    )
    p.add_argument("--out")
    _add_hodge_args(p)
    p.set_defaults(handler=cmd_hodge_spark)

    p = hsub.add_parser("normal")
    _add_space_args(p)
    p.add_argument("spark")
    _add_hodge_args(p)
    p.set_defaults(handler=cmd_hodge_normal)

    p = hsub.add_parser("aj")
    _add_space_args(p)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--dst", type=int, required=True)
    p.add_argument("--path", help="comma-separated vertex list")
    _add_hodge_args(p)
    p.set_defaults(handler=cmd_hodge_aj)

    morse = sub.add_parser("morse", help="discrete gradient flows")
    msub = morse.add_subparsers(dest="subcmd", required=True)

    p = msub.add_parser("match")
    _add_space_args(p)
    p.set_defaults(handler=cmd_morse_match)

    p = msub.add_parser("homology")
    _add_space_args(p)
    p.add_argument("--k", type=int, default=None)
    _add_format_arg(p)
    p.set_defaults(handler=cmd_morse_homology)

    p = msub.add_parser("verify")
    _add_space_args(p)
    p.set_defaults(handler=cmd_morse_verify)

    p = msub.add_parser("spark")
    _add_space_args(p)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_morse_spark)

    lowdeg = sub.add_parser("lowdeg", help="circle maps, connections, gerbes")
    lsub = lowdeg.add_subparsers(dest="subcmd", required=True)

    p = lsub.add_parser("circle")
    _add_space_args(p)
    p.add_argument("--values", required=True, help="JSON list of vertex phases")
    p.set_defaults(handler=cmd_lowdeg_circle)

    p = lsub.add_parser("conn", aliases=["flux"])
    _add_space_args(p)
    p.add_argument(
        "--theta",
        required=True,
        help='edge phases: cochain JSON or {"edges": ["p/q", ...]}',
    )
    p.set_defaults(handler=cmd_lowdeg_conn)

    p = lsub.add_parser("gerbe")
    _add_space_args(p)
    p.add_argument(
        "--gerbe",
        required=True,
        help="face phase cochain JSON, or three-layer JSON over a cover",
    )
    p.add_argument("--cycle", help="2-cycle chain JSON file")
    p.set_defaults(handler=cmd_lowdeg_gerbe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report, rows = args.handler(args)
        # rendered inside the boundary: a value too long to print is an
        # input error too
        fmt = getattr(args, "format", "json")
        if fmt == "md" and rows is not None:
            out = _render_md(rows) + "\n"
        elif fmt == "csv" and rows is not None:
            out = _render_csv(rows)
        else:
            out = canonical_json(report.to_dict())
    except (OSError, ValueError) as exc:  # every library input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(out, end="")
    elapsed = time.perf_counter() - start
    print(f"[{report.command}] wall time {elapsed:.3f}s", file=sys.stderr)
    return 0 if report.passed() else 1


if __name__ == "__main__":
    sys.exit(main())
