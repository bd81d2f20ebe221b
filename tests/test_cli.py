"""End-to-end checks of the command line front end."""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from diffchar import cli, exact, lowdegree
from diffchar.builders import build_space, circle, moebius_kuehnel_torus
from diffchar.cli import canonical_json, main
from diffchar.cohomology import cohomology_generators
from diffchar.complexes import SimplicialComplex, scalar_str
from diffchar.lowdegree import star_cover
from diffchar.sparks import (
    Spark,
    holonomy,
    random_spark,
    spark_from_json,
    spark_to_json,
    star,
)
from oracles import gerbe_from_global, varied_weights


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_tables_md_contains_golden_row(capsys):
    code, out = run(capsys, "tables", "--space", "torus", "--format", "md")
    assert code == 0
    assert "(S1)^2 x Q^13 x Z" in out
    assert "S1 x Q^6 x Z^2" in out


def test_json_output_is_deterministic(capsys):
    code1, out1 = run(capsys, "characters", "--space", "rp3")
    code2, out2 = run(capsys, "characters", "--space", "rp3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_budget_refuses_an_oversized_named_space(capsys):
    # sphere8 has 1022 simplices; the budget bounds every named space
    code = main(["build", "--space", "sphere8", "--budget", "10"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "error: construction needs 2^10 - 2 simplices, budget is 10\n"
    assert run(capsys, "build", "--space", "sphere8", "--budget", "1022")[0] == 0


def test_kunneth_tables(capsys):
    code, data = run_json(capsys, "tables", "--space", "kunneth:cp2,cp2")
    assert code == 0
    rows = {r["degree"]: r["structure"] for r in data["results"]["table"]}
    assert rows[4] == "(S1)^3"
    assert rows[3] == "Z^3"
    assert rows[8] == "S1"


def test_unknown_space_is_input_error(capsys):
    code = main(["cohomology", "--space", "klein_bottle", "--k", "0"])
    assert code == 3


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_dual_mismatch_gives_exit_one(capsys):
    code, data = run_json(capsys, "dual", "--space", "rp2")
    assert code == 1
    assert data["checks"]["duality_match"] is False
    by_k = {r["degree"]: r["match"] for r in data["results"]["table"]}
    assert by_k[0] is False


def test_verify_small_fixture(capsys):
    code, data = run_json(capsys, "verify", "--space", "circle4", "--trials", "5")
    assert code == 0
    assert data["checks"] and all(data["checks"].values())
    assert data["residuals"]["hodge_max"] == "0"



def test_verify_negative_trials_is_input_error(capsys):
    code = main(["verify", "--space", "circle4", "--trials", "-3"])
    captured = capsys.readouterr()
    assert code == 3
    assert "trials" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_verify_zero_trials(capsys):
    code, data = run_json(capsys, "verify", "--space", "circle4", "--trials", "0")
    assert code == 0
    assert data["inputs"]["trials"] == 0


def test_verify_input_matches_the_named_space(tmp_path, capsys):
    # build --out, then verify --input: the same checks, residuals and
    # results as verify --space
    path = tmp_path / "cp2.json"
    assert run(capsys, "build", "--space", "cp2", "--out", str(path))[0] == 0
    argv = ["verify", "--trials", "5", "--seed", "0"]
    code, named = run_json(capsys, *argv, "--space", "cp2")
    assert code == 0
    code, loaded = run_json(capsys, *argv, "--input", str(path))
    assert code == 0
    for part in ("checks", "residuals", "results"):
        assert loaded[part] == named[part], part


@pytest.mark.parametrize("trials", ["0", "5"])
@pytest.mark.parametrize(
    "vertices, checks",
    [
        # the empty complex: every check vacuous
        (0, ["hodge_residuals", "holonomy_invariance", "morse_homology",
             "morse_homotopy_identity", "sequences_k-1"]),
        # a lone vertex, the control
        (1, ["duality", "hodge_residuals", "holonomy_invariance", "morse_homology",
             "morse_homotopy_identity", "sequences_k-1", "sequences_k0"]),
    ],
    ids=["empty", "vertex"],
)
def test_verify_input_of_the_empty_complex(tmp_path, capsys, trials, vertices, checks):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"vertices": vertices, "simplices": {}}))
    code, data = run_json(capsys, "verify", "--input", str(path), "--trials", trials)
    assert code == 0
    assert sorted(data["checks"]) == checks
    assert all(v is True for v in data["checks"].values())
    assert data["residuals"] == {"hodge_max": "0"}
    assert data["results"] == {"dimension": vertices - 1}
    if not vertices:
        # the maximum over no degree is the zero of the route: a float under CG
        code, data = run_json(capsys, "verify", "--input", str(path), "--method", "cg")
        assert (code, data["residuals"]) == (0, {"hodge_max": "0.0"})


@pytest.mark.parametrize("space, weighted", [("rp3", False), ("torus_grid5", True)])
def test_verify_cg_defects_within_tol(capsys, tmp_path, space, weighted):
    # conjugate gradients stop once the max-norm defects that the check
    # reads are within --tol, however large the right-hand side and
    # however small the weights
    argv = ["verify", "--space", space, "--method", "cg", "--trials", "5", "--seed", "0"]
    if weighted:
        K = build_space(space)
        rng = random.Random(5)
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            str(k): [rng.choice(("1/64", "1/8", "1", "4")) for _ in range(K.n_simplices(k))]
            for k in range(K.dimension + 1)
        }))
        argv += ["--weights", str(path)]
    code, data = run_json(capsys, *argv)
    assert code == 0
    assert data["results"] == {"dimension": build_space(space).dimension}
    assert 0 < float(data["residuals"]["hodge_max"]) <= 1e-10


def test_verify_ring_check_reads_the_shifted_charge(capsys, monkeypatch):
    # the ring check compares the class of the shifted sparks' charge
    # t1.R cup t2.R with that of the star product: a "shift" that
    # triples each charge moves that class, and only the ring check sees
    # it (the holonomy check reads the potentials)
    real = cli.random_equivalent_shift

    def tripled(K, s, rng):
        t = real(K, s, rng)
        return Spark(t.a, t.R.scale(3))

    monkeypatch.setattr(cli, "random_equivalent_shift", tripled)
    code, data = run_json(capsys, "verify", "--space", "torus", "--trials", "10", "--seed", "0")
    checks = data["checks"]
    assert code == 1
    assert [name for name, ok in checks.items() if not ok] == ["d2_ring_homomorphism"]


# sha256 of `verify --trials 20 --seed 0` stdout, frozen from the
# term-by-term Fraction kernels (before denominators were cleared once)
VERIFY_STDOUT_SHA = {
    "cp2": "5f970e50cf1b790012c91e4a15a0514f7f4faecfa0af54d0efacb0292794e4a0",
    "torus_grid5": "d117df2927e011606eb11b26301d716f2f231ad1ab2a4484226b0d5c1c7fd5eb",
    "rp2": "e9f4c181685efe781901c05abfca301f996768a71b9dba2f41fbb3cb157e7692",
    "rp3": "b0a7b81b70a882589f76970bf834ddc5c93bab3e0f117243d35953d3dff42574",
}


@pytest.mark.parametrize("space", sorted(VERIFY_STDOUT_SHA))
def test_verify_stdout_frozen(capsys, space):
    code, out = run(capsys, "verify", "--space", space, "--trials", "20", "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA[space]


# sha256 of the concatenated stdout of `tables` and of `cohomology --k k`
# for k = 0..n, frozen from Smith forms that kept all four transforms
# up to date through every elimination step
TABLES_COHOMOLOGY_SHA = {
    "lens:5,2": "770370386de9ba31206696b7a6e7a4ef519072fa205f2afd31f66ea93779c01f",
    "lens:7,2": "24564ef5f97631e15f2e8a3da64645a890a67b2a99dcc051f087f2263083daa1",
    "rp3": "4395c2ffb40cb2fac2d6b691d7b5e91ee6dbc75d9bfb3d8aa82e02f1a0f14e3b",
    "cp2": "da78f8a4bc7a12f6155cdfdaaa77d0ec0726afc13f6c605a909b6d55b479e13f",
}


@pytest.mark.parametrize("space", sorted(TABLES_COHOMOLOGY_SHA))
def test_tables_and_cohomology_stdout_frozen(capsys, space):
    h = hashlib.sha256()
    runs = [("tables", "--space", space)] + [
        ("cohomology", "--space", space, "--k", str(k))
        for k in range(build_space(space).dimension + 1)
    ]
    for argv in runs:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        h.update(out.encode())
    assert h.hexdigest() == TABLES_COHOMOLOGY_SHA[space]


def test_spark_equiv_distinguishes(tmp_path, capsys):
    K = circle(3)
    half = Spark(K.cochain(0, (Fraction(1, 2), 0, 0)), K.zero_cochain(1))
    zero = Spark(K.zero_cochain(0), K.zero_cochain(1))
    p1, p2 = tmp_path / "half.json", tmp_path / "zero.json"
    p1.write_text(canonical_json(spark_to_json(half)))
    p2.write_text(canonical_json(spark_to_json(zero)))
    code, data = run_json(capsys, "spark", "equiv", "--space", "circle3", str(p1), str(p1))
    assert code == 0 and data["checks"]["equivalent"] is True
    code, data = run_json(capsys, "spark", "equiv", "--space", "circle3", str(p1), str(p2))
    assert code == 1 and data["checks"]["equivalent"] is False


def test_spark_from_cocycle_and_d2(tmp_path, capsys):
    K = moebius_kuehnel_torus()
    free, _ = cohomology_generators(K, 1)
    cofile = tmp_path / "gen.json"
    cofile.write_text(
        canonical_json(
            {"degree": 1, "values": [str(v) for v in free[0].values]}
        )
    )
    sfile = tmp_path / "s.json"
    code, data = run_json(
        capsys, "spark", "new", "--space", "torus",
        "--cocycle", str(cofile), "--out", str(sfile),
    )
    assert code == 0 and data["results"]["written"] == str(sfile)
    code, data = run_json(capsys, "spark", "d2", "--space", "torus", str(sfile))
    assert code == 0
    assert sorted(abs(c) for c in data["results"]["free"]) == [0, 1]


def test_degree_minus_one_sparks(tmp_path, capsys):
    unit, top = tmp_path / "unit.json", tmp_path / "top.json"
    for path, k in ((unit, -1), (top, 2)):
        argv = ["spark", "new", "--space", "torus", "--k", str(k), "--seed", "1"]
        code, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
    K = moebius_kuehnel_torus()
    n = spark_from_json(K, json.loads(unit.read_text())).R.values[0]
    s = spark_from_json(K, json.loads(top.read_text()))
    for pair in ((unit, top), (top, unit)):
        code, data = run_json(capsys, "spark", "star", "--space", "torus", *map(str, pair))
        assert code == 0 and data["results"]["spark"] == spark_to_json(star(K, n, s))
    code, data = run_json(capsys, "spark", "pair", "--space", "torus", str(unit), str(top))
    expected = holonomy(K, star(K, n, s), K.fundamental_cycle())
    assert code == 0 and data["results"]["pairing"] == scalar_str(expected)
    # a curvature of degree -1 has no spark
    cocycle = tmp_path / "c.json"
    cocycle.write_text(canonical_json({"degree": -1, "values": []}))
    code = main(["morse", "spark", "--space", "torus", "--cocycle", str(cocycle)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "nonnegative" in captured.err and "Traceback" not in captured.err


def test_spark_link_rp3(capsys):
    code, data = run_json(capsys, "spark", "link", "--space", "rp3", "--p", "2", "--q", "2")
    assert code == 0
    assert data["results"]["matrix"] == [["1/2"]]


def test_hodge_decompose_exact(tmp_path, capsys):
    cochain = tmp_path / "u.json"
    cochain.write_text(
        canonical_json({"degree": 1, "values": ["1/2", "3", "-2", "0", "1/3", "7"]})
    )
    code, data = run_json(
        capsys, "hodge", "decompose", "--space", "sphere2", "--cochain", str(cochain)
    )
    assert code == 0
    assert data["results"]["method"] == "exact"
    assert set(data["residuals"].values()) == {"0"}


def test_hodge_aj_grid(capsys):
    code, data = run_json(
        capsys, "hodge", "aj", "--space", "torus_grid3", "--src", "0", "--dst", "7"
    )
    assert code == 0
    # values in the default generator basis; a fixed order for a fixed build
    assert sorted(data["results"]["values"]) == ["1/3", "2/3"]


def test_morse_commands(capsys):
    code, data = run_json(capsys, "morse", "homology", "--space", "rp2")
    assert code == 0
    assert data["checks"]["homology_match"] is True
    assert any(r["morse"] == "Z_2" for r in data["results"]["table"])
    code, data = run_json(capsys, "morse", "verify", "--space", "rp2")
    assert code == 0 and data["checks"]["homotopy_identity"] is True
    # MorseFlow refuses a cyclic matching (exit 3), so there is no check
    code, data = run_json(capsys, "morse", "match", "--space", "rp2")
    assert code == 0 and data["checks"] == {}
    critical = data["results"]["critical"]
    assert critical == {"0": 1, "1": 1, "2": 1}
    assert data["results"]["pairs"]


def test_lowdeg_conn_monopole(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    theta.write_text(
        canonical_json({"edges": ["1/4", "0", "0", "0", "1/2", "1/4"]})
    )
    code, data = run_json(
        capsys, "lowdeg", "conn", "--space", "sphere2", "--theta", str(theta)
    )
    assert code == 0
    assert data["results"]["total_flux"] == 1
    assert data["results"]["field_strength"]["values"] == ["1/4", "-1/4", "1/4", "-1/4"]
    assert data["results"]["integral_part"]["values"] == ["0", "1", "0", "0"]
    assert data["checks"]["integer_flux"] is True


def test_lowdeg_flux_alias_and_cochain_form(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    theta.write_text(
        canonical_json({"degree": 1, "values": ["1/4", "0", "0", "0", "1/2", "1/4"]})
    )
    code, data = run_json(
        capsys, "lowdeg", "flux", "--space", "sphere2", "--theta", str(theta)
    )
    assert code == 0
    assert data["command"] == "lowdeg conn"
    assert data["results"]["total_flux"] == 1


def test_lowdeg_circle_round_trip(tmp_path, capsys):
    vals = tmp_path / "vals.json"
    vals.write_text(canonical_json(["0", "1/4", "1/2", "3/4"]))
    code, data = run_json(
        capsys, "lowdeg", "circle", "--space", "circle4", "--values", str(vals)
    )
    assert code == 0
    assert data["checks"]["round_trip"] is True
    assert data["results"]["recovered"] == ["0", "1/4", "1/2", "3/4"]


@pytest.mark.parametrize("part", ["a", "R"])
def test_lowdeg_circle_round_trip_catches_a_wrong_spark(tmp_path, capsys, monkeypatch, part):
    # a phase off by 1/7 on one vertex moves its holonomy; a charge off
    # by 1/7 on one edge leaves a curvature that no longer lifts delta(theta)
    from diffchar import cli

    make = cli.phase_spark

    def corrupted(K, theta):
        s = make(K, theta)
        u = getattr(s, part)
        bump = K.cochain(u.degree, [Fraction(1, 7)] + [0] * (len(u.values) - 1))
        return Spark(s.a + bump, s.R) if part == "a" else Spark(s.a, s.R + bump)

    monkeypatch.setattr(cli, "phase_spark", corrupted)
    vals = tmp_path / "vals.json"
    vals.write_text(canonical_json(["0", "1/4", "1/2", "3/4"]))
    code, data = run_json(
        capsys, "lowdeg", "circle", "--space", "circle4", "--values", str(vals)
    )
    assert code == 1
    assert data["checks"]["round_trip"] is False


@pytest.mark.parametrize("wrong", ["flux", "integral_part"])
def test_lowdeg_conn_integer_flux_catches_a_wrong_value(tmp_path, capsys, monkeypatch, wrong):
    from diffchar import cli

    if wrong == "flux":
        flux = cli.total_flux
        monkeypatch.setattr(cli, "total_flux", lambda K, theta: flux(K, theta) + 1)
    else:
        split = cli.chern_cocycle

        def shifted(K, theta):
            F, N = split(K, theta)
            return F, N + K.cochain(2, [1] + [0] * (len(N.values) - 1))

        monkeypatch.setattr(cli, "chern_cocycle", shifted)
    theta = tmp_path / "theta.json"
    theta.write_text(
        canonical_json({"edges": ["1/4", "0", "0", "0", "1/2", "1/4"]})
    )
    code, data = run_json(
        capsys, "lowdeg", "conn", "--space", "sphere2", "--theta", str(theta)
    )
    assert code == 1
    assert data["checks"]["integer_flux"] is False


@pytest.mark.parametrize("space,edges", [("circle4", 4), ("sphere3", 10)])
def test_lowdeg_conn_off_closed_surfaces(tmp_path, capsys, space, edges):
    # field strength and integral part exist on any complex; the total
    # flux and its check only on a closed oriented surface
    theta = tmp_path / "theta.json"
    theta.write_text(canonical_json({"edges": ["1/3"] + ["0"] * (edges - 1)}))
    code, data = run_json(
        capsys, "lowdeg", "conn", "--space", space, "--theta", str(theta)
    )
    assert code == 0
    assert set(data["results"]) == {"field_strength", "integral_part"}
    assert data["checks"] == {}


def test_lowdeg_gerbe_holonomy(tmp_path, capsys):
    gerbe = tmp_path / "t.json"
    gerbe.write_text(
        canonical_json({"degree": 2, "values": ["1/3"] + ["0"] * 13})
    )
    code, data = run_json(
        capsys, "lowdeg", "gerbe", "--space", "torus", "--gerbe", str(gerbe)
    )
    assert code == 0
    assert data["results"]["model"] == "global"
    assert data["results"]["holonomy"] == "1/3"
    assert data["results"]["flat"] is True


def test_lowdeg_gerbe_cover_form(tmp_path, capsys):
    # the same one-third gerbe written as patch data over the star
    # cover; same surface holonomy, no gluing obstruction
    K = moebius_kuehnel_torus()
    g = gerbe_from_global(star_cover(K), K.cochain(2, (Fraction(1, 3),) + (0,) * 13))
    payload = {
        "cover": "star",
        "patch": [[str(v) for v in c.values] for c in g.layers[0].values()],
    }
    path = tmp_path / "g.json"
    path.write_text(canonical_json(payload))
    code, data = run_json(
        capsys, "lowdeg", "gerbe", "--space", "torus", "--gerbe", str(path)
    )
    assert code == 0
    assert data["results"]["model"] == "cover"
    assert data["results"]["n_patches"] == 7
    assert data["results"]["holonomy"] == "1/3"
    assert data["results"]["flat"] is True
    assert data["results"]["obstruction"] == {}


def test_lowdeg_gerbe_checks_the_layers_once(tmp_path, capsys, monkeypatch):
    # with a cycle the cover model reports the curvature and the holonomy
    # of the glued spark from one run of the layer checks
    K = moebius_kuehnel_torus()
    g = gerbe_from_global(star_cover(K), K.cochain(2, (Fraction(1, 3),) + (0,) * 13))
    gerbe = tmp_path / "g.json"
    gerbe.write_text(canonical_json({"patch": [[str(v) for v in c.values] for c in g.layers[0].values()]}))
    cycle = tmp_path / "z.json"
    cycle.write_text(canonical_json({"degree": 2, "values": list(K.fundamental_cycle().values)}))
    calls = []
    total_differential = lowdegree.gerbe_total_differential

    def counted(g):
        calls.append(g)
        return total_differential(g)

    monkeypatch.setattr(lowdegree, "gerbe_total_differential", counted)
    monkeypatch.setattr(cli, "gerbe_total_differential", counted)
    code, data = run_json(
        capsys, "lowdeg", "gerbe", "--space", "torus", "--gerbe", str(gerbe),
        "--cycle", str(cycle),
    )
    assert code == 0 and data["results"]["holonomy"] == "1/3"
    assert len(calls) == 1


def test_lowdeg_gerbe_triple_layer(tmp_path, capsys):
    # pure gluing data on the one triple overlap of the triangle circle
    payload = {"triple": {"0,1,2": ["1/3", "0", "0"]}}
    path = tmp_path / "g.json"
    path.write_text(canonical_json(payload))
    code, data = run_json(
        capsys, "lowdeg", "gerbe", "--space", "circle3", "--gerbe", str(path)
    )
    assert code == 0
    assert data["results"]["flat"] is True
    assert data["results"]["obstruction"] == {}
    assert data["results"]["n_patches"] == 3


@pytest.mark.parametrize("model", ["global", "cover"])
def test_lowdeg_gerbe_rational_cycle_is_input_error(tmp_path, capsys, model):
    # half the fundamental cycle of the 7-vertex torus: both gerbe
    # models refuse it rather than print a gauge-dependent holonomy
    K = moebius_kuehnel_torus()
    t = K.cochain(2, (Fraction(1, 7),) * 14)
    if model == "global":
        payload = {"degree": 2, "values": list(t.values)}
    else:
        g = gerbe_from_global(star_cover(K), t)
        payload = {"patch": [[str(v) for v in c.values] for c in g.layers[0].values()]}
    gerbe = tmp_path / "g.json"
    gerbe.write_text(canonical_json(payload))
    half = [scalar_str(Fraction(v, 2)) for v in K.fundamental_cycle().values]
    cycle = tmp_path / "half.json"
    cycle.write_text(canonical_json({"degree": 2, "values": half}))
    code = main([
        "lowdeg", "gerbe", "--space", "torus", "--gerbe", str(gerbe),
        "--cycle", str(cycle),
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "integral" in captured.err and "Traceback" not in captured.err


def test_lowdeg_gerbe_obstruction_is_input_error(tmp_path):
    # the same gluing datum on the tetrahedron sphere leaves a
    # fractional residue on the quadruple overlap
    payload = {"triple": {"0,1,2": ["1/3", "0", "0", "0"]}}
    path = tmp_path / "g.json"
    path.write_text(canonical_json(payload))
    code = main(["lowdeg", "gerbe", "--space", "sphere2", "--gerbe", str(path)])
    assert code == 3


@pytest.mark.parametrize("src,dst", [("0", "99"), ("-1", "3")])
def test_hodge_aj_vertex_out_of_range_is_input_error(capsys, src, dst):
    code = main(["hodge", "aj", "--space", "torus", "--src", src, "--dst", dst])
    err = capsys.readouterr().err
    assert code == 3
    assert "vertex" in err and "Traceback" not in err


def test_hodge_aj_default_flags_above_exact_size_limit(capsys):
    # the 24 x 24 grid torus has more than EXACT_SIZE_LIMIT simplices,
    # and Abel-Jacobi values are exact whatever its size
    code, data = run_json(capsys, "hodge", "aj", "--space", "torus_grid24",
                          "--src", "0", "--dst", "1")
    assert code == 0
    assert data["results"]["values"] == ["1/24", "1/24"]


@pytest.mark.parametrize("argv", [
    ["aj", "--src", "0", "--dst", "4"],
    ["spark", "--cocycle", "R.json"],
    ["normal", "s.json"],
], ids=["aj", "spark", "normal"])
@pytest.mark.parametrize("flag", ["--method=cg", "--tol=1e-8"])
def test_exact_only_hodge_commands_take_no_solver(capsys, argv, flag):
    # only decompose has a second solver
    with pytest.raises(SystemExit) as exc:
        main(["hodge", *argv, "--space", "torus_grid3", flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


@pytest.mark.parametrize("argv, what", [
    (["verify", "--space", "circle3", "--method", "cg", "--tol=-1"], "tolerance"),
    (["verify", "--space", "circle3", "--method", "cg", "--tol=0"], "tolerance"),
    (["verify", "--space", "circle3", "--method", "cg", "--tol=nan"], "tolerance"),
    (["verify", "--space", "circle3", "--method", "cg", "--tol=inf"], "tolerance"),
], ids=["tol_negative", "tol_zero", "tol_nan", "tol_inf"])
def test_inexact_hodge_input_is_input_error(capsys, argv, what):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert what in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("command, what", [
    ("decompose 10^200", "not finite"),
    ("decompose 10^400", "does not fit a float"),
    ("verify 10^400", "does not fit a float"),
], ids=["iterate_not_finite", "value_overflow", "weight_overflow"])
def test_cg_values_beyond_floats_are_input_errors(capsys, tmp_path, command, what):
    # one huge entry: 10^200 fits a float, but its square does not, and
    # the iterates of conjugate gradients turn to NaN; 10^400 fits no float
    K = build_space("torus")
    name, value = command.split()
    big = str(10 ** int(value.split("^")[1]))
    path = tmp_path / "input.json"
    if name == "decompose":
        values = [big] + ["0"] * (K.n_simplices(1) - 1)
        path.write_text(json.dumps({"degree": 1, "values": values}))
        argv = ["hodge", "decompose", "--cochain", str(path)]
    else:
        weights = {str(k): ["1"] * K.n_simplices(k) for k in range(K.dimension + 1)}
        weights["1"][0] = big
        path.write_text(json.dumps(weights))
        argv = ["verify", "--weights", str(path)]
    code = main([*argv, "--space", "torus", "--method", "cg"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert what in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("k,expected", [(-2, 3), (-1, 0), (2, 0), (3, 3), (7, 3)])
def test_spark_new_degree_range(capsys, k, expected):
    code = main(["spark", "new", "--space", "torus", f"--k={k}", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == expected
    if expected == 3:
        assert "degree" in captured.err and captured.out == ""


def _rp2_input_files(tmp_path, bad):
    """Paths of rp2 input files of every kind, each with one value ``bad``,
    plus a valid cochain and spark (``cochain_ok``, ``spark_ok``)."""
    K = build_space("rp2")
    zero = ["0"] * K.n_simplices(1)
    edges = zero[:-1] + [bad]
    spark = spark_to_json(Spark(K.zero_cochain(1), K.zero_cochain(2)))
    bad_spark = json.loads(json.dumps(spark))
    bad_spark["a"]["values"][-1] = bad
    payloads = {
        "cochain": {"degree": 1, "values": edges},
        "chain": {"degree": 1, "values": edges},
        "spark": bad_spark,
        "weights": {"1": [bad]},
        "connection": {"edges": edges},
        "cochain_ok": {"degree": 1, "values": zero},
        "spark_ok": spark,
    }
    paths = {}
    for name, payload in payloads.items():
        path = tmp_path / f"{name}.json"
        path.write_text(canonical_json(payload))
        paths[name] = str(path)
    return paths


ZERO_DENOMINATOR_COMMANDS = {
    "cochain": ["hodge", "decompose", "--space", "rp2", "--cochain", "{cochain}"],
    "chain": ["spark", "holonomy", "--space", "rp2", "{spark_ok}", "--cycle", "{chain}"],
    "spark": ["spark", "d1", "--space", "rp2", "{spark}"],
    "weights": [
        "hodge", "decompose", "--space", "rp2",
        "--cochain", "{cochain_ok}", "--weights", "{weights}",
    ],
    "connection": ["lowdeg", "conn", "--space", "rp2", "--theta", "{connection}"],
}


@pytest.mark.parametrize("kind", sorted(ZERO_DENOMINATOR_COMMANDS))
def test_zero_denominator_is_input_error(tmp_path, capsys, kind):
    paths = _rp2_input_files(tmp_path, "1/0")
    argv = [a.format(**paths) for a in ZERO_DENOMINATOR_COMMANDS[kind]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert "zero denominator" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


# lowdeg gerbe (cover model), --weights and --path input that is no
# layer, weight profile or vertex list: (command, payload of {input})
MALFORMED_INPUTS = {
    "pair_as_list": ("gerbe", {"pair": [["0", "0", "0"]]}),
    "pair_key_text": ("gerbe", {"pair": {"0,x": ["0", "0", "0"]}}),
    "pair_key_empty": ("gerbe", {"pair": {"": ["0", "0", "0"]}}),
    "pair_key_descending": ("gerbe", {"pair": {"1,0": ["0", "0", "0"]}}),
    "triple_value_text": ("gerbe", {"triple": {"0,1,2": "1/3"}}),
    "patch_not_list": ("gerbe", {"patch": 7}),
    "cover_empty": ("gerbe", {"cover": []}),
    "weights_as_list": ("weights", [["1", "1", "1"]]),
    "weights_key_text": ("weights", {"x": ["1", "1", "1"]}),
    "path_vertex_text": ("path", None),
}


def _malformed_command(tmp_path, kind):
    command, payload = MALFORMED_INPUTS[kind]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    cochain = tmp_path / "u.json"
    cochain.write_text(json.dumps({"degree": 1, "values": ["0", "0", "0"]}))
    return {
        "gerbe": ["lowdeg", "gerbe", "--space", "circle3", "--gerbe", str(path)],
        "weights": [
            "hodge", "decompose", "--space", "circle3",
            "--cochain", str(cochain), "--weights", str(path),
        ],
        "path": ["hodge", "aj", "--space", "torus", "--src", "0", "--dst", "1",
                 "--path", "0,x"],
    }[command], str(path)


@pytest.mark.parametrize("kind", sorted(MALFORMED_INPUTS))
def test_malformed_cover_weights_and_path_are_input_errors(tmp_path, capsys, kind):
    argv, _ = _malformed_command(tmp_path, kind)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("kind, names", [
    ("weights_key_text", "{path}: weights degree 'x' is not an integer"),
    ("path_vertex_text", "--path: vertex 'x' is not an integer"),
    ("pair_key_text", "pair layer: overlap '0,x': patch 'x' is not an integer"),
], ids=["weights", "path", "overlap"])
def test_integer_input_errors_name_the_input(tmp_path, capsys, kind, names):
    # weight degrees, --path vertices and overlap keys are read by
    # json_int, whose message names the file, flag or key and the field
    argv, path = _malformed_command(tmp_path, kind)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"error: {names.format(path=path)}\n"


@pytest.mark.parametrize("space", ["torus_grid5", "rp3"])
def test_verify_exact_with_weights_in_every_degree(capsys, tmp_path, space):
    # the exact route under weights: adjoint_delta, the up potential and
    # the weighted normal and Gram systems, with no residual left
    K = build_space(space)
    rng = random.Random(0)
    path = tmp_path / "w.json"
    path.write_text(json.dumps({
        str(k): [rng.choice(("1/3", "1", "2", "5/2")) for _ in range(K.n_simplices(k))]
        for k in range(K.dimension + 1)
    }))
    code, data = run_json(
        capsys, "verify", "--space", space, "--trials", "5", "--seed", "0",
        "--weights", str(path),
    )
    assert code == 0
    assert data["checks"] and all(v is True for v in data["checks"].values())
    assert data["residuals"] == {"hodge_max": "0"}


@pytest.mark.parametrize("value", ["1e5000", "1e4000000"])
def test_oversized_scalars_are_input_errors(tmp_path, capsys, value):
    # a value too long to print, and one whose exponent alone would take
    # seconds to build: both are refused as they are parsed
    K = build_space("torus")
    values = [value] + ["0"] * (K.n_simplices(1) - 1)
    cochain = tmp_path / "u.json"
    cochain.write_text(json.dumps({"degree": 1, "values": values}))
    code = main(["hodge", "decompose", "--space", "torus", "--cochain", str(cochain)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"{value!r} has more than 4300 digits" in captured.err


def test_result_too_long_to_print_is_input_error(tmp_path, capsys):
    # potentials 1/q1 and 1/q2 of 4001-digit coprime denominators on the
    # ends of an edge: the curvature there has a denominator of 8001 digits
    K = build_space("torus")
    a, b = K.simplices[1][0]
    values = ["0"] * K.n_vertices
    values[a], values[b] = f"1/{10**4000 + 1}", f"1/{10**4000 + 3}"
    spark = tmp_path / "s.json"
    spark.write_text(json.dumps({
        "degree": 0,
        "a": {"degree": 0, "values": values},
        "R": {"degree": 1, "values": [0] * K.n_simplices(1)},
    }))
    code = main(["spark", "d1", "--space", "torus", str(spark)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and "Traceback" not in captured.err
    assert "4300 digits" in captured.err


def _decompose_counting_reconstructions(tmp_path, capsys, monkeypatch, head):
    """(exit code, stdout, stderr, _reconstruct calls) of `hodge decompose`
    on the torus 1-cochain that starts with ``head`` and is 0 after it."""
    calls = []
    reconstruct = exact._reconstruct

    def counted(X, P):
        calls.append(P)
        return reconstruct(X, P)

    monkeypatch.setattr(exact, "_reconstruct", counted)
    K = build_space("torus")
    cochain = tmp_path / "u.json"
    cochain.write_text(json.dumps(
        {"degree": 1, "values": head + ["0"] * (K.n_simplices(1) - len(head))}
    ))
    code = main(["hodge", "decompose", "--space", "torus", "--cochain", str(cochain)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, len(calls)


def test_long_lifts_reconstruct_at_doubling_counts(tmp_path, capsys, monkeypatch):
    # 1313 p-adic lifts over the 8 solves: a reconstruction after every
    # lift made 1313 calls, one at lift counts 1, 2, 4, ... makes 35; the
    # parts are still too long to print
    code, out, err, calls = _decompose_counting_reconstructions(
        tmp_path, capsys, monkeypatch, [f"1/{10**4000 + 1}", f"1/{10**4000 + 3}"]
    )
    assert code == 3
    assert out == "" and "Traceback" not in err
    assert "Exceeds the limit (4300 digits) for integer string conversion" in err
    assert calls <= 64


# sha256 of the `hodge decompose` stdout of the cochain below, frozen when
# SymmetricSolver reconstructed after every lift (32 calls)
DOUBLING_REPORT_SHA = "331dbd36510206535557377415f7769a56d8e773e57387d8720406aefd3ae8da"


def test_doubling_reconstruction_keeps_the_report(tmp_path, capsys, monkeypatch):
    code, out, _, calls = _decompose_counting_reconstructions(
        tmp_path, capsys, monkeypatch, [f"1/{10**40 + 1}", f"1/{10**40 + 3}", "7/3"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DOUBLING_REPORT_SHA
    assert calls < 32


@pytest.mark.parametrize("degree", [-3, -2, 3, 9])
@pytest.mark.parametrize("command", [
    ["hodge", "decompose", "--space", "rp2", "--cochain"],
    ["spark", "new", "--space", "rp2", "--cocycle"],
    ["spark", "holonomy", "--space", "rp2", "{spark_ok}", "--cycle"],
    ["spark", "d1", "--space", "rp2"],
], ids=["cochain", "cocycle", "chain", "spark"])
def test_out_of_range_degree_is_input_error(tmp_path, capsys, command, degree):
    paths = _rp2_input_files(tmp_path, "0")
    data = tmp_path / "data.json"
    payload = {"degree": degree, "values": []}
    if command[1] == "d1":
        # an empty spark: its potential and charge have no simplices
        payload = {"degree": degree, "a": payload, "R": {"degree": degree + 1, "values": []}}
    data.write_text(canonical_json(payload))
    code = main([a.format(**paths) for a in command] + [str(data)])
    captured = capsys.readouterr()
    assert code == 3
    assert f"degree {degree} outside -1..2" in captured.err and captured.out == ""


def test_zero_top_degree_spark_loads(tmp_path, capsys):
    # its charge has degree dim + 1 = 3, where rp2 has no simplices
    K = build_space("rp2")
    data = tmp_path / "top.json"
    data.write_text(canonical_json(spark_to_json(Spark(K.zero_cochain(2), K.zero_cochain(3)))))
    code, report = run_json(capsys, "spark", "d1", "--space", "rp2", str(data))
    assert code == 0
    assert report["results"]["curvature"] == {"degree": 3, "ring": "INT", "values": []}


NON_INTEGER_DEGREE_COMMANDS = {
    "cochain": ["hodge", "decompose", "--space", "rp2", "--cochain", "{data}"],
    "cocycle": ["spark", "new", "--space", "rp2", "--cocycle", "{data}"],
    "chain": ["spark", "holonomy", "--space", "rp2", "{spark_ok}", "--cycle", "{data}"],
    "spark": ["spark", "d1", "--space", "rp2", "{data}"],
}


def _degree_file(tmp_path, kind, degree):
    """A zero rp2 input of the given kind whose (potential's) degree is ``degree``."""
    K = build_space("rp2")
    if kind == "spark":
        data = spark_to_json(Spark(K.zero_cochain(1), K.zero_cochain(2)))
        data["a"]["degree"] = degree
    else:
        data = {"degree": degree, "values": ["0"] * K.n_simplices(1)}
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("degree", [1.5, True, None], ids=["fractional", "true", "null"])
@pytest.mark.parametrize("kind", sorted(NON_INTEGER_DEGREE_COMMANDS))
def test_non_integer_degree_is_input_error(tmp_path, capsys, kind, degree):
    paths = _rp2_input_files(tmp_path, "0")
    paths["data"] = _degree_file(tmp_path, kind, degree)
    code = main([a.format(**paths) for a in NON_INTEGER_DEGREE_COMMANDS[kind]])
    captured = capsys.readouterr()
    assert code == 3
    assert "degree" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind", sorted(NON_INTEGER_DEGREE_COMMANDS))
def test_integer_degree_as_text_loads(tmp_path, capsys, kind):
    paths = _rp2_input_files(tmp_path, "0")
    paths["data"] = _degree_file(tmp_path, kind, "1")
    code = main([a.format(**paths) for a in NON_INTEGER_DEGREE_COMMANDS[kind]])
    captured = capsys.readouterr()
    assert code == 0, captured.err


@pytest.mark.parametrize("command, what", [
    (["hodge", "decompose", "--space", "rp2", "--cochain"], "cochain"),
    (["spark", "holonomy", "--space", "rp2", "{spark_ok}", "--cycle"], "chain"),
], ids=["cochain", "chain"])
def test_missing_values_is_malformed_input(tmp_path, capsys, command, what):
    paths = _rp2_input_files(tmp_path, "0")
    data = tmp_path / "data.json"
    data.write_text(canonical_json({"degree": 1}))
    code = main([a.format(**paths) for a in command] + [str(data)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert f"malformed {what} (" in captured.err and "Traceback" not in captured.err


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(
        ["hodge", "decompose", "--space", "sphere2", "--cochain", str(bad)]
    )
    assert code == 3



@pytest.mark.parametrize(
    "data, reason",
    [
        ({"vertices": 3, "simplices": [[0, 1], [1, 2]]}, "simplices"),
        ({"dimension": None, "vertices": 2, "simplices": {"1": [[0, 1]]}}, "dimension"),
        ({"dimension": 1.5, "vertices": 2, "simplices": {"1": [[0, 1]]}}, "dimension"),
    ],
    ids=["simplices-list", "dimension-null", "dimension-fractional"],
)
def test_malformed_complex_json_is_input_error(tmp_path, capsys, data, reason):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    code = main(["build", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert reason in captured.err

def test_build_writes_and_reloads(tmp_path, capsys):
    out = tmp_path / "c4.json"
    code, data = run_json(
        capsys, "build", "--space", "circle4", "--out", str(out)
    )
    assert code == 0
    stored = json.loads(out.read_text())
    assert stored["vertices"] == 4
    code, data = run_json(capsys, "build", "--input", str(out))
    assert code == 0
    assert data["results"]["dimension"] == 1
    assert data["results"]["closed_oriented"] is True


def test_characters_csv(capsys):
    code, out = run(capsys, "characters", "--space", "torus", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("degree,")
    assert len(lines) == 1 + 4


def _write_hodge_inputs(tmp_path, K, k, weighted):
    """Deterministic decompose/spark/normal inputs for degree k of K."""
    rng = random.Random(100 + k)
    u = [
        scalar_str(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        for _ in range(K.n_simplices(k))
    ]
    free, tor = cohomology_generators(K, k)
    R = K.zero_cochain(k)
    for g in free + [t[1] for t in tor]:
        R = R + g.scale(rng.randint(1, 2))
    if k >= 1:
        x = [rng.randint(-2, 2) for _ in range(K.n_simplices(k - 1))]
        R = R + K.delta(K.cochain(k - 1, x))
    files = {
        "cochain": {"degree": k, "values": u},
        "cocycle": {"degree": k, "values": [scalar_str(v) for v in R.values]},
        "spark": spark_to_json(random_spark(K, k, rng)),
    }
    if weighted:
        w = varied_weights(K, random.Random(5))
        files["weights"] = {str(d): [scalar_str(x) for x in w[d]] for d in w}
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}{k}.json"
        paths[name].write_text(canonical_json(obj))
    return paths


def _without_weights_input(out, weights_path):
    """A weighted report as printed before --weights entered ``inputs``.

    Checks that ``inputs`` carries the sha256 of the weights file, drops
    it and recomputes the digest; the rest of the report is unchanged.
    """
    report = json.loads(out)
    sha = hashlib.sha256(weights_path.read_bytes()).hexdigest()
    assert report["inputs"].pop("weights") == sha
    report["digest"] = hashlib.sha256(canonical_json(report["inputs"]).encode()).hexdigest()
    return canonical_json(report)


# sha256 of the concatenated stdout over every degree, frozen from the
# Laplacian-elimination Green operator (weighted reports as printed
# before the weights file sha entered their inputs)
HODGE_STDOUT_SHA = {
    "cp2 decompose uniform": (
        "16e7715cf094dcbc1f522ce87bd358718972ddcb342137970615e4699487e777"
    ),
    "cp2 decompose weighted": (
        "c3af104ecda4422617f57a71a247e6ecebcf7b2d344b6f77085bd457ff6f560b"
    ),
    "cp2 normal uniform": (
        "d3952c0e56168e11c0c888f1bf98cd2c01c92fc817cd5553e47ddd9ec1f8b177"
    ),
    "cp2 normal weighted": (
        "e426658246fab4d00bab2a348fc54bca448e3d5fe8d13b6be4ada62d03bbab3b"
    ),
    "cp2 spark uniform": (
        "463cd050b7e6021b8c4033d6249b7b20ec31fa969bf03622df011890a6a28b59"
    ),
    "cp2 spark weighted": (
        "4a0eb0021587ec518340fd9246e6e91cfda54667bc03f3e0dfd29077e5f70b41"
    ),
    "rp2 decompose uniform": (
        "194c112320b9c926654e35dc0b657ad771434297a945934a265f56b99822ecb1"
    ),
    "rp2 decompose weighted": (
        "19b9ec4c38efa364b11733830b3efef5449a5a5c9efaed4d655cda5c4727b2e0"
    ),
    "rp2 normal uniform": (
        "588b26bf2f68d161f1240db8f9eccafd3bada913e951108e24ba40c4dea0dd14"
    ),
    "rp2 normal weighted": (
        "135dfe6af4f158c7737f286a4d76353f7def32decb7bce5864f55ad942bc6b21"
    ),
    "rp2 spark uniform": (
        "ca6ed6758ad5789599bcd2979a44eba51ce7806da7a6af1c697d07ceb47d67af"
    ),
    "rp2 spark weighted": (
        "d2af8d4de91bdd53284b5c1a107a1deb21c74caef8e721ed351dd5773c37dc96"
    ),
}


@pytest.mark.parametrize("space", ["rp2", "cp2"])
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_hodge_commands_stdout_frozen(tmp_path, capsys, space, weighted):
    K = build_space(space)
    outs = {"decompose": "", "spark": "", "normal": ""}
    for k in range(K.dimension + 1):
        paths = _write_hodge_inputs(tmp_path, K, k, weighted)
        extra = ["--weights", str(paths["weights"])] if weighted else []
        for cmd, args in (
            ("decompose", ["--cochain", str(paths["cochain"])]),
            ("spark", ["--cocycle", str(paths["cocycle"])]),
            ("normal", [str(paths["spark"])]),
        ):
            code, out = run(capsys, "hodge", cmd, "--space", space, *args, *extra)
            assert code == 0
            if weighted:
                out = _without_weights_input(out, paths["weights"])
            outs[cmd] += out
    label = "weighted" if weighted else "uniform"
    got = {
        f"{space} {cmd} {label}": hashlib.sha256(text.encode()).hexdigest()
        for cmd, text in outs.items()
    }
    assert got == {key: HODGE_STDOUT_SHA.get(key) for key in got}


def _weights_file(tmp_path, K):
    w = varied_weights(K, random.Random(5))
    path = tmp_path / "weights.json"
    path.write_text(canonical_json({str(d): [scalar_str(x) for x in w[d]] for d in w}))
    return path


# sha256 of the concatenated `hodge spark` stdout over every integral
# generator (free, then torsion) of every degree, frozen from the
# construction that factored N_k for every charge (weighted reports as
# printed before the weights file sha entered their inputs)
HODGE_SPARK_GENERATORS_SHA = {
    "rp2 uniform": (
        "197ece2153d404e6e834634c0784c150c1bd0437709cdcf47da407753e2ae923"
    ),
    "rp2 weighted": (
        "86a8b475e03747aa90ee30f1a04f025c06ebbc138017d50044102e56f3dfa322"
    ),
    "cp2 uniform": (
        "5720b92ee63cba2809aadb015069b94b9970d74b4f59f2dab22b08da3e4bf54e"
    ),
    "cp2 weighted": (
        "3478b047ff8bdcd8dcc530c0a770c269932db815a76b1b6f9900fedd58dcc8d3"
    ),
    "torus uniform": (
        "b68fb2898e8617d218213c538ddef68930a4d3fc087a8f743d0be71da3e16a42"
    ),
    "torus weighted": (
        "9d0651636dd7ac6fed626af563cd5bdca98c48dddf9a3ab110bb8927ee420468"
    ),
}


@pytest.mark.parametrize("space", ["rp2", "cp2", "torus"])
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
def test_hodge_spark_generators_stdout_frozen(tmp_path, capsys, space, weighted):
    K = build_space(space)
    weights = _weights_file(tmp_path, K) if weighted else None
    extra = ["--weights", str(weights)] if weighted else []
    text = ""
    for k in range(K.dimension + 1):
        free, tor = cohomology_generators(K, k)
        for i, g in enumerate(free + [t[1] for t in tor]):
            path = tmp_path / f"gen{k}_{i}.json"
            path.write_text(
                canonical_json({"degree": k, "values": [scalar_str(v) for v in g.values]})
            )
            code, out = run(
                capsys, "hodge", "spark", "--space", space, "--cocycle", str(path), *extra
            )
            assert code == 0
            text += _without_weights_input(out, weights) if weighted else out
    label = f"{space} {'weighted' if weighted else 'uniform'}"
    assert hashlib.sha256(text.encode()).hexdigest() == HODGE_SPARK_GENERATORS_SHA[label]


# sha256 of the concatenated `hodge spark` stdout over the free
# generators of degrees 1 and 2 on the torus, with weights given in
# degree 1 only (degrees 0 and 2 uniform); frozen from the construction
# whose weighted solves lived in the spark module
HODGE_SPARK_ONE_DEGREE_WEIGHTS_SHA = (
    "e9527af81b8929253b2896269ef523aef2f40d581fe29267f5e974616085bea7"
)


def test_hodge_spark_one_degree_weights_frozen(tmp_path, capsys):
    K = build_space("torus")
    choices = ("1/2", "1", "3/2", "2", "5/2")
    weights = tmp_path / "w.json"
    weights.write_text(canonical_json({"1": [choices[i % 5] for i in range(K.n_simplices(1))]}))
    text = ""
    for k in (1, 2):
        for i, g in enumerate(cohomology_generators(K, k)[0]):
            path = tmp_path / f"gen{k}_{i}.json"
            path.write_text(canonical_json({"degree": k, "values": [str(v) for v in g.values]}))
            code, out = run(
                capsys, "hodge", "spark", "--space", "torus", "--cocycle", str(path),
                "--weights", str(weights),
            )
            assert code == 0
            text += out
    assert hashlib.sha256(text.encode()).hexdigest() == HODGE_SPARK_ONE_DEGREE_WEIGHTS_SHA


# sha256 of the stdout of `spark new --cocycle` and of `hodge spark`,
# with default flags and with the varied weights file (`spark new` takes
# no weights), on the degree-2 torsion generators of rp3 and lens:5,2,
# where b_1 = 0, and on the degree-3 generator of lens:5,2; frozen from
# the construction that formed H^{k-1} for every potential
SPARK_CHARGE_STDOUT_SHA = {
    "rp3 2": {
        "spark new": (
            "a25284ebab298ad6cd6ee7eba02ae81134972f6545300dd1e142a4bcad49f03b"
        ),
        "hodge spark": (
            "7de4e74824234105576b13e1a043e8222b8ed16efb5f9ebd2a9a20cbc8f623b7"
        ),
        "hodge spark weighted": (
            "046b3b124d4560fdda53971c749794d005d810b1909a6903119229879472caa9"
        ),
    },
    "lens:5,2 2": {
        "spark new": (
            "d15c36465c800ccb7a8c72ec167231ec0eb349df1db9e1dcd7b75da9c1d52a19"
        ),
        "hodge spark": (
            "07cdd2313ed4adf20ef226eaf749495d41e8778379690cea9eecdf77010f0628"
        ),
        "hodge spark weighted": (
            "afe1988178dbf4cecca34aa3a0ced54b631d3dc4c2f689cf0e30a364ce85d593"
        ),
    },
    "lens:5,2 3": {
        "spark new": (
            "47bd1da71fcf5cd03569b5f22b6f32dfafcec36a08ee14128fb632dfdab404e6"
        ),
        "hodge spark": (
            "d242e6c8df03930060d0a392e469489f1c73743455b57208e4b40cf959a8b4b2"
        ),
        "hodge spark weighted": (
            "20bed66156ecf4854e3251cbecdcf87258b7c3bb2e1d17a27c9820af5471f27c"
        ),
    },
}


@pytest.mark.parametrize("space, k", [("rp3", 2), ("lens:5,2", 2), ("lens:5,2", 3)])
def test_spark_of_one_generator_stdout_frozen(tmp_path, capsys, space, k):
    K = build_space(space)
    free, tor = cohomology_generators(K, k)
    (g,) = free + [t[1] for t in tor]
    path = tmp_path / "gen.json"
    path.write_text(canonical_json({"degree": k, "values": [scalar_str(v) for v in g.values]}))
    weights = ["--weights", str(_weights_file(tmp_path, K))]
    got = {}
    for label, cmd, extra in (
        ("spark new", "spark new", []),
        ("hodge spark", "hodge spark", []),
        ("hodge spark weighted", "hodge spark", weights),
    ):
        code, out = run(capsys, *cmd.split(), "--space", space, "--cocycle", str(path), *extra)
        assert code == 0
        got[label] = hashlib.sha256(out.encode()).hexdigest()
    assert got == SPARK_CHARGE_STDOUT_SHA[f"{space} {k}"]


def test_hodge_default_flag_digest_frozen(capsys):
    # frozen from the reports that carried no Hodge flags in their inputs
    code, data = run_json(capsys, "hodge", "aj", "--space", "torus", "--src", "0", "--dst", "3")
    assert code == 0
    assert data["inputs"] == {"dst": 3, "path": None, "space": "torus", "src": 0}
    assert data["digest"] == (
        "9e3151660bbe08e2ee1f6460cfcf12264b96990bf4c3d62d03c442b872cb6dff"
    )


def test_hodge_flags_enter_digest(tmp_path, capsys):
    K = build_space("cp2")
    cochain = tmp_path / "u.json"
    cochain.write_text(
        canonical_json({"degree": 4, "values": ["1/2"] * K.n_simplices(4)})
    )
    base = ["hodge", "decompose", "--space", "cp2", "--cochain", str(cochain)]
    weights = _weights_file(tmp_path, K)
    runs = {
        "default": [],
        "weights": ["--weights", str(weights)],
        "method": ["--method", "exact"],
        "tol": ["--tol", "1e-8"],
    }
    reports = {}
    for name, extra in runs.items():
        code, reports[name] = run_json(capsys, *base, *extra)
        assert code == 0
    assert reports["weights"]["inputs"]["weights"] == hashlib.sha256(
        weights.read_bytes()
    ).hexdigest()
    assert reports["method"]["inputs"]["method"] == "exact"
    assert reports["tol"]["inputs"]["tol"] == "1e-08"
    assert set(reports["default"]["inputs"]) == {"space", "cochain"}
    # the weighted run computes something else, under its own digest
    assert reports["weights"]["results"] != reports["default"]["results"]
    digests = {r["digest"] for r in reports.values()}
    assert len(digests) == len(runs)


def test_weights_outside_degree_range_is_input_error(tmp_path, capsys):
    K = build_space("torus_grid3")
    cochain = tmp_path / "u.json"
    cochain.write_text(
        canonical_json({"degree": 1, "values": ["1"] * K.n_simplices(1)})
    )
    weights = tmp_path / "w.json"
    weights.write_text(canonical_json({"7": ["2"]}))
    code = main([
        "hodge", "decompose", "--space", "torus_grid3",
        "--cochain", str(cochain), "--weights", str(weights),
    ])
    assert code == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("p, q", [(9, -5), (-1, 5), (5, -1)])
def test_spark_link_degree_range(capsys, p, q):
    code = main(["spark", "link", "--space", "rp3", "--p", str(p), "--q", str(q)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0..3" in captured.err


def _table_columns(capsys, space):
    code, out = run(capsys, "tables", "--space", space, "--format", "csv")
    assert code == 0
    return [line.split(",")[:3] for line in out.splitlines()[1:]]


def test_kunneth_of_nested_names(capsys):
    # the names split at their top-level comma, as in product:A,B
    assert _table_columns(capsys, "kunneth:product:circle,circle,rp2") == _table_columns(
        capsys, "kunneth:torus,rp2"
    )
    # L(3,1) x S1 by hand: H^* of L(3,1) is Z, 0, Z_3, Z and that of S1 is
    # Z, Z with no torsion, so H^0..4 of the product is Z, Z, Z_3, Z + Z_3, Z
    assert _table_columns(capsys, "kunneth:lens:3,1,circle") == [
        ["-1", "0", "Z"],
        ["0", "1", "Z"],
        ["1", "1", "Z_3"],
        ["2", "0", "Z + Z_3"],
        ["3", "1", "Z"],
        ["4", "1", "0"],
    ]


def test_kunneth_needs_two_names(capsys):
    code = main(["tables", "--space", "kunneth:cp2"])
    assert code == 3
    assert "kunneth:A,B" in capsys.readouterr().err


# A value list given as text would be read character by character, and an
# object through its keys; false and true are not numbers.  Read that way,
# the text and bool lists below would pass as valid zero (or unit) inputs.
BAD_VALUE_LISTS = {
    "text": lambda n, d: str(d) * n,
    "object": lambda n, d: {str(i): str(d) for i in range(n)},
    "bool": lambda n, d: [bool(d)] * n,
}


def _value_list_command(tmp_path, kind, bad):
    """argv of a command whose input file holds one bad value list."""
    K = build_space("rp2")
    n1, n2 = K.n_simplices(1), K.n_simplices(2)
    spark = spark_to_json(Spark(K.zero_cochain(1), K.zero_cochain(2)))
    ok = {"spark": spark, "cochain": {"degree": 1, "values": ["0"] * n1}}
    if kind == "spark_a":
        spark["a"]["values"] = bad(n1, 0)
        ok["bad"] = spark
    elif kind == "spark_R":
        spark["R"]["values"] = bad(n2, 0)
        ok["bad"] = spark
    else:
        ok["bad"] = {
            "cochain": {"degree": 1, "values": bad(n1, 0)},
            "cocycle": {"degree": 1, "values": bad(5, 0)},
            "chain": {"degree": 1, "values": bad(n1, 0)},
            "connection": {"edges": bad(6, 0)},
            "weights": {"1": bad(n1, 1)},
            "circle": bad(4, 0),
            "patch": {"cover": "star", "patch": [bad(14, 0)] + [["0"] * 14] * 6},
            "pair": {"pair": {"0,1": bad(3, 0)}},
            "triple": {"triple": {"0,1,2": bad(3, 0)}},
        }[kind]
    paths = {}
    for name, payload in ok.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    return [str(a).format(**paths) for a in {
        "cochain": ["hodge", "decompose", "--space", "rp2", "--cochain", "{bad}"],
        "cocycle": ["spark", "new", "--space", "circle5", "--cocycle", "{bad}"],
        "chain": ["spark", "holonomy", "--space", "rp2", "{spark}", "--cycle", "{bad}"],
        "spark_a": ["spark", "d1", "--space", "rp2", "{bad}"],
        "spark_R": ["spark", "d1", "--space", "rp2", "{bad}"],
        "connection": ["lowdeg", "conn", "--space", "sphere2", "--theta", "{bad}"],
        "weights": [
            "hodge", "decompose", "--space", "rp2",
            "--cochain", "{cochain}", "--weights", "{bad}",
        ],
        "circle": ["lowdeg", "circle", "--space", "circle4", "--values", "{bad}"],
        "patch": ["lowdeg", "gerbe", "--space", "torus", "--gerbe", "{bad}"],
        "pair": ["lowdeg", "gerbe", "--space", "circle3", "--gerbe", "{bad}"],
        "triple": ["lowdeg", "gerbe", "--space", "circle3", "--gerbe", "{bad}"],
    }[kind]]


VALUE_LIST_KINDS = [
    "cochain", "cocycle", "chain", "spark_a", "spark_R", "connection",
    "weights", "circle", "patch", "pair", "triple",
]


@pytest.mark.parametrize("shape", sorted(BAD_VALUE_LISTS))
@pytest.mark.parametrize("kind", VALUE_LIST_KINDS)
def test_value_list_not_array_of_numbers_is_input_error(tmp_path, capsys, kind, shape):
    argv = _value_list_command(tmp_path, kind, BAD_VALUE_LISTS[shape])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3, captured.out
    assert "list of numbers" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind", VALUE_LIST_KINDS)
def test_value_list_of_numbers_loads(tmp_path, capsys, kind):
    # the same inputs as numbers, numerals and fractions are accepted
    argv = _value_list_command(
        tmp_path, kind, lambda n, d: [d, str(d), f"{d}/1"][:n] + [d] * (n - 3)
    )
    code = main(argv)
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("vertex", [1.9, True, "x"], ids=["fractional", "true", "text"])
def test_cover_vertex_not_integer_is_input_error(tmp_path, capsys, vertex):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"cover": [[[0, vertex], [1, 2], [0, 2]]]}))
    code = main(["lowdeg", "gerbe", "--space", "circle3", "--gerbe", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "cover: vertex" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "cover, reason",
    [
        ([[[0, 1, 2]]], "not in complex"),
        ([[[]]], "not in complex"),
        ([["01", "12", "02"]], "list of patch simplex lists"),
        (["012"], "list of patch simplex lists"),
        ({"0": [[0, 1]]}, "list of patch simplex lists"),
    ],
    ids=["too-high", "empty", "text-simplices", "text-patch", "object"],
)
def test_cover_malformed_is_input_error(tmp_path, capsys, cover, reason):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"cover": cover}))
    code = main(["lowdeg", "gerbe", "--space", "circle3", "--gerbe", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert reason in captured.err and "Traceback" not in captured.err


def test_cover_integer_vertices_load(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"cover": [[[0, 1.0], ["1", 2], [0, 2]]]}))
    code = main(["lowdeg", "gerbe", "--space", "circle3", "--gerbe", str(path)])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "space, payload, reason",
    [
        ("circle3", {"patch": [[], [], [], []]}, "patch of the cover"),
        ("circle3", {"pair": {"1,0": ["0", "0", "0"]}}, "not a sorted double overlap"),
        ("circle3", {"pair": {"0,7": ["0", "0", "0"]}}, "not a sorted double overlap"),
        ("circle5", {"triple": {"0,2,4": ["0"] * 5}}, "not a sorted triple overlap"),
        ("circle3", {"pair": [["0", "0", "0"]]}, "pair layer"),
        ("circle3", {"triple": "0,1,2"}, "triple layer"),
        ("circle3", {"pair": {"0,x": ["0", "0", "0"]}}, "pair layer"),
        ("circle3", {"triple": {"0,1.5,2": ["0", "0", "0"]}}, "triple layer"),
        ("circle3", {"pair": {"0,1": ["0", "0", "1"]}}, "support outside"),
    ],
    ids=[
        "too-many-patches", "unsorted-key", "no-such-patch", "non-overlap-key",
        "pair-not-object", "triple-not-object", "key-text", "key-fraction",
        "support-outside",
    ],
)
def test_gerbe_layer_malformed_is_input_error(tmp_path, capsys, space, payload, reason):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(payload))
    code = main(["lowdeg", "gerbe", "--space", space, "--gerbe", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert reason in captured.err and "Traceback" not in captured.err


def test_spark_holonomy_defaults_to_the_fundamental_cycle(tmp_path, capsys):
    # without --cycle the holonomy is over the fundamental cycle; a space
    # without one (rp2 is not orientable) is an input error
    K = moebius_kuehnel_torus()
    s = random_spark(K, 2, random.Random(3))
    spark, cycle = tmp_path / "s.json", tmp_path / "z.json"
    spark.write_text(canonical_json(spark_to_json(s)))
    z = K.fundamental_cycle()
    cycle.write_text(canonical_json({"degree": z.degree, "values": [str(v) for v in z.values]}))
    argv = ["spark", "holonomy", "--space", "torus", str(spark)]
    code, default = run_json(capsys, *argv)
    assert code == 0
    assert default["results"] == {"holonomy": scalar_str(holonomy(K, s, z))}
    code, given = run_json(capsys, *argv, "--cycle", str(cycle))
    assert code == 0 and given["results"] == default["results"]
    rp2 = build_space("rp2")
    spark.write_text(canonical_json(spark_to_json(random_spark(rp2, 2, random.Random(3)))))
    code = main(["spark", "holonomy", "--space", "rp2", str(spark)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: no fundamental cycle; pass --cycle FILE\n"


def test_spark_new_needs_a_cocycle_or_a_degree(capsys):
    code = main(["spark", "new", "--space", "torus", "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: spark new needs --cocycle FILE or --k with --seed\n"


def test_hodge_spark_out_writes_the_artifact(tmp_path, capsys):
    K = moebius_kuehnel_torus()
    cocycle, out = tmp_path / "R.json", tmp_path / "s.json"
    g = cohomology_generators(K, 1)[0][0]
    cocycle.write_text(canonical_json({"degree": 1, "values": [str(v) for v in g.values]}))
    argv = ["hodge", "spark", "--space", "torus", "--cocycle", str(cocycle)]
    code, shown = run_json(capsys, *argv)
    assert code == 0 and "written" not in shown["results"]
    code, data = run_json(capsys, *argv, "--out", str(out))
    assert code == 0
    assert data["results"] == {**shown["results"], "written": str(out)}
    assert json.loads(out.read_text()) == shown["results"]["spark"]


@pytest.mark.parametrize("declared, expected", [
    (None, 0), (1, 0), ("1", 0), (5, 3), (2, 3), ("x", 3), (True, 3),
])
def test_spark_file_degree_must_be_that_of_a(tmp_path, capsys, declared, expected):
    # a declared degree is checked like a complex file's declared dimension
    K = moebius_kuehnel_torus()
    payload = spark_to_json(random_spark(K, 1, random.Random(4)))
    del payload["degree"]
    if declared is not None:
        payload["degree"] = declared
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    code = main(["spark", "d2", "--space", "torus", str(path)])
    captured = capsys.readouterr()
    assert code == expected
    if expected == 3:
        assert captured.out == "" and "degree" in captured.err
        assert "Traceback" not in captured.err


def _lone_complex(tmp_path, vertices):
    path = tmp_path / f"complex-{vertices}.json"
    path.write_text(json.dumps({"vertices": vertices, "simplices": {}}))
    return ["--input", str(path)]


@pytest.mark.parametrize("space", ["point", "simplex0", "sphere0", "vertex"])
@pytest.mark.parametrize("path", [None, "0", "0,0"])
def test_hodge_aj_on_a_zero_dimensional_complex(tmp_path, capsys, space, path):
    # no edges, so no degree-1 table: every Abel-Jacobi value list is empty
    where = _lone_complex(tmp_path, 1) if space == "vertex" else ["--space", space]
    argv = ["hodge", "aj", *where, "--src", "0", "--dst", "0"]
    code, data = run_json(capsys, *argv, *(["--path", path] if path else []))
    assert code == 0
    assert data["results"] == {"values": []}


def test_hodge_aj_on_the_empty_complex_checks_the_vertices_first(tmp_path, capsys):
    argv = ["hodge", "aj", *_lone_complex(tmp_path, 0), "--src", "0", "--dst", "0"]
    for extra in ([], ["--path", "0"]):
        code = main([*argv, *extra])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == "error: vertex 0 outside 0..-1\n"


def _degenerate_commands(tmp_path, K, where):
    """argv of every command on K, with input files of K's top degree d.

    The spark is a random one of degree d; one file of d zeros serves
    as cochain, cocycle and cycle; the gerbe has degree 2, above d, so
    lowdeg gerbe is an input error.
    """
    d = K.dimension
    payloads = {
        "cochain": {"degree": d, "values": ["0"] * K.n_simplices(d)},
        "spark": spark_to_json(random_spark(K, d, random.Random(0))),
        "values": ["0"] * K.n_simplices(0),
        "theta": {"edges": []},
        "gerbe": {"degree": 2, "values": []},
    }
    f = {}
    for name, payload in payloads.items():
        f[name] = str(tmp_path / f"{name}.json")
        Path(f[name]).write_text(canonical_json(payload))
    commands = [
        ["build"], ["cohomology", "--k", "0"], ["characters"], ["dual"],
        ["verify", "--trials", "3"], ["verify", "--trials", "3", "--method", "cg"],
        ["spark", "new", "--k", str(d)], ["spark", "new", "--cocycle", f["cochain"]],
        ["spark", "new"], ["spark", "d1", f["spark"]], ["spark", "d2", f["spark"]],
        ["spark", "equiv", f["spark"], f["spark"]], ["spark", "star", f["spark"], f["spark"]],
        ["spark", "pair", f["spark"], f["spark"]], ["spark", "holonomy", f["spark"]],
        ["spark", "holonomy", f["spark"], "--cycle", f["cochain"]],
        ["spark", "link", "--p", "0", "--q", "0"],
        ["hodge", "decompose", "--cochain", f["cochain"]],
        ["hodge", "decompose", "--cochain", f["cochain"], "--method", "cg"],
        ["hodge", "spark", "--cocycle", f["cochain"]], ["hodge", "normal", f["spark"]],
        ["hodge", "aj", "--src", "0", "--dst", "0"],
        ["hodge", "aj", "--src", "0", "--dst", "0", "--path", "0"],
        ["morse", "match"], ["morse", "homology"], ["morse", "verify"],
        ["morse", "spark", "--cocycle", f["cochain"]],
        ["lowdeg", "circle", "--values", f["values"]],
        ["lowdeg", "conn", "--theta", f["theta"]],
        ["lowdeg", "gerbe", "--gerbe", f["gerbe"]],
    ]
    if where[0] == "--space":
        commands.append(["tables"])
    for argv in commands:
        # the space goes after the command, and after the subcommand of a group
        at = 2 if argv[0] in ("spark", "hodge", "morse", "lowdeg") else 1
        yield [*argv[:at], *where, *argv[at:]]


@pytest.mark.parametrize("space", ["point", "sphere0", "empty", "vertex"])
def test_every_command_on_a_degenerate_complex_ends_without_a_traceback(
    tmp_path, capsys, space
):
    # exit 0, 1 or 3 with no traceback: an exception that leaves main
    # fails the test with its own traceback
    if space in ("empty", "vertex"):
        where = _lone_complex(tmp_path, int(space == "vertex"))
        K = SimplicialComplex.from_json_dict({"vertices": int(space == "vertex"), "simplices": {}})
    else:
        where, K = ["--space", space], build_space(space)
    bad = []
    for argv in _degenerate_commands(tmp_path, K, where):
        code = main(argv)
        captured = capsys.readouterr()
        if code not in (0, 1, 3) or "Traceback" in captured.err:
            bad.append(f"{' '.join(argv)}: exit {code}")
        elif code == 3 and captured.out:
            bad.append(f"{' '.join(argv)}: exit 3 with a report")
    assert not bad, bad
