import json
import subprocess
import sys

import pytest

from torsorlab import cli, groups as gr, jsonio


@pytest.fixture
def fixtures(tmp_path):
    files = {}
    sp, gens = gr.heisenberg_group(3)
    files["h3"] = tmp_path / "h3.json"
    files["h3"].write_text(json.dumps(jsonio.group_to_json(sp.group)))
    s3 = gr.symmetric_group(3)
    files["s3"] = tmp_path / "s3.json"
    files["s3"].write_text(json.dumps(jsonio.group_to_json(s3)))
    c2 = gr.cyclic_group(2)
    files["gset"] = tmp_path / "gset.json"
    files["gset"].write_text(
        json.dumps(
            {"group": jsonio.group_to_json(c2), "size": 2, "action": [[0, 1], [1, 0]]}
        )
    )
    files["gset2"] = tmp_path / "gset2.json"
    files["gset2"].write_text(
        json.dumps(
            {"group": jsonio.group_to_json(c2), "size": 2, "action": [[0, 1], [1, 0]]}
        )
    )
    files["matrix"] = tmp_path / "matrix.json"
    files["matrix"].write_text(json.dumps([[2, 0], [0, 3]]))
    files["lattice"] = tmp_path / "lattice.json"
    files["lattice"].write_text(
        json.dumps(
            {
                "rank": 1,
                "group": jsonio.group_to_json(c2),
                "rho": {"1": [[-1]]},
            }
        )
    )
    files["datum"] = tmp_path / "datum.json"
    files["datum"].write_text(
        json.dumps({"group": jsonio.group_to_json(c2), "iota": 1})
    )
    files["recipe"] = tmp_path / "recipe.json"
    files["recipe"].write_text(
        json.dumps({"kind": "subgroup-chain", "rank": 1, "step": [[2]], "base": [[1]]})
    )
    files["tower"] = tmp_path / "tower.json"
    files["tower"].write_text(
        json.dumps(
            {
                "levels": [{"conductor": 1, "subgroup": [0]}],
                "law": {"kind": "cyclotomic-power", "l": 3},
            }
        )
    )
    files["chain"] = tmp_path / "chain.json"
    files["chain"].write_text(
        json.dumps({"kind": "layered-obstruction", "l": 3, "p0": 7, "levels": 1})
    )
    # torsor sequence: 1 -> C3 -> S3 -> C2 -> 1 over Gamma = C2
    c3 = gr.cyclic_group(3)
    a_elems = gr.generated_subgroup(s3, [2])
    inc = tuple(s3.power(2, k) for k in range(3))
    cq, proj = gr.quotient(s3, a_elems)
    gamma = jsonio.group_to_json(c2)
    files["seq"] = tmp_path / "seq.json"
    files["seq"].write_text(
        json.dumps(
            {
                "a": {"gamma": gamma, "underlying": jsonio.group_to_json(c3)},
                "b": {"gamma": gamma, "underlying": jsonio.group_to_json(s3)},
                "c": {"gamma": gamma, "underlying": jsonio.group_to_json(cq)},
                "include": list(inc),
                "project": list(proj.map),
            }
        )
    )
    files["base"] = tmp_path / "base.json"
    files["base"].write_text(json.dumps({"q_values": [0, 0], "p_values": [0, 0]}))
    files["bad"] = tmp_path / "bad.json"
    files["bad"].write_text("{not json")
    files["tmp"] = tmp_path
    return files


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload


def test_groups_classes(fixtures, capsys):
    code, rep = run_cli(capsys, ["groups", "classes", "--in", str(fixtures["h3"])])
    assert code == 0
    assert rep["evidence"]["class_count"] == 11
    assert rep["conventions"]["sbar-condition"] == 0


def test_gset_ops(fixtures, capsys):
    code, rep = run_cli(capsys, ["gset", "orbits", "--in", str(fixtures["gset"])])
    assert code == 0 and rep["evidence"]["orbits"] == [[0, 1]]
    code, rep = run_cli(
        capsys,
        ["gset", "iso", "--in", str(fixtures["gset"]), "--other", str(fixtures["gset2"])],
    )
    assert code == 0 and rep["evidence"]["isomorphic"]
    code, rep = run_cli(capsys, ["gset", "descent", "--in", str(fixtures["gset"])])
    assert code == 0 and rep["evidence"][0]["degree"] == 2


def test_lattice_snf(fixtures, capsys):
    code, rep = run_cli(capsys, ["lattice", "snf", "--in", str(fixtures["matrix"])])
    assert code == 0
    assert rep["evidence"]["diagonal"] == [1, 6]


def test_lattice_snf_rejects_malformed_matrices(capsys, tmp_path):
    path = tmp_path / "bad_matrix.json"
    for bad in ([[1, "a"]], [[[1]]], [[1.5, 2]], [[1, 2], [3]], [[None]], {"a": 1}, [1, [2]]):
        path.write_text(json.dumps(bad))
        assert cli.main(["lattice", "snf", "--in", str(path)]) == cli.EXIT_ERROR, bad
        assert "parse error" in capsys.readouterr().err


def test_lattice_exact_and_iso(fixtures, capsys, tmp_path):
    c1 = gr.trivial_group()
    gj = jsonio.group_to_json(c1)
    lat1 = {"rank": 1, "group": gj, "rho": {}}
    lat2 = {"rank": 2, "group": gj, "rho": {}}
    seq = tmp_path / "seq_lat.json"
    seq.write_text(
        json.dumps(
            {
                "lattices": [lat1, lat2, lat1],
                "maps": [[[1], [1]], [[1, -1]]],
            }
        )
    )
    code, rep = run_cli(capsys, ["lattice", "exact", "--in", str(seq)])
    assert code == 0 and rep["verdict"] == "verified"
    bad = tmp_path / "bad_lat.json"
    bad.write_text(
        json.dumps(
            {
                "lattices": [lat1, lat1, lat1],
                "maps": [[[2]], [[0]]],
            }
        )
    )
    code, rep = run_cli(capsys, ["lattice", "exact", "--in", str(bad)])
    assert code == 1 and rep["verdict"] == "refuted"
    iso = tmp_path / "iso_lat.json"
    iso.write_text(
        json.dumps({"source": lat1, "target": lat1, "matrix": [[-1]]})
    )
    code, rep = run_cli(capsys, ["lattice", "iso", "--in", str(iso)])
    assert code == 0 and rep["evidence"]["is_isomorphism"]


SIGN = {"rank": 1, "group": "c2.json", "rho": {"1": [[-1]]}}


@pytest.mark.parametrize("command,document", [
    (("lattice", "exact"), {"lattices": [SIGN, SIGN], "maps": [[["a"]]]}),
    (("lattice", "exact"), {"lattices": [SIGN, SIGN], "maps": [[[1]], [[1]]]}),
    (("lattice", "exact"), {"lattices": [SIGN, SIGN]}),
    (("lattice", "iso"), {"source": SIGN, "target": SIGN}),
    (("lattice", "iso"), {"source": SIGN, "target": SIGN, "matrix": [["x"]]}),
    (("cohomology", "h1"), dict(SIGN, rho={"1": [["a"]]})),
    (("cohomology", "h1"), dict(SIGN, rho={"5": [[-1]]})),
    (("cohomology", "h1"), dict(SIGN, rho={"1": [[True]]})),
], ids=["map-entry", "extra-map", "no-maps", "no-matrix", "matrix-entry",
        "rho-entry", "rho-key", "rho-bool"])
def test_malformed_lattice_json_exits_3(command, document, tmp_path, capsys):
    # a matrix entry that is no integer, a missing field, a map too many, a
    # rho key that is no group element: exit 3 with a message, no traceback
    (tmp_path / "c2.json").write_text(json.dumps(jsonio.group_to_json(gr.cyclic_group(2))))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    flag = "--module" if command[0] == "cohomology" else "--in"
    assert cli.main([*command, flag, str(path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "error" in captured.err


def test_cohomology_h1(fixtures, capsys):
    code, rep = run_cli(
        capsys, ["cohomology", "h1", "--module", str(fixtures["lattice"])]
    )
    assert code == 0
    assert rep["evidence"]["invariants"] == [2]


def test_torsor_verify(fixtures, capsys):
    code, rep = run_cli(
        capsys,
        [
            "torsor",
            "verify-twist",
            "--seq",
            str(fixtures["seq"]),
            "--base",
            str(fixtures["base"]),
        ],
    )
    assert code == 0
    assert rep["verdict"] == "verified"
    assert rep["evidence"]["bijective"] and rep["evidence"]["neutral_to_base"]


def test_invsys_classify(fixtures, capsys):
    code, rep = run_cli(
        capsys, ["invsys", "classify", "--recipe", str(fixtures["recipe"])]
    )
    assert code == 0
    assert rep["evidence"]["status"] == "uncountable"


def test_nt_split_routes(fixtures, capsys):
    code, rep = run_cli(capsys, ["nt", "split", "--poly", "x^2+1", "--p", "5"])
    assert code == 0
    assert rep["evidence"]["pairs"] == [[1, 1], [1, 1]]
    code, rep = run_cli(
        capsys,
        ["nt", "split", "--conductor", "7", "--subgroup", "1,6", "--p", "2"],
    )
    assert code == 0
    assert rep["evidence"]["pairs"] == [[1, 3]]
    assert rep["evidence"]["norm_valuation_generator"] == 3


def test_nt_tower_cert(fixtures, capsys):
    code, rep = run_cli(capsys, ["nt", "tower-cert", "--tower", str(fixtures["tower"])])
    assert code == 0
    assert rep["evidence"]["ml_status"] == "fails"
    assert rep["evidence"]["certificate"]["prime"] == 2


def test_serre_commands(fixtures, capsys):
    code, rep = run_cli(
        capsys, ["serre", "verify-blocks", "--gamma-f", str(fixtures["s3"])]
    )
    assert code == 0
    assert sorted(rep["evidence"]["block_ranks"]) == [1, 2, 3]
    code, rep = run_cli(capsys, ["serre", "sequence", "--datum", str(fixtures["datum"])])
    assert code == 0 and rep["evidence"]["ranks"] == [2, 3, 1]
    code, rep = run_cli(capsys, ["serre", "tower", "--chain", str(fixtures["chain"])])
    assert code == 0
    assert rep["evidence"]["status"] == "uncountable"


def test_malformed_input_exit_code(fixtures, capsys):
    code = cli.main(["groups", "classes", "--in", str(fixtures["bad"])])
    capsys.readouterr()
    assert code == cli.EXIT_ERROR
    code = cli.main(["groups", "classes", "--in", str(fixtures["tmp"] / "nope.json")])
    capsys.readouterr()
    assert code == cli.EXIT_ERROR


def test_reports_byte_identical(fixtures, capsys):
    outs = []
    for _ in range(2):
        code, _ = run_cli(
            capsys, ["invsys", "classify", "--recipe", str(fixtures["recipe"])]
        )
        assert code == 0
    for _ in range(2):
        out = fixtures["tmp"] / "rep.json"
        code = cli.main(
            [
                "--out",
                str(out),
                "nt",
                "split",
                "--poly",
                "x^3+x+1",
                "--p",
                "31",
            ]
        )
        capsys.readouterr()
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_out_file(fixtures, capsys):
    out = fixtures["tmp"] / "classes.json"
    code = cli.main(
        ["--out", str(out), "groups", "classes", "--in", str(fixtures["s3"])]
    )
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["evidence"]["class_count"] == 3


def test_entry_point_subprocess(fixtures):
    proc = subprocess.run(
        [sys.executable, "-m", "torsorlab.cli", "nt", "split", "--poly", "x^2+1",
         "--p", "13"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["evidence"]["pairs"] == [[1, 1], [1, 1]]


def test_suite_command_with_fast_checks(fixtures, capsys, monkeypatch):
    from torsorlab import checks as pc

    fast = tuple(
        (name, fn)
        for name, fn in pc.ALL_CHECKS
        if name in ("extraspecial-class-structure", "tame-norm-unit-index")
    )
    monkeypatch.setattr(pc, "ALL_CHECKS", fast)
    monkeypatch.setattr(cli, "run_suite", pc.run_suite)
    code, rep = run_cli(capsys, ["suite", "checks"])
    assert code == 0
    assert rep["verdict"] == "verified"
    assert [e["claim"] for e in rep["evidence"]["entries"]] == [
        "extraspecial-class-structure",
        "tame-norm-unit-index",
    ]


def test_dichotomy_horizon_zero_reports_unknown():
    from torsorlab import checks as pc

    r = pc.check_lim1_dichotomy(horizon=0)
    assert r.verdict == "unknown-at-horizon"
    assert r.evidence["halving-subgroup-chain"] == "unknown"


def test_poly_parser():
    assert jsonio.parse_poly("x^2+1") == (1, 0, 1)
    assert jsonio.parse_poly("x^3-2x+5") == (5, -2, 0, 1)
    assert jsonio.parse_poly("[1, 0, 1]") == (1, 0, 1)
    assert jsonio.parse_poly("-x^2+x") == (0, 1, -1)
    with pytest.raises(jsonio.ParseError):
        jsonio.parse_poly("x^2+y")
