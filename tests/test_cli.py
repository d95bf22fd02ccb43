import dataclasses
import importlib
import json
import subprocess
import sys

import pytest

from torsorlab import cli, groups as gr, gsets as gs, jsonio
from helpers import group_to_json


@pytest.fixture
def fixtures(tmp_path):
    files = {}
    sp, gens = gr.heisenberg_group(3)
    files["h3"] = tmp_path / "h3.json"
    files["h3"].write_text(json.dumps(group_to_json(sp.group)))
    s3 = gr.symmetric_group(3)
    files["s3"] = tmp_path / "s3.json"
    files["s3"].write_text(json.dumps(group_to_json(s3)))
    c2 = gr.cyclic_group(2)
    files["gset"] = tmp_path / "gset.json"
    files["gset"].write_text(
        json.dumps(
            {"group": group_to_json(c2), "size": 2, "action": [[0, 1], [1, 0]]}
        )
    )
    files["gset2"] = tmp_path / "gset2.json"
    files["gset2"].write_text(
        json.dumps(
            {"group": group_to_json(c2), "size": 2, "action": [[0, 1], [1, 0]]}
        )
    )
    files["matrix"] = tmp_path / "matrix.json"
    files["matrix"].write_text(json.dumps([[2, 0], [0, 3]]))
    files["lattice"] = tmp_path / "lattice.json"
    files["lattice"].write_text(
        json.dumps(
            {
                "rank": 1,
                "group": group_to_json(c2),
                "rho": {"1": [[-1]]},
            }
        )
    )
    files["datum"] = tmp_path / "datum.json"
    files["datum"].write_text(
        json.dumps({"group": group_to_json(c2), "iota": 1})
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
    gamma = group_to_json(c2)
    files["seq"] = tmp_path / "seq.json"
    files["seq"].write_text(
        json.dumps(
            {
                "a": {"gamma": gamma, "underlying": group_to_json(c3)},
                "b": {"gamma": gamma, "underlying": group_to_json(s3)},
                "c": {"gamma": gamma, "underlying": group_to_json(cq)},
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
    assert code == 0 and rep["evidence"] == [
        {"representative": 0, "degree": 2, "stabilizer_order": 1}]


def test_gset_descent_reads_one_factor_per_orbit(capsys, tmp_path):
    # S3 on its three cosets of <(1 2)> beside its two cosets of A3
    s3 = gr.symmetric_group(3)
    x = gs.coset_gset(s3, gr.generated_subgroup(s3, [1]))
    y = gs.coset_gset(s3, gr.generated_subgroup(s3, [2]))
    path = tmp_path / "two_orbits.json"
    path.write_text(json.dumps({"group": group_to_json(s3), "size": 5, "action": [
        list(a) + [3 + b for b in bs] for a, bs in zip(x.action, y.action)]}))
    code, rep = run_cli(capsys, ["gset", "descent", "--in", str(path)])
    assert code == 0 and rep["evidence"] == [
        {"representative": 0, "degree": 3, "stabilizer_order": 2},
        {"representative": 3, "degree": 2, "stabilizer_order": 3}]


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
    gj = group_to_json(c1)
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
    (("cohomology", "h1"), dict(SIGN, rho={"1": [[-1]], "01": [[1]]})),
    (("cohomology", "h1"), dict(SIGN, rho={"1": [[True]]})),
    (("cohomology", "h1"), dict(SIGN, rho={"0": [[1]], "1": [[2]]})),
], ids=["map-entry", "extra-map", "no-maps", "no-matrix", "matrix-entry",
        "rho-entry", "rho-key", "rho-key-twice", "rho-bool", "rho-no-action"])
def test_malformed_lattice_json_exits_3(command, document, tmp_path, capsys):
    # a matrix entry that is no integer, a missing field, a map too many, a
    # rho key that is no group element or a second spelling of one ("01"
    # once overwrote "1" in silence), matrices that are no action (refused
    # where the lattice is read, as h1_abelian trusts it): exit 3 with a
    # message, no traceback
    (tmp_path / "c2.json").write_text(json.dumps(group_to_json(gr.cyclic_group(2))))
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


@pytest.mark.parametrize("argv,message", [
    (["--conductor", "5", "--subgroup", "1,4", "--p", "4"], "not a prime"),
    (["--conductor", "5", "--subgroup", "1,4", "--p", "1"], "not a prime"),
    (["--conductor", "5", "--subgroup", "1,4", "--p", "-7"], "not a prime"),
    (["--conductor", "5", "--subgroup", "1,4", "--p", "0"], "not a prime"),
    (["--poly", "x^2+1", "--p", "-7"], "not a prime"),
    (["--poly", "x^2+1", "--p", "0"], "not a prime"),
    (["--conductor", "5", "--p", "2"], "--subgroup"),
    (["--p", "2"], "--poly"),
    (["--poly", "x^2+1", "--p", "3825123056546413051"], "not a prime"),
    (["--conductor", "5", "--subgroup", "1,4", "--p", str(2 ** 89 - 1)], "proven range"),
], ids=["abelian-4", "abelian-1", "abelian-neg", "abelian-0", "poly-neg", "poly-0",
        "no-subgroup", "no-field", "poly-pseudoprime", "abelian-beyond-bound"])
def test_nt_split_rejects_bad_arguments(argv, message, capsys):
    # a splitting type needs a field and a prime: exit 3, no traceback
    assert cli.main(["nt", "split", *argv]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("argv", [
    ["nt", "split", "--poly", "x^2+1"],
    ["nt", "split", "--poly", "x^2+1", "--p", "five"],
    ["nt"],
    ["no-such-module"],
    [],
], ids=["no-p", "p-not-int", "no-op", "bad-module", "empty"])
def test_usage_errors_exit_3(argv, capsys):
    # exit 2 means "unknown at horizon"; a malformed command line is an error
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["nt", "split", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_OK
    assert "usage:" in capsys.readouterr().out


def test_a_directory_reference_exits_3(tmp_path, capsys):
    # IsADirectoryError is an OSError like FileNotFoundError: exit 3, no traceback
    (tmp_path / "factor").mkdir()
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps({"kind": "product", "factors": ["factor"]}))
    for path in (recipe, tmp_path / "factor"):
        assert cli.main(["invsys", "classify", "--recipe", str(path)]) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and "parse error" in captured.err
        assert "Is a directory" in captured.err


def test_a_directory_as_out_is_a_write_error(tmp_path, capsys):
    argv = ["--out", str(tmp_path), "nt", "split", "--poly", "x^2+1", "--p", "5"]
    assert cli.main(argv) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "parse error" not in captured.err
    assert "write error" in captured.err and "Is a directory" in captured.err


def test_a_closed_stdout_is_a_write_error(monkeypatch, capsys):
    # a reader that closed the pipe (`... | head -c 300`) fails the write to
    # stdout; that is the report's write error, not a parse error
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["nt", "split", "--poly", "x^2+1", "--p", "5"]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "write error" in err and "Broken pipe" in err and "parse error" not in err


LEVEL = {"conductor": 1, "subgroup": [0]}
C2 = {"table": [[0, 1], [1, 0]]}


def _project_float(files):
    """The torsor sequence fixture with its projection's values 1 as 1.9."""
    seq = json.loads(files["seq"].read_text())
    seq["project"] = [1.9 if v == 1 else v for v in seq["project"]]
    return seq


@pytest.mark.parametrize("command,document", [
    (("invsys", "classify", "--recipe"), {"kind": "explicit"}),
    (("invsys", "classify", "--recipe"), {"kind": "subgroup-chain", "rank": 1, "step": [[2]]}),
    (("invsys", "classify", "--recipe"), [1, 2]),
    (("invsys", "classify", "--recipe"),
     {"kind": "constant-endo", "relations": [0], "endo": [[True]]}),
    (("serre", "tower", "--chain"), {"kind": "constant"}),
    (("nt", "tower-cert", "--tower"), {"levels": [LEVEL], "law": {"kind": "cyclotomic-power"}}),
    (("groups", "classes", "--in"), {"table": [[0, True], [True, 0]]}),
    (("groups", "classes", "--in"), {"order": 7, "table": [[0, 1], [1, 0]]}),
    (("groups", "classes", "--in"), {"order": 2.0, "table": [[0, 1], [1, 0]]}),
    (("gset", "orbits", "--in"), {"group": C2, "action": [[0, 1], [True, 0]]}),
    (("gset", "orbits", "--in"), {"group": C2, "size": 7, "action": [[0, 1], [1, 0]]}),
    (("torsor", "verify-twist", "--base", "{base}", "--seq"), _project_float),
    (("torsor", "verify-twist", "--seq", "{seq}", "--base"),
     {"q_values": [0, 1.2], "p_values": [0, True]}),
    (("torsor", "verify-twist", "--seq", "{seq}", "--base"),
     {"q_values": [0, 0], "p_values": [0, 99]}),
    (("nt", "split", "--p", "5", "--poly", "[1.5, 0, 1]"), None),
], ids=["explicit-no-groups", "chain-no-base", "not-an-object", "endo-bool",
        "constant-no-datum", "law-no-l", "table-bool", "order-mismatch", "order-float",
        "action-bool", "size-mismatch", "project-float", "values-float", "value-out-of-range", "poly-float"])
def test_malformed_recipe_json_exits_3(command, document, fixtures, tmp_path, capsys):
    # a missing field, a document that is no object, a boolean or float
    # where an integer belongs (JSON true would read as 1, 1.9 as 1), a group
    # "order" that is not the size of its table or a G-set "size" that is not
    # the number of its points, a cocycle value that is no element of its
    # group; the
    # command's other files are fixtures, a callable document is built from
    # them, and a document None means the command line alone is malformed
    if callable(document):
        document = document(fixtures)
    argv = [a.format_map(fixtures) for a in command]
    if document is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        argv.append(str(path))
    assert cli.main(argv) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "parse error" in captured.err


def test_a_repeated_key_exits_3_and_names_it(tmp_path, capsys):
    # json.load keeps the last of a repeated key: the first "table" was
    # dropped in silence
    path = tmp_path / "group.json"
    path.write_text('{"table": [[0]], "table": [[0, 1], [1, 0]]}')
    assert cli.main(["groups", "classes", "--in", str(path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "parse error" in captured.err and "'table'" in captured.err


C3 = {"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}


@pytest.mark.parametrize("command, document, key", [
    (("cohomology", "h1", "--module"),
     {"gamma": C2, "underlying": C3, "actoin": [[0, 1, 2], [0, 2, 1]]}, "actoin"),
    (("nt", "tower-cert", "--tower"),
     {"levels": [{"conductor": 7, "subgroup": [1, 6]}],
      "lwa": {"kind": "cyclotomic-power", "l": 3}}, "lwa"),
    (("nt", "tower-cert", "--tower"),
     {"levels": [LEVEL], "law": {"kind": "split-obstruction", "l": 3, "p0": 7, "levles": 1}},
     "levles"),
], ids=["gamma-action", "tower-law", "split-levels"])
def test_a_misspelled_field_exits_3_and_names_it(command, document, key, tmp_path, capsys):
    # each once read as absent: the trivial action, an explicit tower and
    # the default 2 levels, and the command exited 0
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    assert cli.main([*command, str(path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "parse error" in captured.err and repr(key) in captured.err


@pytest.mark.parametrize("document", [0, True, None, 1.5])
def test_a_module_that_is_no_object_exits_3(document, tmp_path, capsys):
    # "rho" in 0 once raised TypeError, which exited 1 as if refuted
    path = tmp_path / "module.json"
    path.write_text(json.dumps(document))
    assert cli.main(["cohomology", "h1", "--module", str(path)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "parse error" in captured.err


def test_an_unexpected_exception_exits_3(fixtures, monkeypatch, capsys):
    # a fault of the program is an error, never refuted's exit code
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(gr, "conjugacy_classes", broken)
    assert cli.main(["groups", "classes", "--in", str(fixtures["h3"])]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[torsor-lab] internal error: RuntimeError: boom" in captured.err


C2_IOTA_5 = {"group": C2, "iota": 5}
C2_IOTA_1 = {"group": C2, "iota": 1}


@pytest.mark.parametrize("command,document", [
    (("serre", "sequence", "--datum"), C2_IOTA_5),
    (("serre", "tower", "--chain"), {"kind": "constant", "datum": C2_IOTA_5}),
    (("nt", "tower-cert", "--tower"),
     {"levels": [LEVEL], "law": {"kind": "split-obstruction", "l": 0, "p0": 7}}),
    (("invsys", "classify", "--recipe"),
     {"kind": "norm-tower", "levels": [LEVEL],
      "law": {"kind": "split-obstruction", "l": 0, "p0": 7}}),
    (("nt", "tower-cert", "--tower"),
     {"levels": [LEVEL], "law": {"kind": "cyclotomic-power", "l": 4}}),
    (("nt", "tower-cert", "--tower"),
     {"levels": [LEVEL], "law": {"kind": "cyclotomic-power", "l": 10007}}),
    (("lattice", "exact", "--in"), {"lattices": 5, "maps": []}),
    (("serre", "tower", "--chain"), {"kind": "constant", "datum": C2_IOTA_1, "length": 10**30}),
    (("serre", "tower", "--chain"), {"kind": "constant", "datum": C2_IOTA_1, "length": 10**8}),
    (("serre", "tower", "--chain"), {"kind": "layered-obstruction", "l": 3, "p0": 7, "levels": 9}),
    (("serre", "tower", "--chain"),
     {"kind": "layered-obstruction", "l": 3, "p0": 10**12 + 39, "levels": 1}),
    (("nt", "tower-cert", "--tower"),
     {"levels": [LEVEL], "law": {"kind": "split-obstruction", "l": 3, "p0": 7,
                                 "prime_bound": 10**12}}),
    (("invsys", "classify", "--recipe"),
     {"kind": "norm-tower", "levels": [LEVEL],
      "law": {"kind": "split-obstruction", "l": 3, "p0": 7, "prime_bound": 10**12}}),
], ids=["iota-out-of-range", "constant-chain-iota", "split-l-0", "norm-tower-l-0",
        "cyclotomic-l-4", "cyclotomic-l-10007", "lattices-not-a-list", "constant-length-10^30",
        "constant-length-10^8", "layered-levels-9", "layered-p0-10^12",
        "split-prime-bound-10^12", "norm-tower-prime-bound-10^12"])
def test_out_of_range_input_exits_3_in_a_subprocess(command, document, tmp_path):
    # an involution that is no group element, a tower law whose l is not
    # prime (l = 4 once looped for ever, l = 0 divided by zero) or whose
    # conductors pass numtheory.MAX_CONDUCTOR (l = 10007 once scanned 10^8
    # residues at level 1), a lattice list that is no list, a chain longer
    # than numtheory.MAX_TOWER_LEVELS (10^30 overflowed, 10^8 ran without
    # end), a layered tower whose top group passes numtheory.MAX_LEVEL_ORDER
    # (levels 9: order 2 * 3^10, once a MemoryError) or whose base prime
    # passes MAX_CONDUCTOR (once scanned 10^12 residues), a prime bound above
    # MAX_CONDUCTOR (once a MemoryError in the sieve): exit 3 with a message
    # and no traceback, and no hang, which the timeout turns into a failure
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    proc = subprocess.run(
        [sys.executable, "-m", "torsorlab.cli", *command, str(path)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == cli.EXIT_ERROR, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "error" in proc.stderr


def test_nt_tower_cert(fixtures, capsys):
    code, rep = run_cli(capsys, ["nt", "tower-cert", "--tower", str(fixtures["tower"])])
    assert code == 0
    assert rep["evidence"]["ml_status"] == "fails"
    assert rep["evidence"]["certificate"]["prime"] == 2


@pytest.mark.parametrize("tower, law", [
    ({"levels": [LEVEL], "law": {"kind": "cyclotomic-power", "l": 3}}, "cyclotomic-power"),
    ({"levels": [LEVEL], "law": {"kind": "split-obstruction", "l": 3, "p0": 7, "levels": 1}},
     "split-obstruction"),
    ({"levels": [LEVEL, LEVEL]}, "explicit"),
], ids=["cyclotomic-power", "split-obstruction", "explicit"])
def test_nt_tower_cert_names_the_law_at_horizon_0(tower, law, tmp_path, capsys):
    # horizon 0 decides nothing, and the law reads by the name it has at
    # every other horizon (once the class name, CyclotomicPowerLaw)
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower))
    code, rep = run_cli(capsys, ["--horizon", "0", "nt", "tower-cert", "--tower", str(path)])
    assert code == cli.EXIT_UNKNOWN
    assert rep["evidence"] == {"ml_status": "unknown-at-horizon", "law": law, "certificate": None}
    code, rep = run_cli(capsys, ["--horizon", "1", "nt", "tower-cert", "--tower", str(path)])
    assert code == cli.EXIT_OK and rep["evidence"]["law"] == law


@pytest.mark.parametrize("law", [
    {"kind": "cyclotomic-power", "l": 3},
    {"kind": "split-obstruction", "l": 3, "p0": 13},
], ids=["cyclotomic-power", "split-obstruction"])
@pytest.mark.parametrize("horizon", ["0", "1", "6"])
def test_a_level_off_the_law_exits_3_and_names_it(law, horizon, tmp_path, capsys):
    # Q(zeta_7)^+ is neither Q, level 0 of the 3-power cyclotomic tower, nor
    # the layer of conductor 13 that the split-obstruction law starts from;
    # the law's certificate was once given all the same (exit 0, "fails")
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({"levels": [{"conductor": 7, "subgroup": [1, 6]}], "law": law}))
    assert cli.main(["--horizon", horizon, "nt", "tower-cert", "--tower", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "level 0 (conductor 7, subgroup [1, 6])" in captured.err


@pytest.mark.parametrize("command, left_out, spelled_out", [
    (("nt", "tower-cert", "--tower"),
     {"levels": [LEVEL], "law": {"kind": "split-obstruction", "l": 3, "p0": 7}},
     {"levels": [LEVEL], "law": {"kind": "split-obstruction", "l": 3, "p0": 7, "levels": 2,
                                 "prime_bound": 20000}}),
    (("serre", "tower", "--chain"),
     {"kind": "layered-obstruction", "l": 3, "p0": 7},
     {"kind": "layered-obstruction", "l": 3, "p0": 7, "levels": 1, "prime_bound": 20000}),
], ids=["split-obstruction-law", "layered-obstruction-chain"])
def test_tower_fields_left_out_take_the_defaults(command, left_out, spelled_out, tmp_path, capsys):
    # the JSON reader passes only the fields it is given, so the defaults
    # are those of SplitObstructionLaw and layered_obstruction_tower
    reports = []
    for doc in (left_out, spelled_out):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        reports.append(run_cli(capsys, [*command, str(path)]))
    assert reports[0] == reports[1] and reports[0][0] == cli.EXIT_OK


def test_tower_fields_keep_their_type_checks():
    law = {"kind": "split-obstruction", "l": 3, "p0": 7}
    chain = {"kind": "layered-obstruction", "l": 3, "p0": 7}
    for key, value in (("levels", True), ("levels", "2"), ("prime_bound", 2.0)):
        with pytest.raises(jsonio.ParseError, match=key):
            jsonio.tower_law_from_json({**law, key: value})
        with pytest.raises(jsonio.ParseError, match=key):
            jsonio.chain_from_json({**chain, key: value})


def test_serre_commands(fixtures, capsys):
    code, rep = run_cli(
        capsys, ["serre", "verify-blocks", "--gamma-f", str(fixtures["s3"])]
    )
    assert code == 0
    assert sorted(rep["evidence"]["block_ranks"]) == [1, 2, 3]
    assert rep["evidence"]["total_rank"] == 6
    code, rep = run_cli(capsys, ["serre", "sequence", "--datum", str(fixtures["datum"])])
    assert code == 0 and rep["evidence"]["ranks"] == [2, 3, 1]
    code, rep = run_cli(capsys, ["serre", "tower", "--chain", str(fixtures["chain"])])
    assert code == 0
    assert rep["evidence"]["status"] == "uncountable"


@pytest.mark.parametrize("command, module, name, field", [
    (["serre", "verify-blocks", "--gamma-f", "s3"], "serre",
     "conjugation_block_decomposition", "first_map_iso"),
    (["serre", "sequence", "--datum", "datum"], "serre", "verify_serre_sequence",
     "quotient_exact"),
    (["torsor", "verify-twist", "--seq", "seq", "--base", "base"], "torsors",
     "verify_twist_bijection", "abelian_kernel_action_factors"),
])
def test_single_case_commands_judge_as_their_criterion(command, module, name, field, fixtures,
                                                       capsys, monkeypatch):
    # verify-blocks, sequence and verify-twist apply the judges of criteria
    # 2, 4 and 6: a report with one field false refutes (exit 1), and the
    # evidence prints that field as false
    mod = importlib.import_module(f"torsorlab.{module}")
    compute = getattr(mod, name)
    argv = [str(fixtures[a]) if a in fixtures else a for a in command]
    code, rep = run_cli(capsys, argv)
    assert code == cli.EXIT_OK and rep["verdict"] == "verified"
    assert rep["evidence"][field] is True
    monkeypatch.setattr(mod, name, lambda *a, **k: dataclasses.replace(compute(*a, **k),
                                                                       **{field: False}))
    code, rep = run_cli(capsys, argv)
    assert code == cli.EXIT_REFUTED and rep["verdict"] == "refuted"
    assert rep["evidence"][field] is False


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


def test_nt_split_with_a_large_constant_term_finishes():
    # irreducibility is decided by factoring, not by trying every divisor of
    # the constant term
    proc = subprocess.run(
        [sys.executable, "-m", "torsorlab.cli", "nt", "split", "--poly",
         "x^2+1000000007", "--p", "3"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["evidence"]["pairs"] == [[1, 1], [1, 1]]  # x^2 - 1 mod 3


@pytest.mark.parametrize("field,pairs", [
    (["--poly", "x^2+1"], [[1, 2]]),  # 2^61 - 1 = 3 mod 4: inert
    (["--conductor", "5", "--subgroup", "1,4"], [[1, 1], [1, 1]]),  # = 1 mod 5
], ids=["dedekind", "frobenius-order"])
def test_nt_split_at_a_large_prime_finishes(field, pairs):
    # p is proved prime by Miller-Rabin; trial division up to sqrt(p) did not
    # finish
    proc = subprocess.run(
        [sys.executable, "-m", "torsorlab.cli", "nt", "split", *field,
         "--p", str(2 ** 61 - 1)],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["evidence"]["pairs"] == pairs


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


def test_suite_command_reports_a_raising_check_as_error(capsys, monkeypatch):
    from torsorlab import checks as pc

    def raising():
        raise RuntimeError("broken check")

    fast = tuple((name, fn) for name, fn in pc.ALL_CHECKS if name == "tame-norm-unit-index")
    monkeypatch.setattr(pc, "ALL_CHECKS", fast + (("raising", raising),))
    results = pc.run_suite()
    assert [r.verdict for r in results] == ["verified", "error"]
    assert results[1].evidence == {"exception": "RuntimeError('broken check')"}
    monkeypatch.setattr(cli, "run_suite", pc.run_suite)
    code, rep = run_cli(capsys, ["suite", "checks"])
    assert code == cli.EXIT_ERROR and rep["verdict"] == "error"
    assert [e["verdict"] for e in rep["evidence"]["entries"]] == ["verified", "error"]


def test_suite_at_horizon_zero_is_unknown_not_refuted(capsys, monkeypatch):
    # criterion 8 cannot decide at horizon 0, and nothing is refuted
    from torsorlab import checks as pc

    keep = ("lim1-dichotomy", "tame-norm-unit-index")
    monkeypatch.setattr(pc, "ALL_CHECKS", tuple(c for c in pc.ALL_CHECKS if c[0] in keep))
    code, rep = run_cli(capsys, ["--horizon", "0", "suite", "checks"])
    assert code == cli.EXIT_UNKNOWN and rep["verdict"] == "unknown-at-horizon"
    verdicts = [e["verdict"] for e in rep["evidence"]["entries"]]
    assert verdicts == ["unknown-at-horizon", "verified"]


@pytest.mark.parametrize("verdicts, want", [
    (("verified", "unknown-at-horizon"), "unknown-at-horizon"),
    (("unknown-at-horizon", "error", "verified"), "error"),
    (("error", "refuted", "unknown-at-horizon"), "refuted"),
    (("verified",) * 3, "verified"),
])
def test_suite_reads_as_its_worst_entry(verdicts, want, capsys, monkeypatch):
    # refuted before error before unknown-at-horizon before verified, in any
    # entry order; the exit code is that verdict's
    from torsorlab import checks as pc

    def fixed(i, v):
        return (f"check-{i}", lambda: pc.CheckResult(f"check-{i}", i + 1, v, {}))

    monkeypatch.setattr(pc, "ALL_CHECKS", tuple(fixed(i, v) for i, v in enumerate(verdicts)))
    code, rep = run_cli(capsys, ["suite", "checks"])
    exits = {"verified": cli.EXIT_OK, "refuted": cli.EXIT_REFUTED,
             "unknown-at-horizon": cli.EXIT_UNKNOWN, "error": cli.EXIT_ERROR}
    assert rep["verdict"] == want and code == exits[want]


@pytest.mark.parametrize("option", ["--horizon", "--budget"])
@pytest.mark.parametrize("value", ["-1", "two"])
def test_a_negative_horizon_or_budget_exits_3(option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([option, value, "suite", "checks"])
    assert exc.value.code == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" in captured.err
    assert "Traceback" not in captured.err and option in captured.err


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
