"""The JSON boundary under drawn input: for each command that reads a file,
one field of a small valid document (at any depth) is replaced by a drawn
JSON value, or the whole document is.  Whatever the document, cli.main
returns an exit code, never reports an internal error, and answers within
the deadline: malformed or oversized input ends in exit 3 before any large
allocation.  A field name changed at any depth also ends in exit 3, with a
message that names it."""

import contextlib
import io
import json
import pathlib
import tempfile
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from torsorlab import cli
from torsorlab import groups as gr
from helpers import group_to_json

C2 = {"table": [[0, 1], [1, 0]]}
GSET = {"group": C2, "action": [[0, 1], [1, 0]]}
LATTICE = {"rank": 1, "group": C2, "rho": {"1": [[-1]]}}
LEVEL = {"conductor": 7, "subgroup": [1, 6]}  # Q(zeta_7)^+, the first layer for l = 3, p0 = 7
Q = {"conductor": 1, "subgroup": [0]}  # level 0 of a cyclotomic-power tower


def _torsor_sequence() -> dict:
    # 1 -> C3 -> S3 -> C2 -> 1 over Gamma = C2, acting trivially
    s3 = gr.symmetric_group(3)
    cq, proj = gr.quotient(s3, gr.generated_subgroup(s3, [2]))
    return {
        "a": {"gamma": C2, "underlying": group_to_json(gr.cyclic_group(3))},
        "b": {"gamma": C2, "underlying": group_to_json(s3)},
        "c": {"gamma": C2, "underlying": group_to_json(cq)},
        "include": [s3.power(2, k) for k in range(3)],
        "project": list(proj.map),
    }


SEQUENCE = _torsor_sequence()
BASE = {"q_values": [0, 0], "p_values": [0, 0]}
DATUM = {"group": C2, "iota": 1}

# (command words, the option that names the fuzzed file, a valid document,
# the command's other files by option)
COMMANDS = (
    (("groups", "classes"), "--in", C2, {}),
    (("gset", "orbits"), "--in", GSET, {}),
    (("gset", "iso"), "--in", GSET, {"--other": GSET}),
    (("gset", "descent"), "--in", GSET, {}),
    (("lattice", "snf"), "--in", [[2, 0], [0, 3]], {}),
    (("lattice", "exact"), "--in", {"lattices": [LATTICE, LATTICE], "maps": [[[2]]]}, {}),
    (("lattice", "iso"), "--in", {"source": LATTICE, "target": LATTICE, "matrix": [[1]]}, {}),
    (("cohomology", "h1"), "--module", LATTICE, {}),
    (("cohomology", "h1"), "--module",
     {"gamma": C2, "underlying": C2, "action": [[0, 1], [0, 1]]}, {}),
    (("torsor", "verify-twist"), "--seq", SEQUENCE, {"--base": BASE}),
    (("torsor", "verify-twist"), "--base", BASE, {"--seq": SEQUENCE}),
    (("invsys", "classify"), "--recipe",
     {"kind": "explicit", "groups": [C2, C2], "maps": [[0, 1]]}, {}),
    (("invsys", "classify"), "--recipe",
     {"kind": "constant-endo", "relations": [4], "endo": [[2]]}, {}),
    (("invsys", "classify"), "--recipe",
     {"kind": "subgroup-chain", "rank": 1, "step": [[2]], "base": [[1]]}, {}),
    (("invsys", "classify"), "--recipe",
     {"kind": "product", "factors": [{"kind": "norm-tower", "levels": [Q],
                                      "law": {"kind": "cyclotomic-power", "l": 3}}]}, {}),
    (("nt", "tower-cert"), "--tower",
     {"levels": [LEVEL], "law": {"kind": "split-obstruction", "l": 3, "p0": 7, "levels": 1,
                                 "prime_bound": 200}}, {}),
    (("serre", "verify-blocks"), "--gamma-f", C2, {}),
    (("serre", "sequence"), "--datum", DATUM, {}),
    (("serre", "tower"), "--chain", {"kind": "constant", "datum": DATUM, "length": 2}, {}),
    (("serre", "tower"), "--chain",
     {"kind": "layered-obstruction", "l": 3, "p0": 7, "levels": 1}, {}),
)

# a few values of each JSON type, 10^30 among them for the sizes
_scalars = st.sampled_from((None, True, False, 0, -1, 2, 10**30, 1.5, "", "a"))
_json = _scalars | st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2)),
    max_leaves=4,
)


def _paths(doc, at=()):
    """The path of every field of the document, the whole document first."""
    yield at
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, at + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


@st.composite
def _cases(draw):
    words, option, doc, others = draw(st.sampled_from(COMMANDS))
    # the whole document half of the time, else any one of its fields
    path = draw(st.just(()) | st.sampled_from(list(_paths(doc))))
    return words, option, _replaced(doc, path, draw(_json)), others


def _run(words, option, doc, others, tmp) -> tuple:
    """(exit code, stderr) of cli.main on the document and the command's
    other files, written to tmp: it returns an exit code and reports no
    internal error."""
    files = {}
    for name, content in [(option, doc), *others.items()]:
        path = pathlib.Path(tmp) / f"{name.strip('-')}.json"
        path.write_text(json.dumps(content))
        files[name] = str(path)
    argv = [*words, *(a for name in files for a in (name, files[name]))]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert type(code) is int, (argv, doc)
    assert "internal error" not in err.getvalue(), (doc, err.getvalue())
    return code, err.getvalue()


@settings(derandomize=True, max_examples=500, deadline=timedelta(seconds=2))
@given(_cases())
def test_drawn_documents_never_fault(case):
    with tempfile.TemporaryDirectory() as tmp:
        _run(*case, tmp)


def test_any_integer_field_oversized_or_negative(tmp_path):
    # every integer of every valid document in turn, as 10^30 and as -1: a
    # size that high once overflowed or ran without end, and the drawn cases
    # rarely reach one given field
    swept = 0
    for words, option, doc, others in COMMANDS:
        for path in _paths(doc):
            if type(_at(doc, path)) is int:
                for value in (10**30, -1):
                    _run(words, option, _replaced(doc, path, value), others, tmp_path)
                    swept += 1
    assert swept > 300, swept


def test_a_renamed_field_exits_3_and_names_it(tmp_path):
    # each field name of each valid document, at any depth, with "_" added:
    # no reader takes a key it does not name (once a misspelled "law" or
    # "action" read as absent, and the command exited 0); the keys of a rho
    # map are group elements, data and not field names, and stay
    renamed = 0
    for words, option, doc, others in COMMANDS:
        for path in _paths(doc):
            obj = _at(doc, path)
            if not isinstance(obj, dict) or path[-1:] == ("rho",):
                continue
            for key in obj:
                typo = {(k + "_" if k == key else k): v for k, v in obj.items()}
                code, err = _run(words, option, _replaced(doc, path, typo), others, tmp_path)
                assert code == cli.EXIT_ERROR and repr(key + "_") in err, (words, path, key, err)
                renamed += 1
    assert renamed > 80, renamed
