"""A code budget for src/: the library may not grow past its pinned size.

Two counts are pinned, summed over src/torsorlab/*.py:
- code-only lines: lines that hold a token other than a comment, outside
  docstrings (read with `tokenize` and `ast`), the rule the BENCH files use;
- AST nodes: every node `ast.walk` yields.

A change that lowers a count lowers its bound here to the new count, so the
budget only ever tightens; a change that needs more code raises a bound
only with the reason written next to it.
"""

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "torsorlab").glob("*.py"))

# lowered from 3,864 and 39,050 when criterion 6's four cases became rows of
# one table built by checks._lift_case, and criterion 7's two map-chain
# loops one checks._random_chain (-76 lines, -703 nodes); the Serre kernels'
# rows are read by la._pair_rows and handed to the rows rules, so
# kernel_sequence_exact and restricted_action take rows and their dense
# twins (lattices._kernel_rows_exact, serre._check_weights) went, with
# cli._default and left_cosets' sorted cosets (-16 lines, -152 nodes);
# lowered from 3,772 and 38,195 when a torsor became its cocycle (TorsorRep
# went), H^1 and relative H^1 came to share cohomology._twist_class_search,
# and Lim1Verdict.factors and the serre reports' unread `condition` went
# (-26 lines, -203 nodes); lowered from 3,746 and 37,992 when a Serre
# tower became its norm tower (serre.TowerRecipe, serre_tower_recipe and the
# CM-data chain they validated went) and the blocks reports lost their five
# unread fields (-67 lines, -592 nodes); raised to 3,694 and 37,502 when
# is_subgroup came to walk generators (|S| |T| table reads in place of the
# |S|^2 of the pairwise test) and coset_gset to build its action a column
# per coset, or take the table itself for H = 1, which cut h1-permutation's
# case_p50_ms by 9.8-17.6 % and its tail by 11.6-17.6 % in perfbench pairs
# at seeds 1 and 2 (BENCH_coset_gset.json), net of
# numtheory.MAX_LEVEL_ORDER and its refusal going (+15 lines, +102 nodes);
# lowered from 3,694 and 37,502 when the CM-type vectors became copies of
# the conjugate sum and all_cm_types came to read its pairs off row iota
# (-2 lines, -7 nodes)
CODE_LINES_BOUND = 3692
AST_NODES_BOUND = 37495

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_counts(text) -> tuple:
    """(code-only lines, AST nodes) of one module's source."""
    tree = ast.parse(text)
    held = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            held.update(range(tok.start[0], tok.end[0] + 1))
    return len(held - _docstring_lines(tree)), sum(1 for _ in ast.walk(tree))


def test_the_rule_counts_code_and_not_comments_or_docstrings():
    snippet = ('"""Module\ndocstring."""\n'
               "# a comment\n"
               "\n"
               "def f(x):\n"
               '    """Doc."""\n'
               "    s = '''two\n"
               "lines'''  # a string that is code\n"
               "    return x\n")
    lines, nodes = code_counts(snippet)
    assert lines == 4
    assert nodes == sum(1 for _ in ast.walk(ast.parse(snippet)))


def test_src_stays_within_its_code_budget():
    lines = nodes = 0
    for path in SRC:
        n_lines, n_nodes = code_counts(path.read_text())
        lines += n_lines
        nodes += n_nodes
    assert lines <= CODE_LINES_BOUND, f"{lines} code-only lines > {CODE_LINES_BOUND}"
    assert nodes <= AST_NODES_BOUND, f"{nodes} AST nodes > {AST_NODES_BOUND}"
