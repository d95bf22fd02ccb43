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

# raised from 3,861 and 38,932 by the Serre sequences read on the nonzeros
# of each kernel once: the rows entries beside the dense ones, since the
# tests pin the dense signatures (lattices._kernel_rows_exact beside
# kernel_sequence_exact, serre._weights_on_rows beside _check_weights),
# and the zero test of a product on sparse rows that joint_report shares
# (lattices._vanishes, with its shape check), net of linalg.coordinates,
# which lost its last caller (+2 lines, +111 nodes); and by GroupHom taking
# an unvalidated map as given (+1 line, +7 nodes)
CODE_LINES_BOUND = 3864
AST_NODES_BOUND = 39050

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
