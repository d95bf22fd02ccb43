"""Every definition of torsorlab is reached by the library or the benchmark,
and every import and local is read; the import rule covers the tests too.
The benchmark reaches a top-level definition only through a torsorlab module
or a tracer string, and a method through any `.name`."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "torsorlab").glob("*.py"))
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _read(nodes):
    """(bare names, attribute names) that the nodes mention, leaving out the
    class argument of isinstance(x, classes): a test for a type that nothing
    builds or calls does not make the type live."""
    names, attrs = set(), set()
    todo = list(nodes)
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "isinstance" and len(n.args) == 2):
            todo += [n.func, n.args[0]]
        else:
            todo.extend(ast.iter_child_nodes(n))
    return names, attrs


def _units(sources):
    """The top-level definitions and non-dunder methods of the (file name,
    source) pairs, each as (label, name, is_method, names read, attributes
    read), and what the module-level code outside definitions reads.  A class
    reads what its body reads outside those methods."""
    units, roots = [], []
    for fname, text in sources:
        for node in ast.parse(text).body:
            if not isinstance(node, _DEFS):
                roots.append(node)
                continue
            own = [node]
            if isinstance(node, ast.ClassDef):
                methods = [s for s in node.body if isinstance(s, _DEFS[:2])
                           and not s.name.startswith("__")]
                own = [s for s in node.body if s not in methods] + node.decorator_list + node.bases
                for m in methods:
                    names, attrs = _read([m])
                    units.append((f"{fname}:{node.name}.{m.name}", m.name, True,
                                  names, attrs - {m.name}))
            names, attrs = _read(own)
            units.append((f"{fname}:{node.name}", node.name, False, names - {node.name}, attrs))
    return units, _read(roots)


def _unreached(sources, bench=frozenset(), bench_methods=frozenset()) -> list:
    """Labels of the definitions in sources that nothing reaches.

    A definition is reached when `bench` names it, a method also when
    `bench_methods` does (perfbench binds methods by string), or when
    module-level code or a reached definition reads it: a method as `.name`,
    anything else as a name or `.name`, and never through the class argument
    of isinstance.  The definition itself does not count.  The sweep repeats
    until nothing more drops out, so what only unreached code reads is
    unreached too."""
    units, (root_names, root_attrs) = _units(sources)
    live = units
    while True:
        names, attrs = root_names | bench, root_attrs | bench
        for _, _, _, n, a in live:
            names |= n
            attrs |= a
        methods = attrs | bench_methods
        reached = [u for u in live if u[1] in (methods if u[2] else names | attrs)]
        if len(reached) == len(live):
            break
        live = reached
    return sorted({u[0] for u in units} - {u[0] for u in live})


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _syntax_names(text) -> set:
    """The names a source reads by its syntax: each Name and Attribute node,
    and the parts of each string constant shaped like a dotted identifier,
    as perfbench names the functions it wraps, ("groups",
    "FiniteGroup.mul").  Words in comments and docstrings do not count."""
    names = set()
    for n in ast.walk(ast.parse(text)):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and _DOTTED.fullmatch(n.value):
            names.update(n.value.split("."))
    return names


def _library_names(text) -> set:
    """The top-level names of torsorlab that a benchmark source reads: each
    attribute of a name bound to a torsorlab module (co.h1_abelian, with
    `from torsorlab import cohomology as co`), and the parts of each string
    constant shaped like a dotted identifier, the tracer's names.  The
    benchmark's own names and attributes (self.stack) do not count."""
    tree = ast.parse(text)
    modules, names = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module == "torsorlab":
            modules.update(a.asname or a.name for a in n.names)
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and _DOTTED.fullmatch(n.value):
            names.update(n.value.split("."))
    return names


def test_every_top_level_definition_is_named_elsewhere():
    # the library outside __init__.py, reached from itself or the benchmark;
    # tests do not count
    texts = [p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    bench = set().union(*map(_library_names, texts))
    bench_methods = set().union(*map(_syntax_names, texts))
    sources = [(p.name, p.read_text()) for p in MODULES if p.name != "__init__.py"]
    unreached = _unreached(sources, bench, bench_methods)
    assert not unreached, unreached


def test_the_benchmark_names_by_syntax_not_by_words():
    snippet = (
        '"""The image of each map."""\n'
        "# kernel and image\n"
        'TIMED = (("groups", "FiniteGroup.mul"), ("linalg", "solve_int"))\n'
        "x = groups.generating_set(g)\n"
        'label = "an order of 6"\n'
    )
    assert _syntax_names(snippet) == {
        "TIMED", "groups", "FiniteGroup", "mul", "linalg", "solve_int", "x",
        "generating_set", "g", "label",
    }


def test_the_benchmark_reaches_definitions_through_library_modules():
    # perfbench reaches a top-level definition as an attribute of a
    # torsorlab module (la.matmul) or by a tracer string (solve_int); its own
    # attributes (self.stack) and bare names (transpose) reach only methods
    bench = (
        "from torsorlab import linalg as la\n"
        'TIMED = (("linalg", "solve_int"),)\n'
        "class Tracer:\n"
        "    def push(self, a, b):\n"
        "        self.stack.append(la.matmul(a, b))\n"
        "        return transpose(self.stack)\n"
    )
    assert _library_names(bench) == {"matmul", "linalg", "solve_int"}
    library = (
        "def matmul(a, b):\n    pass\n"
        "def solve_int(a, b):\n    pass\n"
        "def stack(ms):\n    pass\n"
        "def transpose(m):\n    pass\n"
        "class Rows:\n    def append(self, row):\n        pass\n"
        "    def stack(self):\n        pass\n"
        "Rows()\n"
    )
    assert _unreached([("m.py", library)], _library_names(bench), _syntax_names(bench)) == [
        "m.py:stack", "m.py:transpose"]
    # counting every name and attribute of the benchmark for top-level
    # definitions too would keep stack alive through self.stack
    assert "m.py:stack" not in _unreached([("m.py", library)], _syntax_names(bench))


def test_a_class_only_tested_for_is_unreached():
    # A and B are both named in the isinstance call; only B is constructed
    snippet = (
        "class A:\n    pass\n"
        "class B:\n    pass\n"
        "def kind(x):\n    return isinstance(x, (A, B))\n"
        "def make():\n    return B()\n"
        "kind(make())\n"
    )
    assert _unreached([("m.py", snippet)]) == ["m.py:A"]
    # without the isinstance exception both classes would count as read
    tested_only = snippet.replace("isinstance(x, (A, B))", "(A, B)")
    assert _unreached([("m.py", tested_only)]) == []


def _scope_of(fn):
    """The nodes of fn's own scope: nested functions, lambdas and classes are
    scopes of their own."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_every_local_is_read():
    # a name a function assigns must be read in that function or in a scope
    # nested in it; names starting with _ are exempt
    unread = []
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            shared = {name for n in ast.walk(fn)
                      if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
            for node in _scope_of(fn):
                if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                        and not node.id.startswith("_")
                        and node.id not in read | shared):
                    unread.append(f"{path.name}:{node.lineno}:{fn.name}:{node.id}")
    assert not unread, sorted(set(unread))


def test_every_import_is_read():
    # each name a module-level import binds is read somewhere in that module,
    # in the library and in the tests
    unread = []
    for path in MODULES + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{path.name}:{node.lineno}:{bound}")
    assert not unread, unread
