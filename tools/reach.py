"""List the functions of src/torsorlab that the product paths never enter.

The product paths read here are `torsorlab.checks.run_suite()`, one
seed-1 pass of each perfbench workload (its case set built, then every case
run, made canonical and checked, as perfbench/run.py does once per case),
and each command line of the README's CLI block, run in this process
through `torsorlab.cli.main` on the files of tests/examples/.
perfbench/workloads.py is loaded from its file and not changed.

A function is every `def` of src/torsorlab/*.py, nested ones and methods
included; lambdas, comprehensions and class bodies are not.  One counts as
entered when the interpreter calls its code under sys.setprofile, which is
on from before torsorlab is imported, so calls made at import count too.
Code that dataclasses generate is not in the sources and is not listed.
A never-entered function that perfbench/tracing.py names in TIMED or
COUNTED is tagged `(tracer)`: only the benchmark's tracer keeps its name,
read from the file's syntax tree without importing it.

Run from anywhere, standard library only (the traced run takes about 4 s
on two cores):

    python3 tools/reach.py

It exits 1 when a check of run_suite reads other than `verified`, a
workload case fails or a README command exits other than 0, so that a
listing taken from broken code does not pass for one; else 0.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"
EXAMPLES = ROOT / "tests" / "examples"


def tracer_names() -> list:
    """The (module, attribute) pairs of TIMED and COUNTED in tracing.py, in
    file order."""
    pairs = []
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id in ("TIMED", "COUNTED")
                        for t in node.targets)):
            pairs += ast.literal_eval(node.value)
    return pairs


def defined_functions() -> dict:
    """{(file, first line, name): label} of every def in src/torsorlab, read
    from the code objects that compiling each module gives; the label ends
    in `(tracer)` when tracing.py names the function."""
    traced = set(tracer_names())
    found = {}
    for path in sorted((SRC / "torsorlab").glob("*.py")):
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if hasattr(c, "co_code")]
            # a function has fresh locals; a module or class body does not
            if code.co_name.startswith("<") or not code.co_flags & 0x2:
                continue
            name = getattr(code, "co_qualname", code.co_name)
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            tag = " (tracer)" if (path.stem, name) in traced else ""
            found[key] = f"{path.name}:{code.co_firstlineno} {name}{tag}"
    return found


def load_workloads():
    """perfbench/workloads.py as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def readme_commands() -> list:
    """(line, argv) of each line of the README's CLI block: argv is the line
    without its leading `torsor-lab`, each word that names a file of
    tests/examples/ made that file's path."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [(line, [str(EXAMPLES / w) if (EXAMPLES / w).is_file() else w
                    for w in shlex.split(line)[1:]])
            for line in block.splitlines()]


def run_cli(argv) -> tuple:
    """(exit code, stdout) of torsorlab.cli.main(argv) in this process; a
    usage error is its exit code."""
    from torsorlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def product_paths() -> tuple:
    """Run run_suite, one seed-1 pass per workload and the README's CLI
    commands: (one summary line for each, whether every check read
    verified, no case failed and every command exited 0)."""
    from torsorlab import checks

    suite = checks.run_suite()
    unverified = [r.claim for r in suite if r.verdict != "verified"]
    out = [f"run_suite: {len(suite)} checks, {len(unverified)} not verified"
           + "".join(f" ({claim})" for claim in unverified)]
    ok = not unverified
    workloads = load_workloads()
    for name in workloads.WORKLOADS:
        failed = 0
        cases = workloads.build(name, 1)
        for case in cases:
            run, canon, check = workloads.KINDS[case.kind]
            try:
                failed += not check(case.args, canon(case.args, run(case.args)))
            except Exception:
                failed += 1
        out.append(f"{name}: {len(cases)} cases, {failed} failed")
        ok = ok and not failed
    commands = readme_commands()
    failed = [line for line, argv in commands if run_cli(argv)[0] != 0]
    out.append(f"README CLI: {len(commands)} commands, {len(failed)} failed"
               + "".join(f" ({line})" for line in failed))
    return out, ok and not failed


def main() -> int:
    sys.path.insert(0, str(SRC))
    functions = defined_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        runs, ok = product_paths()
    finally:
        sys.setprofile(None)
    for line in runs:
        print(f"# {line}")
    never = [functions[key] for key in sorted(functions) if key not in entered]
    print(f"# {len(never)} of {len(functions)} functions in src/ never entered, "
          f"{sum(label.endswith(' (tracer)') for label in never)} of them named by the tracer")
    for label in never:
        print(label)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
