"""Which src/ statements the program's own entry points reach.

Runs three sources in this process under sys.settrace:

- every CLI golden case (tests/golden/regen.py CASES) through cli.main;
- the demos under demos/, each as __main__;
- one cycle of the enumerate, witt, witt-refusals and incidence workloads of
  perfbench/workloads.py, set up and called as the benchmark does.

It prints how many src/ortholag statements they entered out of the total,
then each public function or method (a name without a leading underscore,
or a dunder) that none of them entered.  A statement is entered when a line
of its own is traced: for a compound statement, its header or the first line
of its body.  Docstrings are not statements.

    python tests/reach.py

It is slow under the tracer and not part of the test suite.
"""

import ast
import contextlib
import glob
import io
import os
import runpy
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "ortholag")
WORKLOADS = ("enumerate", "witt", "witt-refusals", "incidence")


def _is_docstring(node, parent):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str) and parent.body
            and parent.body[0] is node)


def _own_lines(node):
    """The lines whose trace marks node as entered."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno + 1)
    return range(first, node.end_lineno + 1)


def statements(path):
    """The own lines of each statement in path, and (name, own lines of the
    first statement of its body) for each public module function or method."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    stmts, funcs = [], []

    def visit(parent, owner):
        body = []
        for field in ("body", "orelse", "finalbody", "handlers"):
            for node in getattr(parent, field, ()):
                if not _is_docstring(node, parent):
                    body.append(node)
        for node in body:
            stmts.append(_own_lines(node))
            if isinstance(node, ast.ClassDef):
                visit(node, f"{node.name}." if owner == "" else None)
                continue
            first = visit(node, None)
            name = getattr(node, "name", "_")
            public = isinstance(node, ast.FunctionDef) and (
                not name.startswith("_")
                or name.startswith("__") and name.endswith("__"))
            if public and owner is not None and first:
                funcs.append((f"{owner}{name}", _own_lines(first[0])))
        return body

    visit(tree, "")
    return stmts, funcs


class LineTracer:
    """The lines run in files under src/ortholag, per file."""

    def __init__(self):
        self.lines = {}

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(SRC):
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.setdefault(frame.f_code.co_filename, set()).add(
                frame.f_lineno)
        return self._local

    @contextlib.contextmanager
    def tracing(self):
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def run_sources():
    """Run the CLI cases, the demos and one cycle of each workload."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(HERE, "golden"),
                    os.path.join(ROOT, "perfbench")]
    import regen
    for argv in regen.CASES:
        regen.run(argv)
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(path, run_name="__main__")
    import workloads
    from ortholag.errors import OrtholagError
    for name in WORKLOADS:
        w = workloads.WORKLOADS[name](0, inproc=True)
        w.setup()
        for i in range(len(w.cycle)):
            try:
                w.call(w.make(i))
            except OrtholagError:
                pass


def main():
    tracer = LineTracer()
    start = time.perf_counter()
    with tracer.tracing():
        run_sources()
    wall = time.perf_counter() - start
    entered = total = 0
    missed = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        hit = tracer.lines.get(path, set())
        stmts, funcs = statements(path)
        total += len(stmts)
        entered += sum(1 for lines in stmts if hit.intersection(lines))
        missed += [f"{os.path.basename(path)[:-3]}.{name}"
                   for name, lines in funcs if not hit.intersection(lines)]
    print(f"{entered} of {total} src statements entered in {wall:.1f} s")
    print(f"{len(missed)} public functions and methods never entered:")
    for name in missed:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
