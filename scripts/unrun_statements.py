"""List the statements of ``src/securekf`` that the CLI and the benchmark never run.

    python3 scripts/unrun_statements.py > unrun.txt

Traces, line by line, the files under ``src/securekf`` while it runs, in
one process:

- every case of ``scripts/csv_parity.py``;
- ``certify --p 1`` on the bundled pendulum;
- ``perfbench/run.py``'s ``run`` for every workload, at ``size="tiny"``
  with ``seconds=0``, with ``trace`` 0 and 1.

Then prints one ``file:line  statement`` line for each statement that no
traced line of it ran, in file order, followed by the count per module
and the total.  A statement is an ``ast`` statement; docstrings and
``try`` headers, which run no line of their own, are left out.  A
compound statement counts as run when a line of its header ran, a simple
one when any of its lines ran.

The script imports ``securekf`` from the ``src/`` of the tree it sits in,
so running it from two checkouts and diffing the output shows which
statements a change took out of, or put into, the unrun list.  A CLI
command or a benchmark run that fails stops the script with an error
naming it.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "securekf"
MODEL = ROOT / "configs" / "pendulum.json"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traffic() -> None:
    """Run the traced traffic: the parity cases, certify and every
    benchmark workload at its tiny size."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    csv_parity = _load("csv_parity", ROOT / "scripts" / "csv_parity.py")
    for case in csv_parity.cases():
        csv_parity.digest(case)
    csv_parity.run(["certify", str(MODEL), "--p", "1"])
    bench = _load("perfbench_run", ROOT / "perfbench" / "run.py")
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            result, _, _ = bench.run(workload, seed=0, seconds=0,
                                     trace=trace, size="tiny")
            if not result["correct"]:
                raise SystemExit(f"error: perfbench {workload} --trace "
                                 f"{trace} failed its output checks")


def trace_lines(work) -> dict[str, set[int]]:
    """The lines of each file under src/securekf that work() ran."""
    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    sys.settrace(call)
    try:
        work()
    finally:
        sys.settrace(None)
    return ran


def statements(tree):
    """(statement, the lines that count as running it) for every
    statement of the module, docstrings and try headers left out."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, ast.Try)
                or id(node) in docstrings):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        children = [child for field in ("body", "orelse", "handlers",
                                        "finalbody", "cases")
                    for child in getattr(node, field, [])]
        last = (min(child.lineno for child in children) - 1 if children
                else node.end_lineno)
        out.append((node, range(first, max(first, last) + 1)))
    return sorted(out, key=lambda pair: (pair[0].lineno, pair[0].col_offset))


def main() -> int:
    ran = trace_lines(traffic)
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        seen = ran.get(str(path), set())
        unrun = [node for node, span in statements(ast.parse(source))
                 if not seen.intersection(span)]
        name = path.relative_to(ROOT)
        for node in unrun:
            print(f"{name}:{node.lineno}  {lines[node.lineno - 1].strip()}")
        counts[path.name] = len(unrun)
    print()
    for module, count in counts.items():
        print(f"{count:5d}  {module}")
    print(f"{sum(counts.values()):5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
