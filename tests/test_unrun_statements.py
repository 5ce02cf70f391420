"""scripts/unrun_statements.py: what the CLI and the benchmark leave unrun."""

import ast
import inspect
import pathlib
import re
import subprocess
import sys
import textwrap

import securekf.simulator as simulator

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "unrun_statements.py"


def _first_statement_line(func):
    """The line of func's first statement after its docstring."""
    lines, start = inspect.getsourcelines(func)
    body = ast.parse(textwrap.dedent("".join(lines))).body[0].body
    return start + body[1].lineno - 1


def test_lists_a_function_nothing_calls_and_not_one_every_run_takes():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, check=True).stdout
    unrun = {int(line) for line in
             re.findall(r"^src/securekf/simulator\.py:(\d+)  ", out, re.M)}
    # every simulate call runs its first statement; no traced caller
    # estimates the equivalence probability
    assert _first_statement_line(simulator.simulate) not in unrun
    assert _first_statement_line(
        simulator.empirical_equivalence_probability) in unrun
    assert re.search(rf"^\s*{len(unrun)}  simulator\.py$", out, re.M)
