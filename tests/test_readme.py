"""The README's Library example runs and gives the results its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_holds():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]
    lines, namespace, stated = block.splitlines(), {}, []
    for stmt in ast.parse(block).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr) and comment:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(comment), lines[stmt.end_lineno - 1]
            stated.append(value)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert stated == [1, "HeisenbergNilpotent", True]
