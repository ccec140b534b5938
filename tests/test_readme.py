"""README's Python examples run as written, and every expression statement
with a `# ...` comment has a repr that its comment begins with.  Every `ua`
command line it shows is a row of the CLI golden table."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

import smoke

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
SHELL = re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)


def comments(source):
    # line number -> the text of the comment on that line
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {
        token.start[0]: token.string.lstrip("#").strip()
        for token in tokens
        if token.type == tokenize.COMMENT
    }


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_states_its_results(source):
    notes = comments(source)
    namespace = {}
    checked = 0
    for statement in ast.parse(source).body:
        note = notes.get(statement.end_lineno)
        if isinstance(statement, ast.Expr) and note is not None:
            code = compile(ast.Expression(statement.value), README.name, "eval")
            shown = repr(eval(code, namespace))
            # the repr, then the end of the comment or the rest of a sentence
            assert re.match(re.escape(shown) + r"($|[ ,])", note), (ast.unparse(statement), note)
            checked += 1
        else:
            exec(compile(ast.Module([statement], []), README.name, "exec"), namespace)
    assert checked


def test_readme_cli_lines_are_golden_rows():
    shown = [
        shlex.split(line, comments=True)[1:]
        for block in SHELL
        for line in block.splitlines()
        if line.startswith("ua ")
    ]
    rows = [row["argv"] for row in smoke.ROWS]
    assert shown and [argv for argv in shown if argv not in rows] == []
