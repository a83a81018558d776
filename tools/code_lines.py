"""Count the code lines of the Python files under each directory given.

A code line is a non-blank line outside comments and docstrings, so deleting
prose does not count as less code.  Prints one line per directory:

    src/belllab code lines: <count> in <directory>

Compare a change with its parent by passing both checkouts' package
directories:

    python3 tools/code_lines.py <parent checkout>/src/belllab src/belllab

Standard library only.
"""

import ast
import io
import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = {line for node in ast.walk(ast.parse(source))
                  if isinstance(node, DOCSTRING_OWNERS)
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)
                  for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    code = {line for tok in tokenize.generate_tokens(io.StringIO(source).readline) if tok.type not in SKIP
            for line in range(tok.start[0], tok.end[0] + 1)}
    return len(code - docstrings)


def main(roots) -> int:
    for root in roots:
        count = sum(code_lines(path.read_text(encoding="utf-8")) for path in pathlib.Path(root).rglob("*.py"))
        print(f"src/belllab code lines: {count} in {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
