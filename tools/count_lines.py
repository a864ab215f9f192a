"""Count the lines and the code lines of the Python modules in one directory.

Usage: python3 tools/count_lines.py src/olaurent

Prints two numbers: the total lines of the directory's ``*.py`` files and
their code lines, the lines on which an AST node starts, with every
docstring (module, class or function) left out.
"""

import ast
import pathlib
import sys


def code_lines(path: pathlib.Path) -> set[int]:
    """Line numbers on which a node of `path` that is not part of a docstring starts."""
    tree = ast.parse(path.read_text())
    docs = [n.body[0] for n in ast.walk(tree)
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant) and isinstance(n.body[0].value.value, str)]
    skip = {id(m) for d in docs for m in ast.walk(d)}
    return {n.lineno for n in ast.walk(tree) if hasattr(n, "lineno") and id(n) not in skip}


def main(directory: str) -> None:
    files = sorted(pathlib.Path(directory).glob("*.py"))
    total = sum(len(f.read_text().splitlines()) for f in files)
    print(total, sum(len(code_lines(f)) for f in files))


if __name__ == "__main__":
    main(sys.argv[1])
