"""Count the code and docstring lines of each module of src/tdesim.

A code line holds at least one token other than a comment or whitespace
and lies outside every module, class and function docstring; a
docstring line lies inside one.  Blank and comment-only lines count as
neither.  Uses only the standard library, so it runs anywhere the
package's sources are:

    python tools/count_lines.py [package directory]
"""

import ast
import io
import os
import sys
import tokenize

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "tdesim")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """The line numbers of the module's, its classes' and its functions'
    docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(code lines, docstring lines) of one module's source."""
    docs = docstring_lines(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(docs)


def main(argv: list) -> int:
    folder = argv[1] if len(argv) > 1 else PACKAGE
    rows = []
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as f:
                rows.append((name, *count(f.read())))
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'module':<{width}}  {'code':>5}  {'docstring':>9}")
    for name, code, docs in rows:
        print(f"{name:<{width}}  {code:>5}  {docs:>9}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>5}  "
          f"{sum(r[2] for r in rows):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
