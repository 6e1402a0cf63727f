"""Count the lines of src/rolltune/*.py, as `wc -l` does and code only.

A code-only line holds at least one token that is not a comment and not
part of a module, class or function docstring; blank lines do not count.

    python tools/code_lines.py          # per file, then the total
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rolltune"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers spanned by the docstrings of a module's body and of
    every class and function in it."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    docs = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main():
    total_wc = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        wc, code = text.count("\n"), code_lines(text)
        total_wc += wc
        total_code += code
        print(f"{wc:6,d} {code:6,d}  {path.name}")
    print(f"{total_wc:6,d} {total_code:6,d}  total (wc -l, code only)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
