"""Count the code, docstring and blank-or-comment lines of each module of ``src/dyncool``.

    python3 tools/src_lines.py [CHECKOUT]

A docstring line is any line of a module, class or function docstring (``ast``).
A code line holds at least one token other than a comment outside those
docstrings; a multi-line string that is not a docstring counts as code on
every line it spans (``tokenize``). Every other line is blank or a comment.
CHECKOUT defaults to the checkout holding this script. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers spanned by every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """Code, docstring and blank-or-comment line counts of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    total = len(source.splitlines())
    return {"code": len(code), "docstring": len(docs), "blank_comment": total - len(code) - len(docs),
            "total": total}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    modules = sorted((args.checkout / "src" / "dyncool").glob("*.py"))
    if not modules:
        parser.error(f"no modules under {args.checkout / 'src' / 'dyncool'}")
    columns = ("code", "docstring", "blank_comment", "total")
    print(f"{'module':<18}" + "".join(f"{c:>15}" for c in columns))
    totals = dict.fromkeys(columns, 0)
    for path in modules:
        counts = count(path.read_text())
        for c in columns:
            totals[c] += counts[c]
        print(f"{path.name:<18}" + "".join(f"{counts[c]:>15}" for c in columns))
    print(f"{'total':<18}" + "".join(f"{totals[c]:>15}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
