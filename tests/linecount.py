"""Line counts of the package's modules, split by what each line holds.

Run from anywhere:  python tests/linecount.py [directory]

For each module of src/radival (or of the given directory) and in total,
prints its lines and how they split into code, docstring, comment and
blank lines. A docstring line is any line of a module's, class's or
function's docstring, blank ones inside it included; a comment line holds
a comment and nothing else; a blank line holds only whitespace outside a
docstring; every other line is code. Uses only ast and tokenize, and
pytest does not collect this file.
"""

import ast
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
KINDS = ("lines", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings in tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> dict[str, int]:
    """The counts of KINDS for one module."""
    text = path.read_text()
    lines = text.splitlines()
    docstrings = docstring_lines(ast.parse(text))
    # a line holds code when a token other than a comment or a line end starts on it
    code = set()
    comments = set()
    layout = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type == tokenize.COMMENT:
                comments.add(token.start[0])
            elif token.type not in layout and token.type != tokenize.ENCODING:
                code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    counts["lines"] = len(lines)
    for number, line in enumerate(lines, 1):
        if number in docstrings:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def main(argv: list[str]) -> int:
    directory = pathlib.Path(argv[0]) if argv else ROOT / "src" / "radival"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS))
    for path in sorted(directory.glob("*.py")):
        counts = count(path)
        print(f"{path.name:<16}" + "".join(f"{counts[kind]:>11,}" for kind in KINDS))
        for kind in KINDS:
            total[kind] += counts[kind]
    print(f"{'total':<16}" + "".join(f"{total[kind]:>11,}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
