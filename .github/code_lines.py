"""Lines of each module of a package directory, by kind: python .github/code_lines.py DIR.

Docstring lines are those of module, class and function docstrings;
blank or comment lines are the other empty or '#'-only lines; code is
the rest.
"""

import ast
import pathlib
import sys

print(f"{'module':16} {'code':>5} {'doc':>5} {'blank':>5}")
total = [0, 0, 0]
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.py")):
    text = path.read_text()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, False):
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = text.splitlines()
    blank = sum(1 for i, line in enumerate(lines, 1) if i not in doc
                and (not line.strip() or line.strip().startswith("#")))
    row = [len(lines) - len(doc) - blank, len(doc), blank]
    total = [a + b for a, b in zip(total, row)]
    print(f"{path.name:16} {row[0]:5} {row[1]:5} {row[2]:5}")
print(f"{'total':16} {total[0]:5} {total[1]:5} {total[2]:5}  ({sum(total)} lines)")
