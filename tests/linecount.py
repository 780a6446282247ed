"""Line counts of src/: each module and the total split into code,
docstring, comment and blank lines, with each module's number of public
names.

    python tests/linecount.py                # run from the repo root

The lines of a module, class or function docstring are docstring, a line
that starts with # is a comment, an empty line is blank, and every other
line is code.  A module's public names are len(__all__).  It is not a test
module (pytest collects only test_*.py) and gates nothing.
"""

import ast
import glob

KINDS = ("code", "docstring", "comment", "blank")
total = dict.fromkeys(KINDS, 0)
public = 0
for path in sorted(glob.glob("src/detline/*.py")):
    text = open(path, encoding="utf-8").read()
    tree = ast.parse(text)
    names = next((len(node.value.elts) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)), None)
    public += names or 0
    doc = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(text.splitlines(), 1):
        kind = ("docstring" if n in doc else
                "comment" if line.lstrip().startswith("#") else
                "blank" if not line.strip() else "code")
        counts[kind] += 1
        total[kind] += 1
    print(f"{path}: {sum(counts.values())} =",
          ", ".join(f"{counts[k]} {k}" for k in KINDS) + "; "
          + ("no __all__" if names is None
             else f"{names} public names"))
print(f"src/ total: {sum(total.values())} =",
      ", ".join(f"{total[k]} {k}" for k in KINDS)
      + f"; {public} public names")
