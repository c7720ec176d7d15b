"""Every module-level import of the package, the demos and the tests is
used.

The repository runs no linter, so this stdlib-`ast` check stands in for the
unused-import rule: a refactor that moves the last use of a name elsewhere
also deletes the import it leaves behind.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/compound_bc/*.py"), *ROOT.glob("demos/*.py"),
                  *ROOT.glob("tests/*.py")])


def unused_imports(source):
    """(line, name) of each module-level import the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (alias.asname or alias.name).split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_unused_imports_finds_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import inf, pi\n"
              "print(np.pi, os.path.sep, pi)\n")
    assert unused_imports(source) == [(4, "inf")]


def test_no_module_level_import_is_unused():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in MODULES
             for line, name in unused_imports(path.read_text())]
    assert len(MODULES) > 9
    assert not found, (
        f"unused module-level imports: {', '.join(found)}. Delete them; but "
        "perfbench/tracing.py patches module attributes such as "
        "cli.binary_entropy and lines.maximize to count the calls made "
        "through them, so the last use of such a name must stay")
