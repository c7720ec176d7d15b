"""Every top-level name and class method of the package has a user outside
the tests.

Code that only the tests call is an oracle, and oracles live in `tests/`.
The users are `src/compound_bc/`, `demos/` and `perfbench/`.  A top-level
name counts as used there when it appears, outside its own definition, as
a name, as an attribute or as a string constant; a method only as an
attribute or a string, so a local variable of the same name does not hide
it.  The strings cover the benchmark tracer's patches, which name the
attributes they replace.  The check is by name only, so a method whose
name another class also defines passes when either one is used: such
shared names (for example `key`, which `InfoExpr` and `LinIneq` both
define) must be checked by hand.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/compound_bc/*.py"))
USERS = sorted([*PACKAGE, *ROOT.glob("demos/*.py"),
                *ROOT.glob("perfbench/*.py")])


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(line, name, node, is_method) of each top-level function, class and
    assigned name, and of each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name, node, False
        if isinstance(node, ast.ClassDef):
            yield from ((item.lineno, item.name, item, True)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not _dunder(item.name))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        yield from ((node.lineno, t.id, node, False) for t in targets
                    if isinstance(t, ast.Name) and not _dunder(t.id))


def references(tree):
    """How often each name is read (names, attributes), counting strings
    as attributes: a method is reached only through the latter."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            attributes[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes[node.value] += 1
    return names, attributes


def unused_outside_tests(package, users):
    """(module, line, name) of each definition in the `package` sources
    that no `users` source reads outside that definition itself."""
    trees = {name: ast.parse(source) for name, source in users.items()}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        found_names, found_attributes = references(tree)
        names += found_names
        attributes += found_attributes
    found = []
    for module in package:
        for line, name, node, is_method in definitions(trees[module]):
            own_names, own_attributes = references(node)
            uses = attributes[name] - own_attributes[name]
            if not is_method:
                uses += names[name] - own_names[name]
            if uses <= 0:
                found.append((module, line, name))
    return found


def test_guard_flags_names_only_tests_read():
    users = {
        "pkg.py": ("import numpy as np\n"
                   "LIMIT = 3\n"
                   "class Box:\n"
                   "    def used(self):\n"
                   "        return LIMIT\n"
                   "    def only_tested(self):\n"
                   "        return self.only_tested()\n"
                   "    def patched(self):\n"
                   "        return 1\n"
                   "    def shadowed(self):\n"
                   "        return 2\n"
                   "def helper():\n"
                   "    shadowed = Box().used()\n"
                   "    return shadowed\n"),
        "bench.py": "PATCHES = [('Box', 'patched')]\nprint(helper)\n",
    }
    # a method is not used by a local variable of the same name
    assert unused_outside_tests(["pkg.py"], users) == [
        ("pkg.py", 6, "only_tested"), ("pkg.py", 10, "shadowed")]


def test_no_package_name_is_read_only_by_tests():
    users = {str(path.relative_to(ROOT)): path.read_text() for path in USERS}
    package = [str(path.relative_to(ROOT)) for path in PACKAGE]
    found = [f"{module}:{line} {name}" for module, line, name
             in unused_outside_tests(package, users)]
    assert len(package) > 8
    assert not found, (
        f"names no source outside tests/ reads: {', '.join(found)}. Move "
        "test-only code into tests/ (or delete it), keeping its checks")


# Names that only the benchmark reads outside the tests.  Adding one makes
# it benchmark-only on purpose; each is free to delete, or to move into
# tests/, once the benchmark stops calling it.
BENCHMARK_ONLY = {"DEFAULT_BUDGET", "default_lambda_grid",
                  "evaluate_supporting_lines", "example_valuations",
                  "invert_decreasing", "load", "reduce_example_system",
                  "reduced_target_region", "regions_match", "t_values",
                  "three_arv_region"}


def test_names_only_the_benchmark_keeps_alive_are_pinned():
    users = {str(path.relative_to(ROOT)): path.read_text() for path in USERS
             if path.parent.name != "perfbench"}
    package = [str(path.relative_to(ROOT)) for path in PACKAGE]
    found = {name for _, _, name in unused_outside_tests(package, users)}
    assert found == BENCHMARK_ONLY
