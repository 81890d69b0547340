"""What runs the package reaches every definition in it.

The entry points are the `latticeym` console script (``cli.main``),
scripts/continuum_scan.py, and every name and identifier string in
perfbench/*.py; tests are not among them.  The walk is by name, over the
ASTs with docstrings removed: a reached name reaches each top-level
function, class or constant of that name in src/latticeym, and with it the
names that definition uses.  A method's body is separate from its class:
it is reached when its class and its name both are, and a special method
comes with its class.  Module-level statements other than definitions and
imports run on import, so their names are reached from the start.
"""

import ast
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latticeym"
SCRIPTS = (ROOT / "scripts" / "continuum_scan.py",)
BENCHMARK = ROOT / "perfbench"
ENTRY = "main"  # [project.scripts] latticeym = "latticeym.cli:main"

# Definitions that no entry point reaches and that stay in the package.
KEEP = {
    "factorized.gue_moment": "closed-form oracle of the Gaussian limit (ROADMAP)",
    "mc.correlation_from_generating": "the README's order-r plaquette correlations",
    "mc.CorrelationEstimate": "the record correlation_from_generating returns",
    "groups.quadratic_bound_sides": "the README's k-tuple quadratic bound",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class Definition:
    qualname: str            # module.name or module.Class.method
    name: str
    owner: str | None        # qualname of the class of a method
    uses: frozenset


def parse(path):
    """AST of a source file with every docstring removed."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, *_FUNCTIONS)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                node.body = node.body[1:] or [ast.Pass()]
    return tree


def names(*nodes, strings=False):
    """Names and attribute names under the nodes, and their identifier strings if asked."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif (strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                  and sub.value.isidentifier()):
                found.add(sub.value)
    return found


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def package_definitions():
    """Every definition in the package, and the names its import-time code uses."""
    definitions, on_import = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in parse(path).body:
            if isinstance(node, _FUNCTIONS):
                definitions.append(Definition(f"{module}.{node.name}", node.name, None,
                                              frozenset(names(node))))
            elif isinstance(node, ast.ClassDef):
                owner = f"{module}.{node.name}"
                methods = [item for item in node.body if isinstance(item, _FUNCTIONS)]
                rest = [item for item in node.body if not isinstance(item, _FUNCTIONS)]
                definitions.append(Definition(owner, node.name, None, frozenset(names(
                    *node.bases, *node.keywords, *node.decorator_list, *rest))))
                definitions += [Definition(f"{owner}.{item.name}", item.name, owner,
                                           frozenset(names(item))) for item in methods]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants = [t.id for t in targets
                             if isinstance(t, ast.Name) and not _dunder(t.id)]
                uses = frozenset(names(node.value)) if node.value else frozenset()
                definitions += [Definition(f"{module}.{name}", name, None, uses)
                                for name in constants]
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                on_import |= names(node)
    return definitions, on_import


def reached_definitions(definitions, seeds, roots=()):
    """Qualified names of the definitions reached from the seed names and
    from the definitions named in `roots`, with every method of a root class."""
    reached, live = set(seeds), set()
    grown = True
    while grown:
        grown = False
        for definition in definitions:
            if definition.qualname in live:
                continue
            if definition.qualname in roots:
                hit = True
            elif definition.owner is None:
                hit = definition.name in reached
            else:
                hit = definition.owner in live and (
                    _dunder(definition.name) or definition.name in reached
                    or definition.owner in roots)
            if hit:
                live.add(definition.qualname)
                reached |= definition.uses
                grown = True
    return live


def entry_names():
    seeds = {ENTRY}
    for path in SCRIPTS:
        seeds |= names(parse(path))
    for path in sorted(BENCHMARK.glob("*.py")):
        seeds |= names(parse(path), strings=True)
    return seeds


def test_every_definition_is_reached():
    definitions, on_import = package_definitions()
    live = reached_definitions(definitions, entry_names() | on_import, roots=KEEP)
    unreached = sorted(d.qualname for d in definitions if d.qualname not in live)
    assert unreached == [], "reached by no entry point: " + ", ".join(unreached)


def test_keep_list_names_unreached_definitions():
    definitions, on_import = package_definitions()
    live = reached_definitions(definitions, entry_names() | on_import)
    qualnames = {d.qualname for d in definitions}
    assert sorted(name for name in KEEP if name not in qualnames or name in live) == []


def test_walk_separates_methods_from_their_class():
    source = ast.parse(
        "class A:\n    def used(self): return helper\n    def unused(self): return other\n"
        "    def __len__(self): return size\n")
    cls = source.body[0]
    definitions = [Definition("m.A", "A", None, frozenset())] + [
        Definition(f"m.A.{item.name}", item.name, "m.A", frozenset(names(item)))
        for item in cls.body]
    definitions += [Definition(f"m.{name}", name, None, frozenset())
                    for name in ("helper", "other", "size")]
    assert reached_definitions(definitions, {"A", "used"}) == {
        "m.A", "m.A.used", "m.A.__len__", "m.helper", "m.size"}
    assert reached_definitions(definitions, {"used"}) == set()
