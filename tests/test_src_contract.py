"""`src/prelie` keeps only what it runs, exports or the benchmark traces.

Every function and class defined in the package, at any depth, must be
referenced somewhere in `src/prelie` outside its own definition, be
exported by `prelie/__init__.py`, or be named in `TRACED` of
`bench/tracer.py` (which wraps it by name).  A reference is a read: a
method is read as an attribute, any other definition as a name that
resolves to it (a local variable of the same name does not) or as an
attribute.  A read ``self.NAME`` in a class that defines or assigns NAME
itself counts only for that class, so a same-named attribute of one
class cannot keep another class's method alive.  Dunder methods, which
the language calls, are exempt.
Anything else is code only the tests reach, and it belongs in
`tests/oracles.py`.  Both files are parsed, not imported.

The test files import no name they do not read: each name an import
binds, at module level or in a function, must be read in the scope that
imports it.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prelie"
TESTS = ROOT / "tests"
TRACER = ROOT / "bench" / "tracer.py"
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bound(scope) -> set:
    """The names a function, lambda or comprehension binds in its own scope.

    Imports are left out: an imported name stands for the definition it
    imports.
    """
    if isinstance(scope, COMPREHENSIONS):
        return {node.id for generator in scope.generators
                for node in ast.walk(generator.target) if isinstance(node, ast.Name)}
    args = scope.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
             + [args.vararg, args.kwarg] if a}
    declared, stack = set(), list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, DEFINITIONS):
            names.add(node.name)
            continue
        if isinstance(node, (ast.Lambda,) + COMPREHENSIONS):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names - declared


def _members(cls) -> set:
    """The names a class defines in its body or assigns as ``self.NAME`` in its methods."""
    names = {node.name for node in cls.body if isinstance(node, DEFINITIONS)}
    names |= {target.id for node in cls.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)}
    return names | {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store) and _on_self(node)}


def _on_self(node) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id == "self"


def _scan(tree):
    """The definitions in ``tree`` and its reads, each under a key.

    A method's keys are ("attr", name), which every attribute read of that
    name carries, and ((class id), name), which only a ``self.name`` read
    inside a class that has the member name carries; a name read takes the
    key (scope, name) of the innermost function scope around it that binds
    the name, else (None, name), the key of a module-level definition,
    which an attribute read (`module.f`) also reaches.  Each read also
    carries the ids of the definitions it lies in.
    """
    definitions, reads = [], []

    def visit(node, scopes, inside, cls, in_class):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            owner = next((scope for scope, bound in reversed(scopes) if node.id in bound), None)
            reads.append(((owner, node.id), inside))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            own = cls and _on_self(node) and node.attr in cls[1]
            reads.append((((cls[0],) if own else "attr", node.attr), inside))
        if isinstance(node, DEFINITIONS):
            key = ("attr" if in_class else scopes[-1][0] if scopes else None, node.name)
            keys = {key, ((cls[0],), node.name)} if in_class else {key}
            definitions.append((node, keys))
            inside = inside | {id(node)}
        if isinstance(node, ast.ClassDef):
            cls = (id(node), _members(node))
        if isinstance(node, FUNCTIONS + COMPREHENSIONS):
            scopes = scopes + [(id(node), _bound(node))]
        for child in ast.iter_child_nodes(node):
            visit(child, scopes, inside, cls, isinstance(node, ast.ClassDef))

    visit(tree, [], frozenset(), None, False)
    return definitions, reads


def _traced() -> set:
    """Every component of every qualified name in `TRACED`."""
    tree = ast.parse(TRACER.read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    return {part for names in ast.literal_eval(value).values()
            for name in names for part in name.split(".")}


def _exported() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unreferenced_definitions() -> list:
    """(module, name) of each definition that the contract flags."""
    scans = {path.stem: _scan(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = [read for _, module_reads in scans.values() for read in module_reads]
    kept = _exported() | _traced()
    flagged = []
    for module, (definitions, _) in scans.items():
        for node, keys in definitions:
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in kept:
                continue
            if (None, name) in keys:
                keys = keys | {("attr", name)}
            if not any(read in keys and id(node) not in inside for read, inside in reads):
                flagged.append((module, name))
    return flagged


def test_every_definition_in_src_is_referenced_exported_or_traced():
    assert unreferenced_definitions() == []


ORPHANS = {
    # a method that only calls itself, under a name nothing else uses
    "method": ("    def require_unit(self) -> tuple:",
               "    def orphan_mult(self, x):\n        return self.orphan_mult(x)\n\n",
               "orphan_mult"),
    # a method named like the local `bracket` that `subadjacent_lie` reads
    "method-named-like-a-local": ("    def require_unit(self) -> tuple:",
                                  "    def bracket(self, x, y):\n        return x\n\n",
                                  "bracket"),
    # a module-level function named like that local
    "function-named-like-a-local": ("def subadjacent_lie(a: PreLieAlgebra):",
                                    "def bracket(x, y):\n    return x\n\n\n",
                                    "bracket"),
    # a method named like the attribute that `deformation._ElementTerms` assigns and
    # reads as `self.basis`: those reads are its own
    "method-named-like-another-class-attribute": (
        "    def require_unit(self) -> tuple:",
        "    def basis(self, i):\n        return i\n\n", "basis"),
}


@pytest.mark.parametrize("orphan", ORPHANS)
def test_the_contract_sees_a_definition_nothing_reads(orphan, tmp_path, monkeypatch):
    # a copy of the package with one extra definition that nothing reads
    anchor, definition, name = ORPHANS[orphan]
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    algebra = tmp_path / "algebra.py"
    source = algebra.read_text()
    assert source.count(anchor) == 1
    algebra.write_text(source.replace(anchor, definition + anchor))
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", tmp_path)
    assert unreferenced_definitions() == [("algebra", name)]


def _own_nodes(scope):
    """The nodes of a module or function, those of the functions nested in it left out."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unread_imports(tree) -> list:
    """(line, name) of each name an import in ``tree`` binds that its scope never reads."""
    flagged = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, FUNCTIONS))]:
        reads = {node.id for node in ast.walk(scope)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in _own_nodes(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                flagged += [(node.lineno, name) for name in
                            (alias.asname or alias.name.split(".")[0] for alias in node.names)
                            if name not in reads]
    return sorted(flagged)


def test_no_test_file_imports_a_name_it_never_reads():
    flagged = {path.name: unread_imports(ast.parse(path.read_text()))
               for path in sorted(TESTS.glob("*.py"))}
    assert {name: found for name, found in flagged.items() if found} == {}


def test_the_import_contract_sees_an_unread_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps as dump, loads\n"
        "\n"
        "def f():\n"
        "    import io\n"
        "    import re\n"
        "    return os, loads, re\n"
        "\n"
        "def g():\n"
        "    return io\n")
    # `io` is read, but in another function than the one that imports it
    assert unread_imports(ast.parse(source)) == [(3, "dump"), (6, "io")]
