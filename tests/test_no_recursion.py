"""No function of the package calls itself, directly or through others.

Formula depth comes from user input, so every traversal runs on an explicit
stack. This scan reads the package's source: each function is a node, and a
reference to another function of the package (a call, or a function passed
along as a value) is an edge. A cycle is recursion. The parser's descent is
the one exception: ``MAX_NESTING`` bounds it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "g3arg"

# The recursive-descent parser's precedence ladder.
ALLOWED = {
    ("syntax", f"_Parser.{name}")
    for name in (
        "parse_biimp",
        "parse_imp",
        "parse_or",
        "parse_and",
        "parse_unary",
        "parse_quantifier",
        "parse_atom",
    )
}


class _Defs(ast.NodeVisitor):
    """Every function of one module, by qualified name, with its scope."""

    def __init__(self):
        self.functions = {}  # qualname -> (def node, class name, enclosing qualnames)
        self.classes = {}  # class name -> its method names
        self.imports = {}  # local name -> (module, name)
        self._class = None
        self._enclosing = []

    def visit_ImportFrom(self, node):
        if node.level == 1 and node.module:
            for alias in node.names:
                self.imports[alias.asname or alias.name] = (node.module, alias.name)

    def visit_ClassDef(self, node):
        self.classes[node.name] = set()
        outer, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = outer

    def visit_FunctionDef(self, node):
        if self._enclosing:
            qualname = f"{self._enclosing[-1]}.{node.name}"
        elif self._class:
            qualname = f"{self._class}.{node.name}"
            self.classes[self._class].add(node.name)
        else:
            qualname = node.name
        self.functions[qualname] = (node, self._class, list(self._enclosing))
        self._enclosing.append(qualname)
        self.generic_visit(node)
        self._enclosing.pop()


def _modules():
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs = _Defs()
        defs.visit(ast.parse(path.read_text(), str(path)))
        modules[path.stem] = defs
    return modules


def _resolve(modules, module, name):
    """The functions a bare name of ``module`` stands for, imports followed."""
    seen = set()
    while (module, name) not in seen:
        seen.add((module, name))
        defs = modules[module]
        if name in defs.classes:
            return [(module, f"{name}.{m}") for m in ("__init__", "__post_init__")
                    if m in defs.classes[name]]
        if name in defs.functions:
            return [(module, name)]
        if name not in defs.imports or defs.imports[name][0] not in modules:
            return []
        module, name = defs.imports[name]
    return []


def _edges(modules, module, qualname):
    defs = modules[module]
    node, cls, enclosing = defs.functions[qualname]
    nested_bodies = {id(n) for f in ast.walk(node)
                     if f is not node and isinstance(f, ast.FunctionDef)
                     for n in ast.walk(f)}
    found = set()
    for ref in ast.walk(node):
        if id(ref) in nested_bodies:  # a nested def's own references are its edges
            continue
        if isinstance(ref, ast.Name) and isinstance(ref.ctx, ast.Load):
            # innermost scope first: a function nested here or around here
            for scope in [qualname, *reversed(enclosing)]:
                if f"{scope}.{ref.id}" in defs.functions:
                    found.add((module, f"{scope}.{ref.id}"))
                    break
            else:
                found.update(_resolve(modules, module, ref.id))
        elif isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name):
            owner = ref.value.id
            if owner in ("self", "cls") and cls and ref.attr in defs.classes[cls]:
                found.add((module, f"{cls}.{ref.attr}"))
            elif owner in defs.classes and ref.attr in defs.classes[owner]:
                found.add((module, f"{owner}.{ref.attr}"))
            elif owner in defs.imports:
                target, name = defs.imports[owner]
                target_defs = modules.get(target)
                if target_defs and ref.attr in target_defs.classes.get(name, ()):
                    found.add((target, f"{name}.{ref.attr}"))
    return found


def recursive_functions():
    """Every function that can reach itself in the package's reference graph."""
    modules = _modules()
    graph = {
        (module, qualname): _edges(modules, module, qualname)
        for module, defs in modules.items()
        for qualname in defs.functions
    }
    cyclic = set()
    for start in graph:
        stack, seen = list(graph[start]), set()
        while stack:
            node = stack.pop()
            if node == start:
                cyclic.add(start)
                break
            if node not in seen:
                seen.add(node)
                stack.extend(graph.get(node, ()))
    return cyclic


def test_no_function_recurses_except_the_parser_descent():
    assert sorted(recursive_functions() - ALLOWED) == []


def test_the_scan_sees_the_parser_descent():
    # the allowlist is live: the scan finds the parser's cycle, so it can see
    # direct, mutual and callback recursion
    assert ("syntax", "_Parser.parse_biimp") in recursive_functions()
