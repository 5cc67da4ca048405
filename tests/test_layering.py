"""The package's modules form layers: no module imports, at module level or
inside a function, a module that imports it back, directly or through
others; and no module imports a sibling's private (`_`-prefixed) name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sclflow"


def import_graph() -> dict[str, set[str]]:
    """Module name -> the sibling modules its `from .x import` lines name."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def find_cycle(graph):
    """One import cycle as a list of modules, first repeated last, or None."""
    state = {}  # absent: unvisited, 1: on the current path, 2: done

    def visit(module, path):
        state[module] = 1
        for dep in sorted(graph.get(module, ())):
            if state.get(dep) == 1:
                return path[path.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, path + [dep])
                if cycle:
                    return cycle
        state[module] = 2
        return None

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return None


def test_import_graph_is_read():
    graph = import_graph()
    assert "engine" in graph["cli"] and "linprog" in graph["engine"]


def test_find_cycle_finds_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_modules_import_no_cycle():
    assert find_cycle(import_graph()) is None


def test_modules_import_no_private_sibling_name():
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private += [f"{path.stem} <- {node.module}.{alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
