"""The package's import layering: every intra-package import, at module
level or inside a function, points down the layers."""

import ast
import os

import mtir

PACKAGE = os.path.dirname(os.path.abspath(mtir.__file__))


def _imported(module: str, tree) -> set:
    """The package modules `tree`, the source of `module`, imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import y
                out.add(node.module.split(".")[0])
            elif node.level == 1:  # from . import x
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "mtir":
                parts = node.module.split(".")
                out.update([parts[1]] if len(parts) > 1
                           else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mtir" and len(parts) > 1:
                    out.add(parts[1])
    return out - {module}


def import_graph() -> dict:
    graph = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), name)
            graph[name[:-3]] = _imported(name[:-3], tree)
    return graph


def test_graph_covers_the_package():
    graph = import_graph()
    assert {"analysis", "cfg", "facts", "interp", "oracle", "pdg"} \
        <= set(graph)
    assert all(deps <= set(graph) for deps in graph.values()), graph


def test_import_graph_is_acyclic():
    graph, done, trail = import_graph(), set(), []

    def visit(module):
        assert module not in trail, "import cycle: %s" % " -> ".join(
            trail[trail.index(module):] + [module])
        if module in done:
            return
        trail.append(module)
        for dep in sorted(graph[module]):
            visit(dep)
        trail.pop()
        done.add(module)

    for module in graph:
        visit(module)


def test_cfg_builds_on_the_syntax_alone():
    assert import_graph()["cfg"] <= {"ast", "errors", "record"}


def test_ordering_layers_read_no_values():
    # feasibility, slicing and the oracle see statement order, not the
    # abstract domain or the interpreter
    graph = import_graph()
    for module in ("facts", "pdg", "oracle"):
        assert not graph[module] & {"domain", "interp"}, module


def test_only_the_front_ends_import_the_analysis():
    graph = import_graph()
    assert {module for module, deps in graph.items() if "analysis" in deps} \
        <= {"cli", "bench", "__init__"}


def test_only_cfg_imports_the_graph_solvers():
    # every per-routine graph fact is a cached property of `cfg.ThreadCfg`,
    # so no other module runs a solver of its own
    solvers = {"flow_masks", "dominator_sets", "reachable_sets"}
    importers = set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), name)
            if any(isinstance(node, ast.ImportFrom)
                   and {alias.name for alias in node.names} & solvers
                   for node in ast.walk(tree)):
                importers.add(name[:-3])
    assert importers <= {"cfg"}, importers
