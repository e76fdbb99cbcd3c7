"""Static checks, by reading the package's source with ast, that each
deliberate oracle stays independent of the fast route it checks.

An oracle may not name a function of that route, neither in its own body
nor in any package function it reaches by name: calls are followed through
the functions of its own module and the names imported from other package
modules.
"""

import ast
from pathlib import Path

import pytest

import windmills

PACKAGE = Path(windmills.__file__).parent

# the lattice and kernel names of the windmill walk
WALK = {
    "_reduce_raw",
    "_reduce_slopes_raw",
    "_fast_solution_raw",
    "_windmill_pair_raw",
    "_cone_pair",
    "_standard_basis_raw",
    "_walk_rows",
}

ORACLES = [
    ("decomp", "_bruteforce_hits", WALK),
    ("decomp", "_bruteforce_rows", WALK),
    ("decomp", "_irreducible_rows", {"irreducible_count"}),
    ("numtheory", "wilson_sqrt_minus_one_oracle", {"sqrt_minus_one", "smallest_nonresidue"}),
    ("lattice2d", "triangle_basis_test", {"is_basis_of_slope", "det"}),
]


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}


def reached_names(sources: dict[str, str], module: str, function: str) -> set[str]:
    # every name that module.function reads, as a variable or an attribute,
    # together with the names read by each package function it reaches
    trees = {name: ast.parse(source) for name, source in sources.items()}
    functions = {}  # (module, name) -> top-level def
    imported = {}  # (module, bound name) -> (module, name)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[mod, node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                for alias in node.names:
                    imported[mod, alias.asname or alias.name] = (node.module, alias.name)
    names = set()
    todo = [(module, function)]
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        mod = key[0]
        for node in ast.walk(functions[key]):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            names.add(name)
            target = imported.get((mod, name), (mod, name))
            if target in functions:
                todo.append(target)
    return names


@pytest.mark.parametrize(
    "module,function,forbidden", ORACLES, ids=[f"{m}.{f}" for m, f, _ in ORACLES]
)
def test_oracle_names_nothing_of_the_route_it_checks(module, function, forbidden):
    assert reached_names(package_sources(), module, function) & forbidden == set()


@pytest.mark.parametrize(
    "sources,found",
    [
        # a direct call, and a module attribute
        ({"a": "def f():\n    return g()\n"}, {"g"}),
        ({"a": "def f(m):\n    return m.g\n"}, {"m", "g"}),
        # a same-module helper is followed
        ({"a": "def f():\n    return h()\ndef h():\n    return g()\n"}, {"h", "g"}),
        # a name imported from another package module is followed, under its alias too
        (
            {"a": "from .b import h as k\ndef f():\n    return k()\n", "b": "def h():\n    return g()\n"},
            {"k", "g"},
        ),
        # recursion ends
        ({"a": "def f():\n    return f()\n"}, {"f"}),
        # a function that is never reached does not count
        ({"a": "def f():\n    return 1\ndef h():\n    return g()\n"}, set()),
    ],
)
def test_finds_what_is_reached(sources, found):
    assert reached_names(sources, "a", "f") == found
