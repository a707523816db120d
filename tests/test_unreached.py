"""Code that only tests reach belongs in the tests, not in ``src/trifree``.

A module-level function or class counts as reached when some package code
reads it: by its bare name, through a ``from`` import outside
``__init__.py`` (whose re-exports alone reach nothing), or as
``<module>.<name>`` on a ``trifree`` module.  A method counts as reached by
any attribute read of its name, since the walk does not know the type of
what it is read from.  So a method that shares a function's name, as
``_Piece.reduce`` shares ``reductions.reduce``, reaches only itself.  What
no package code reaches is pinned below, each with why it stays.
"""
import ast
from pathlib import Path

import trifree
from trifree import extremal

SRC = Path(__file__).resolve().parent.parent / "src" / "trifree"

UNREACHED = {
    "c5_to_c2": "public: ``reduce`` refuses C5 and names this conversion; the tracer wraps it",
    "disk_subgraph": "the benchmark tracer wraps it by name",
    "embed_edges": "public constructor from an edge list; the tracer wraps it",
    "golden_expectations": "public; the benchmark workloads read the golden corpus with it",
    "golden_graphs": "public; the benchmark workloads read the golden corpus with it",
    "is_independent_set": "public predicate; the tracer wraps it",
    "lift": "public copying form of a step's ``lift_into``",
    "reduce": "public graph-level reduction; tests and the tracer call it, and ``solve`` "
              "reduces its pieces in place",
}

MOVED = ("avoiding_independent_set", "diamond_project", "diamond_reduce")


def unreached():
    """The functions, classes and methods of ``src/trifree`` that no package
    code reaches, dunder methods aside."""
    modules = {path.stem for path in SRC.glob("*.py")}
    defined, read, attributes = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, id(node) in methods))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                read.update(alias.name for alias in node.names)
    return {name for name, is_method in defined
            if name not in (read | attributes if is_method else read)
            and not (name.startswith("__") and name.endswith("__"))}


def test_only_pinned_code_is_unreached():
    assert unreached() == set(UNREACHED)


def test_test_only_diamond_code_left_the_package():
    # the face-avoiding set is the reference in the tests' oracles, and the
    # graph-level replacement and projection serve only the tests
    for name in MOVED:
        assert name not in trifree.__all__
        assert not hasattr(trifree, name) and not hasattr(extremal, name)
