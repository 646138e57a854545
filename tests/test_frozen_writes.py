"""A checked object is written only while it is built, and copied whole in one place.

The package's checked objects are frozen dataclasses. ``object.__setattr__``
may write one only inside a ``__post_init__``, or inside
``games._store_floats``, which only a ``__post_init__`` calls. A copy that
skips the checks (``object.__new__`` and ``__dict__``) is made only by
``graphs._with``, which takes every field of its template.
"""
import ast
from pathlib import Path

import fdtsim

SOURCES = sorted(Path(fdtsim.__file__).parent.glob("*.py"))


def nodes_by_function(tree, function=""):
    """Each node under ``tree`` with the name of the innermost function around it ("" at module level)."""
    for child in ast.iter_child_nodes(tree):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield child, inner
        yield from nodes_by_function(child, inner)


def places(match):
    """The (module, function) pairs in the package whose code holds a node that ``match`` accepts."""
    return {(path.stem, function) for path in SOURCES
            for node, function in nodes_by_function(ast.parse(path.read_text())) if match(node)}


def is_object_attribute(name):
    return lambda node: (isinstance(node, ast.Attribute) and node.attr == name
                         and isinstance(node.value, ast.Name) and node.value.id == "object")


def test_frozen_objects_are_written_only_by_their_constructors():
    writers = places(is_object_attribute("__setattr__"))
    assert writers and all(function == "__post_init__" or (module, function) == ("games", "_store_floats")
                           for module, function in writers)
    callers = places(lambda node: isinstance(node, ast.Name) and node.id == "_store_floats")
    assert callers and {function for _, function in callers} == {"__post_init__"}


def test_only_graphs_with_copies_an_object_past_its_constructor():
    raw = places(is_object_attribute("__new__")) | places(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "__dict__")
    assert raw == {("graphs", "_with")}
