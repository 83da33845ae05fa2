"""The package's public surface: ``exprabelo.__all__`` against the names that
``exprabelo/__init__.py`` binds from its submodules."""

from __future__ import annotations

import ast
import inspect

import exprabelo


def test_public_surface_matches_all():
    listed = exprabelo.__all__
    assert len(set(listed)) == len(listed)
    namespace = {}
    exec("from exprabelo import *", namespace)  # fails on a listed name that is not bound
    assert set(listed) <= set(namespace)
    tree = ast.parse(inspect.getsource(exprabelo))
    bound = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert bound, "no submodule imports found in exprabelo/__init__.py"
    assert {name for name in bound if not name.startswith("_")} <= set(listed)
