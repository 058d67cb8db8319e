"""The package's public surface."""

import ast
from pathlib import Path

import lambdah


def test_all_lists_exactly_the_public_names_the_package_imports():
    tree = ast.parse(Path(lambdah.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(lambdah.__all__) == len(set(lambdah.__all__))
    assert set(lambdah.__all__) == public
