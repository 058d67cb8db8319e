"""The package's public surface, and the names others reach inside it."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import lambdah

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(lambdah.__file__).parent


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


def _tracing(monkeypatch):
    """The benchmark tracer's module, loaded without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_patch_point_of_the_benchmark_tracer_resolves(monkeypatch):
    # the traced benchmark replaces these names in their calling modules;
    # one that no longer exists would only fail there
    tracing = _tracing(monkeypatch)
    assert tracing.BOUNDARIES
    for module_name, attr, *_ in tracing.BOUNDARIES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        if path == PACKAGE / "__init__.py":  # its imports are the re-exports
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert unused == []


def test_every_import_kept_for_the_tracer_is_one_it_patches(monkeypatch):
    # an import marked unused stays only so that a tracer row resolves;
    # once the row is gone, so is the reason to keep the import
    rows = {(module, attr) for module, attr, *_ in _tracing(monkeypatch).BOUNDARIES}
    kept = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                kept += [(f"lambdah.{path.stem}", a.asname or a.name) for a in node.names]
    assert [row for row in kept if row not in rows] == []
