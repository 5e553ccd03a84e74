"""Packaging metadata sanity: the `repro` console script must stay wired.

The real `pip install -e .` happens in CI's distributed-e2e job (this
container has no package index); these tests pin everything that install
depends on — valid TOML, a resolvable entry point, the src layout and the
dynamic version attribute — so a packaging regression fails tier-1, not
just CI.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import tomllib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.fixture(scope="module")
def pyproject():
    return tomllib.loads((REPO / "pyproject.toml").read_text())


def test_console_script_target_resolves(pyproject):
    target = pyproject["project"]["scripts"]["repro"]
    module_name, _, attribute = target.partition(":")
    module = importlib.import_module(module_name)
    entry = getattr(module, attribute)
    assert callable(entry)


def test_src_layout_is_declared(pyproject):
    assert pyproject["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    assert (REPO / "src" / "repro" / "__init__.py").is_file()


def test_version_is_dynamic_and_importable(pyproject):
    assert "version" in pyproject["project"]["dynamic"]
    attr = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module_name, _, attribute = attr.rpartition(".")
    version = getattr(importlib.import_module(module_name), attribute)
    assert isinstance(version, str) and version


def test_runtime_dependencies_match_reality(pyproject):
    deps = set(pyproject["project"]["dependencies"])
    assert deps == {"numpy", "scipy"}


def _repro_imports(path):
    """``(module, name)`` for every import of ``repro``/``repro.*`` in a
    source file (``name`` is ``None`` for a plain ``import``)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro" or node.module.startswith("repro."):
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield alias.name, None


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    """No test runs the examples, so at least every ``repro`` name they
    import must exist (a removed API would otherwise break them silently)."""
    for module_name, name in _repro_imports(path):
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        # `from repro.pkg import submodule` resolves by importing it.
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{path.name} imports {name!r} from {module_name}, which has none")


LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.distributed",
    "repro.montecarlo",
    "repro.backends",
    "repro.scenarios",
    "repro.service",
    "repro.obs",
)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve(package):
    """Every name a package advertises in ``__all__`` resolves, so a
    deleted module cannot leave a stale lazy export behind."""
    module = importlib.import_module(package)
    assert module.__all__
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{package}.{name}"
