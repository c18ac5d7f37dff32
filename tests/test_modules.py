"""The boundaries between the package's modules, read from their source and their public signatures."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import dickeprep
from dickeprep import symfunc, symstate

SOURCES = sorted(Path(dickeprep.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
EXACT_LAYERS = ("krawtchouk.py", "symfunc.py")  # plain Python integers, no float arrays


def imports(path):
    """(module, name) of every import in the file; module is "." + name for a relative one."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            out += [(module, alias.name) for alias in node.names]
    return out


def test_package_root_binds_only_modules():
    # each public name has one home, its module's __all__; the root re-exports none
    assert [name for name, value in vars(dickeprep).items()
            if not name.startswith("__") and not inspect.ismodule(value)] == []
    from dickeprep import krawtchouk
    assert inspect.ismodule(krawtchouk) and krawtchouk.__name__ == "dickeprep.krawtchouk"
    assert [p.stem for p in SOURCES if p.stem != "__init__"
            and not hasattr(importlib.import_module(f"dickeprep.{p.stem}"), "__all__")] == []


def test_sources_found():
    assert {"krawtchouk.py", "symfunc.py", "symstate.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_from_a_sibling(path):
    # a name that two modules share is public in the one that defines it; dunders such as __version__ are not private
    private = [(module, name) for module, name in imports(path)
               if (module.startswith(".") or module.split(".")[0] == "dickeprep")
               and name is not None and name.startswith("_") and not name.endswith("__")]
    assert private == []


@pytest.mark.parametrize("name", EXACT_LAYERS)
def test_exact_layers_import_no_numpy(name):
    path = Path(dickeprep.__file__).parent / name
    assert [module for module, _ in imports(path) if module.split(".")[0] == "numpy"] == []


@pytest.mark.parametrize("module", [symfunc, symstate], ids=lambda m: m.__name__)
def test_no_public_function_takes_binomials(module):
    # each function walks its own binomials, so no caller can hand it a wrong list
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj):
            params = inspect.signature(obj).parameters
            assert not [p for p in params if "binom" in p.lower()], name


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_cache_bypass(path):
    # a cached function has one job: work wanted without its cache is a plain function of its own
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__wrapped__"] == []
