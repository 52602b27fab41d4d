import ast
import importlib
import pkgutil
import sys
import types
from pathlib import Path

import semishot


SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(semishot.__path__))


def test_submodules_are_listed():
    assert {"transport", "zeroshot", "solvers"} <= set(SUBMODULES)
    assert "sinkhorn" not in SUBMODULES


def test_every_submodule_imports_under_its_own_name():
    # an exported function named like its module would shadow it as a
    # package attribute, and ``import semishot.<name> as m`` would bind
    # the function
    for name in SUBMODULES:
        module = importlib.import_module(f"semishot.{name}")
        assert isinstance(module, types.ModuleType), name
        assert getattr(semishot, name) is module, name
    import semishot.transport as transport
    assert isinstance(transport, types.ModuleType)


def test_no_exported_name_is_a_submodule_name():
    assert not set(semishot.__all__) & set(SUBMODULES)


def test_exports_match_the_public_names():
    # a name removed from a module but left in __init__ fails the import
    # itself; one left only in __all__, or one imported but not listed,
    # fails here
    exported = semishot.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(semishot, name), name
    public = {name for name, value in vars(semishot).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(exported)
    namespace = {}
    exec("from semishot import *", namespace)
    assert set(exported) <= namespace.keys()


def test_package_imports_only_the_standard_library_and_numpy():
    # the package depends on NumPy alone; an absolute import of anything
    # else (scipy, numba, ...) would add a dependency
    allowed = sys.stdlib_module_names | {"numpy"}
    sources = sorted(Path(semishot.__file__).parent.glob("*.py"))
    assert len(sources) == len(SUBMODULES) + 1  # with __init__.py
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
