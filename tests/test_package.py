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


def test_no_module_imports_a_name_it_never_uses():
    # an import that no line reads is dead code (there is no pyflakes
    # here); __init__.py's imports are its re-exports, and a
    # ``from __future__`` import is a compiler directive
    sources = sorted(Path(semishot.__file__).parent.glob("*.py"))
    unused = []
    for path in sources:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_private_module_name_has_a_reader():
    # a module-level private function, class or constant that no line of
    # the package reads outside its own definition is a helper that a
    # deletion left behind; tests do not count as readers
    sources = sorted(Path(semishot.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named = [(node.name, node)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                named = [(target.id, None) for target in targets
                         if isinstance(target, ast.Name)]
            else:
                continue
            for name, body in named:
                if name.startswith("_") and not name.endswith("__"):
                    defined[(module, name)] = body
    unread = []
    for (module, name), body in defined.items():
        inside = set() if body is None else {id(node) for node in ast.walk(body)}
        if not any((isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load))
                   or (isinstance(node, ast.Attribute) and node.attr == name)
                   for tree in trees.values() for node in ast.walk(tree)
                   if id(node) not in inside):
            unread.append(f"{module} {name}")
    assert unread == []
