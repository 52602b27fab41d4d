import importlib
import pkgutil
import types

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
