import importlib
import pkgutil

import fermicov


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(fermicov.__path__):
        module = importlib.import_module(f"fermicov.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"fermicov.{info.name}.__all__ names missing objects: {missing}"


def test_star_imports():
    namespace = {}
    exec("from fermicov import *", namespace)
    assert "BoundInstance" in namespace and "quotient_space" in namespace
    for info in pkgutil.iter_modules(fermicov.__path__):
        exec(f"from fermicov.{info.name} import *", {})
