import importlib
import pkgutil

import cknlab


def test_every_exported_name_resolves():
    modules = [cknlab] + [
        importlib.import_module(f"cknlab.{info.name}") for info in pkgutil.iter_modules(cknlab.__path__)
    ]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
