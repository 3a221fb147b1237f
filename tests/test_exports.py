import importlib
import pkgutil
import types

import casebias

# cli is the command-line entry point and __main__ runs it on import; neither
# is part of the library surface.
MODULES = [
    importlib.import_module(f"casebias.{info.name}")
    for info in pkgutil.iter_modules(casebias.__path__)
    if info.name not in ("cli", "__main__")
]


def test_every_module_export_is_a_package_name():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(casebias, name, None) is getattr(module, name), (module.__name__, name)


def test_every_public_package_name_belongs_to_a_module_all():
    public = {
        name
        for name, value in vars(casebias).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*(module.__all__ for module in MODULES))
