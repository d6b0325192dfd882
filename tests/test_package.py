"""Package surface: the lazy export table agrees with each submodule's ``__all__``."""

import importlib

import voxtherm


def test_every_export_resolves_and_is_in_its_modules_all():
    for name, module in voxtherm._EXPORTS.items():
        mod = importlib.import_module(f"voxtherm.{module}")
        assert name in mod.__all__, f"{name} not in voxtherm.{module}.__all__"
        assert getattr(voxtherm, name) is getattr(mod, name)


def test_every_name_in_a_submodules_all_exists():
    for module in voxtherm._SUBMODULES:
        mod = getattr(voxtherm, module)
        assert mod is importlib.import_module(f"voxtherm.{module}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"voxtherm.{module}.__all__ names missing {missing}"
    assert all(hasattr(voxtherm, name) for name in voxtherm.__all__)
