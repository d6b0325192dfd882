"""Package surface: the lazy export table agrees with each submodule's
``__all__``, and every module-level import is used."""

import ast
import importlib
from pathlib import Path

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


def test_no_module_level_import_is_unused():
    """Each name a module-level import binds in ``src/voxtherm`` is read in
    its module or listed in its ``__all__``. ``__future__`` imports, and the
    imports inside ``if TYPE_CHECKING:``, which is not module level, are exempt."""
    unused = []
    for path in sorted(Path(voxtherm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = "voxtherm" if path.stem == "__init__" else f"voxtherm.{path.stem}"
        read |= set(getattr(importlib.import_module(module), "__all__", ()))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, unused
