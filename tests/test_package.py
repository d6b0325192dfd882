"""Package surface: the lazy export table agrees with each submodule's
``__all__``, every module-level import is used, and every name an ``__all__``
lists is read by the code that runs."""

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


# "module.name" of each name in a submodule's ``__all__`` that nothing outside
# its own definition reads, with the reason it stays public.
UNREAD_EXPORTS_ALLOWED: dict[str, str] = {}


def _reads(path, module=None) -> set:
    """(name, owner) of each name the file loads or imports from voxtherm. The
    owner is (module, name) of the top-level ``def`` or ``class`` holding the
    read when ``module`` is given, else None."""
    reads = set()
    for stmt in ast.parse(path.read_text()).body:
        owner = None
        if module and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            owner = (module, stmt.name)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add((node.id, owner))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add((node.attr, owner))
            elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "voxtherm"
            ):
                reads.update((alias.name, owner) for alias in node.names)
    return reads


def test_every_name_in_a_submodules_all_is_read():
    """Each name a submodule's ``__all__`` lists is read in ``src/voxtherm``
    outside its own ``def`` or ``class`` body, in ``perfbench/``, or in the
    acceptance criteria. The strings of the lazy export table are no reads."""
    package = Path(voxtherm.__file__).parent
    root = package.parent.parent
    reads = set()
    for path in package.glob("*.py"):
        reads |= _reads(path, path.stem)
    for path in [*(root / "perfbench").glob("*.py"), root / "tests" / "test_acceptance.py"]:
        reads |= _reads(path)
    unread = {
        f"{module}.{name}"
        for module in voxtherm._SUBMODULES
        for name in importlib.import_module(f"voxtherm.{module}").__all__
        if not any(read == name and owner != (module, name) for read, owner in reads)
    }
    assert unread == set(UNREAD_EXPORTS_ALLOWED), (
        f"unread: {sorted(unread - set(UNREAD_EXPORTS_ALLOWED))}, "
        f"allowed but read: {sorted(set(UNREAD_EXPORTS_ALLOWED) - unread)}"
    )
