"""voxtherm: G-code print schedules and adaptive-octree thermal simulation.

Submodules import lazily so the CLI can cap BLAS/OpenMP thread pools
through environment variables before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "GcodeError": "gcode",
    "GcodeParseError": "gcode",
    "UnsupportedCommandError": "gcode",
    "Toolpath": "gcode",
    "ToolpathSegment": "gcode",
    "parse_gcode": "gcode",
    "ScheduleError": "schedule",
    "OutOfBoundsError": "schedule",
    "VoxelId": "schedule",
    "VoxelGrid": "schedule",
    "VoxelSchedule": "schedule",
    "SparsityPolicy": "schedule",
    "rasterize_segment": "schedule",
    "build_schedule": "schedule",
    "apply_sparsity": "schedule",
    "gen_test_schedule": "schedule",
    "format_gcode": "schedule",
    "format_schedule": "schedule",
    "parse_schedule": "schedule",
    "load_schedule": "schedule",
    "MeshError": "octree",
    "OctreeMesh": "octree",
    "MeshSnapshot": "octree",
    "FemError": "fem",
    "SolverError": "fem",
    "MaterialParams": "fem",
    "BoundarySpec": "fem",
    "ThermalState": "fem",
    "DriverError": "driver",
    "SimConfig": "driver",
    "SimReport": "driver",
    "run": "driver",
    "compare_sparsity": "driver",
    "response_mean": "driver",
    "ConfigError": "config",
    "parse_config": "config",
    "load_config": "config",
    "dump_config": "config",
    "save_config": "config",
    "format_vtk": "output",
    "write_vtk": "output",
    "read_vtk": "output",
    "format_report": "output",
    "write_report": "output",
    "parse_report": "output",
}

_SUBMODULES = ("gcode", "schedule", "octree", "fem", "driver", "config", "output", "cli")

__all__ = ["__version__", *sorted(_EXPORTS), *_SUBMODULES]


def __getattr__(name):
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
