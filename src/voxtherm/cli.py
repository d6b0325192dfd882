"""Command-line entry points: voxelize, simulate, gen, mesh-info.

Exit codes: 0 on success, 2 for usage errors (argparse), 1 for runtime
failures with a message naming the failing stage on stderr.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread unless the user set a pool's size. A threaded BLAS
# splits long dot products (OpenBLAS above 10,000 elements), which changes
# their rounding, so the solve's bytes would depend on the core count. The
# pools read these at library load, so set them before numpy/scipy import.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import argparse
from pathlib import Path

import numpy as np

from .config import load_config
from .driver import SimConfig, run
from .gcode import parse_gcode
from .octree import OctreeMesh
from .output import write_report, write_vtk
from .schedule import (
    VoxelGrid,
    build_schedule,
    format_gcode,
    format_schedule,
    gen_test_schedule,
    load_schedule,
    parse_schedule,
)

__all__ = ["main", "CliError"]


class CliError(Exception):
    """Failure with a user-facing message; main turns it into exit code 1."""


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CliError:
        raise
    except Exception as err:
        raise CliError(f"{name} failed: {err}") from err


def _read_text(path: str, stage: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return _stage(stage, lambda: Path(path).read_text())


def _write_text(path: str, text: str, stage: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    _stage(stage, lambda: Path(path).write_text(text))


def _grid_from_args(args) -> VoxelGrid:
    return _stage(
        "grid setup",
        VoxelGrid,
        dims=tuple(args.grid),
        voxel_size=args.voxel_size,
        origin=tuple(args.origin),
    )


def _cmd_voxelize(args) -> int:
    text = _read_text(args.gcode, "reading G-code")
    toolpath = _stage("G-code parsing", parse_gcode, text)
    grid = _grid_from_args(args)
    schedule = _stage("voxelization", build_schedule, toolpath, grid)
    _write_text(args.output, format_schedule(schedule), "writing schedule")
    print(f"voxelize: {len(schedule.order)} voxels", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    cfg = _stage("config loading", load_config, args.config) if args.config else SimConfig()
    schedule = _stage("schedule loading", load_schedule, args.schedule)
    outdir = Path(args.output)
    _stage("output directory setup", outdir.mkdir, parents=True, exist_ok=True)

    def sink(tag, mesh, state):
        _stage("snapshot writing", write_vtk, mesh, state, outdir / f"snapshot_{tag}.vtk")

    _, report = _stage("simulation", run, schedule, cfg, sink)
    _stage("report writing", write_report, report, outdir / "report.csv")
    print(
        f"simulate: {report.n_voxels} voxels, final mean active T "
        f"{report.final_mean:.6g}, {report.wall_s:.1f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_gen(args) -> int:
    grid = _grid_from_args(args)
    kwargs = {}
    if args.shape == "cuboid":
        if args.dims is None:
            raise CliError("shape setup failed: cuboid requires --dims A B C")
        kwargs["dims"] = tuple(args.dims)
        kwargs["offset"] = tuple(args.offset)
    else:
        if args.radius is None:
            raise CliError("shape setup failed: sphere requires --radius R")
        kwargs["radius"] = args.radius
        if args.center is not None:
            kwargs["center"] = tuple(args.center)
    schedule = _stage("shape generation", gen_test_schedule, args.shape, grid, **kwargs)
    text = format_gcode(schedule) if args.emit == "gcode" else format_schedule(schedule)
    _write_text(args.output, text, "writing output")
    return 0


def _cmd_mesh_info(args) -> int:
    if args.schedule == "-":
        schedule = _stage("schedule loading", parse_schedule, sys.stdin.read(), "<stdin>")
    else:
        schedule = _stage("schedule loading", load_schedule, args.schedule)

    def replay():
        mesh = OctreeMesh.from_grid(schedule.grid, base_level=args.base_level)
        for v in schedule.order:
            mesh.refine_to_voxel(v)
        mesh.classify(schedule.order)
        return mesh

    mesh = _stage("mesh replay", replay)
    dims = "x".join(str(d) for d in schedule.grid.dims)
    print(f"grid {dims} voxel_size {schedule.grid.voxel_size!r}")
    print(f"voxels {len(schedule.order)}")
    print(f"leaves {len(mesh)}")
    print(f"nodes {len(mesh.node_coords)}")
    print(f"active {int(mesh.active.sum())}")
    levels, counts = np.unique(mesh.levels, return_counts=True)
    for lvl, cnt in zip(levels.tolist(), counts.tolist()):
        print(f"level {lvl}: {cnt} leaves")
    if args.dump:
        sys.stdout.write(mesh.dump())
    return 0


def _add_grid_options(p) -> None:
    p.add_argument("--grid", nargs=3, type=int, required=True,
                   metavar=("NX", "NY", "NZ"), help="voxel grid dimensions")
    p.add_argument("--voxel-size", type=float, default=1.0,
                   help="voxel edge length in G-code units (default 1.0)")
    p.add_argument("--origin", nargs=3, type=float, default=(0.0, 0.0, 0.0),
                   metavar=("X", "Y", "Z"), help="grid origin in G-code units")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxtherm",
        description="G-code to voxel print schedules and transient thermal simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("voxelize", help="convert G-code to a voxel schedule")
    p.add_argument("gcode", help="G-code file, or - for stdin")
    _add_grid_options(p)
    p.add_argument("-o", "--output", required=True, help="schedule file, or - for stdout")
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("simulate", help="run the thermal simulation on a schedule")
    p.add_argument("--schedule", required=True, help="schedule file from voxelize/gen")
    p.add_argument("--config", help="run configuration file (defaults when omitted)")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gen", help="generate schedules or raster G-code for test solids")
    p.add_argument("--shape", choices=("cuboid", "sphere"), required=True)
    p.add_argument("--dims", nargs=3, type=int, metavar=("A", "B", "C"),
                   help="cuboid extents in voxels")
    p.add_argument("--offset", nargs=3, type=int, default=(0, 0, 0),
                   metavar=("I", "J", "K"), help="cuboid placement in voxels")
    p.add_argument("--radius", type=float, help="sphere radius in voxels")
    p.add_argument("--center", nargs=3, type=float, metavar=("X", "Y", "Z"),
                   help="sphere center in voxels (default: grid center)")
    _add_grid_options(p)
    p.add_argument("--emit", choices=("schedule", "gcode"), default="schedule")
    p.add_argument("-o", "--output", required=True, help="output file, or - for stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("mesh-info", help="replay a schedule and describe the final mesh")
    p.add_argument("schedule", help="schedule file, or - for stdin")
    p.add_argument("--base-level", type=int, default=2)
    p.add_argument("--dump", action="store_true", help="print one line per leaf")
    p.set_defaults(func=_cmd_mesh_info)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else 0
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # keep tracebacks out of normal CLI usage
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
