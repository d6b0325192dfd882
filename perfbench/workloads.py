"""Benchmark workloads and their seeded G-code inputs.

Every workload is a solid on a voxel grid, written out as serpentine raster
G-code by this module (not by voxtherm's own generator, so the inputs stay
fixed when the program changes). The seed only translates the solid by whole
voxels in x and y: the voxel count, the layer structure and the deposition
pattern stay the same, while the part sits differently against the octree.
Seed 0 is the untranslated placement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from voxtherm import gcode, schedule

DEFAULT_SEED = 0
SHIFT = 4  # seeded translations stay within [-SHIFT, SHIFT] voxels in x and y


@dataclass(frozen=True)
class Workload:
    """One benchmark case.

    ``kind`` is ``simulate`` (parse, schedule, ``driver.run`` with VTK and
    report output) or ``replay`` (the ``mesh-info`` octree replay only).
    ``shape`` is ``("sphere", radius, (cx, cy, cz))`` or
    ``("cuboid", (a, b, c), (ox, oy, oz))`` in voxel units at seed 0.
    ``voxels`` is the scheduled voxel count every seed must give, and
    ``sparsity`` names a ``SparsityPolicy`` constructor applied after
    voxelizing. Prints use the default ``SimConfig``. BENCHMARK.json and the
    README say why each workload exists.
    """

    name: str
    kind: str
    dims: tuple[int, int, int]
    shape: tuple
    voxels: int
    sparsity: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse_sphere32",
            kind="simulate",
            dims=(32, 32, 32),
            shape=("sphere", 8, (16, 16, 8)),
            voxels=1154,
            sparsity="medium",
        ),
        Workload(
            name="replay_sphere32",
            kind="replay",
            dims=(32, 32, 32),
            shape=("sphere", 10, (16, 16, 16)),
            voxels=4224,
        ),
    )
}


def placement(workload: Workload, seed: int) -> tuple[int, int]:
    """Whole-voxel x/y translation for a seed; seed 0 is untranslated."""
    if seed == DEFAULT_SEED:
        return 0, 0
    rng = random.Random(f"{workload.name}:{seed}")
    return rng.randint(-SHIFT, SHIFT), rng.randint(-SHIFT, SHIFT)


def part_cells(workload: Workload, seed: int) -> dict[int, dict[int, list[int]]]:
    """Occupied voxels as layer k -> row j -> sorted column indices i."""
    dx, dy = placement(workload, seed)
    kind, a, b = workload.shape
    out: dict[int, dict[int, list[int]]] = {}
    if kind == "sphere":
        r, (cx, cy, cz) = a, b
        cx, cy = cx + dx, cy + dy
        for k in range(cz - r, cz + r):
            for j in range(cy - r, cy + r):
                for i in range(cx - r, cx + r):
                    d2 = (i + 0.5 - cx) ** 2 + (j + 0.5 - cy) ** 2 + (k + 0.5 - cz) ** 2
                    if d2 < r * r:
                        out.setdefault(k, {}).setdefault(j, []).append(i)
    elif kind == "cuboid":
        (sa, sb, sc), (ox, oy, oz) = a, b
        ox, oy = ox + dx, oy + dy
        for k in range(oz, oz + sc):
            out[k] = {j: list(range(ox, ox + sa)) for j in range(oy, oy + sb)}
    else:
        raise ValueError(f"unknown shape {kind!r}")
    for k, rows in out.items():
        for j, row in rows.items():
            if min(row) < 0 or max(row) >= workload.dims[0] or not (
                0 <= j < workload.dims[1] and 0 <= k < workload.dims[2]
            ):
                raise ValueError(f"{workload.name} seed {seed}: part leaves the grid")
    return out


def serpentine(part: dict[int, dict[int, list[int]]]) -> list[tuple[int, int, int]]:
    """Deposition order the raster G-code produces: layers up, rows by j,
    columns alternating direction from row to row."""
    order = []
    for k in sorted(part):
        for rank, j in enumerate(sorted(part[k])):
            row = sorted(part[k][j])
            order.extend((i, j, k) for i in (row if rank % 2 == 0 else row[::-1]))
    return order


def raster_gcode(part: dict[int, dict[int, list[int]]]) -> str:
    """Raster G-code on a unit-voxel grid at the origin: one travel move to
    each row start and one extruding move along the row through voxel centres."""
    lines = ["; perfbench raster", "G90", "M82", "G21"]
    e = 0.0
    for k in sorted(part):
        for rank, j in enumerate(sorted(part[k])):
            row = sorted(part[k][j])
            i0, i1 = (row[0], row[-1]) if rank % 2 == 0 else (row[-1], row[0])
            lines.append(f"G0 X{i0 + 0.5} Y{j + 0.5} Z{k + 0.5}")
            e += max(abs(i1 - i0), 0.5)
            lines.append(f"G1 X{i1 + 0.5} Y{j + 0.5} Z{k + 0.5} E{e!r}")
    return "\n".join(lines) + "\n"


def prepare(workload: Workload, text: str):
    """The CLI's set-up path: parse the G-code, voxelize it, thin the infill."""
    toolpath = gcode.parse_gcode(text)
    grid = schedule.VoxelGrid(dims=workload.dims, voxel_size=1.0, origin=(0.0, 0.0, 0.0))
    sched = schedule.build_schedule(toolpath, grid)
    if workload.sparsity is not None:
        policy = getattr(schedule.SparsityPolicy, workload.sparsity)()
        sched = schedule.apply_sparsity(sched, policy)
    return toolpath, sched
