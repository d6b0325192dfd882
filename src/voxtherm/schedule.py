"""Voxel print schedules: toolpath rasterization, sparsity, generators.

The print schedule is the deposition order of voxels. Extruding toolpath
segments are rasterized by sampling points every half voxel edge along
the segment (endpoints included) and flooring into the grid; the global
schedule keeps the first occurrence of each voxel. Half-edge sampling
visits every voxel along axis-aligned motion; oblique segments that clip
a voxel corner more briefly than the sampling step may skip it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gcode import Toolpath, ToolpathSegment, parse_gcode

__all__ = [
    "VoxelId",
    "VoxelGrid",
    "VoxelSchedule",
    "SparsityPolicy",
    "ScheduleError",
    "OutOfBoundsError",
    "rasterize_segment",
    "build_schedule",
    "apply_sparsity",
    "gen_test_schedule",
    "format_schedule",
    "parse_schedule",
    "save_schedule",
    "load_schedule",
]


class ScheduleError(ValueError):
    """Schedule construction or file-format failure."""


class OutOfBoundsError(ScheduleError):
    """Toolpath geometry outside the voxel grid."""


class VoxelId(NamedTuple):
    i: int
    j: int
    k: int


@dataclass(frozen=True)
class VoxelGrid:
    """Axis-aligned grid of cubic voxels; one voxel edge is 1 non-dim unit."""

    dims: tuple[int, int, int]
    voxel_size: float = 1.0
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(d) != d or d < 1 for d in self.dims):
            raise ScheduleError(f"grid dims must be positive integers, got {self.dims}")
        if not (0 < self.voxel_size < math.inf):
            raise ScheduleError(f"voxel_size must be positive and finite, got {self.voxel_size}")
        if not all(math.isfinite(o) for o in self.origin):
            raise ScheduleError(f"origin must be finite, got {self.origin}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        object.__setattr__(self, "voxel_size", float(self.voxel_size))

    @property
    def n_voxels(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def octree_level(self) -> int:
        """Depth of the tight power-of-two bounding cube: 2**level >= max dim."""
        return max(0, math.ceil(math.log2(max(self.dims))))

    def contains_point(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        lo = np.asarray(self.origin)
        hi = lo + np.asarray(self.dims) * self.voxel_size
        return bool(np.all(p >= lo) and np.all(p <= hi))

    def center(self, v: VoxelId) -> np.ndarray:
        return np.asarray(self.origin) + (np.asarray(v) + 0.5) * self.voxel_size

    def in_bounds(self, v: VoxelId) -> bool:
        return all(0 <= c < d for c, d in zip(v, self.dims))


@dataclass
class VoxelSchedule:
    """Deposition order over a grid; every voxel appears at most once."""

    grid: VoxelGrid
    order: list[VoxelId] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.order)

    @property
    def nz_used(self) -> int:
        """Highest populated layer index plus one (0 for empty schedules)."""
        return max((v.k for v in self.order), default=-1) + 1

    def validate(self) -> None:
        seen = set()
        for v in self.order:
            if v in seen:
                raise ScheduleError(f"duplicate voxel {v} in schedule")
            if not self.grid.in_bounds(v):
                raise ScheduleError(f"voxel {v} outside grid {self.grid.dims}")
            seen.add(v)


def rasterize_segment(seg: ToolpathSegment, grid: VoxelGrid) -> list[VoxelId]:
    """Voxels visited by one extruding segment, consecutive duplicates removed.

    Samples equidistant points along the segment no further apart than half
    a voxel edge, both endpoints included.
    """
    if not seg.extruding:
        raise ScheduleError(f"segment {seg.start}->{seg.end} is not extruding")
    start = np.asarray(seg.start, dtype=float)
    end = np.asarray(seg.end, dtype=float)
    for name, p in (("start", start), ("end", end)):
        if not grid.contains_point(p):
            raise OutOfBoundsError(
                f"segment {seg.start}->{seg.end}: {name} point outside grid"
            )

    length = float(np.linalg.norm(end - start))
    n = max(1, math.ceil(2.0 * length / grid.voxel_size))
    ts = np.linspace(0.0, 1.0, n + 1)
    pts = start[None, :] + ts[:, None] * (end - start)[None, :]
    idx = np.floor((pts - np.asarray(grid.origin)) / grid.voxel_size).astype(np.int64)
    np.clip(idx, 0, np.asarray(grid.dims) - 1, out=idx)

    out: list[VoxelId] = []
    for row in idx:
        v = VoxelId(int(row[0]), int(row[1]), int(row[2]))
        if not out or out[-1] != v:
            out.append(v)
    return out


def build_schedule(tp: Toolpath, grid: VoxelGrid) -> VoxelSchedule:
    """Global first-visit deposition order over all extruding segments."""
    order: list[VoxelId] = []
    seen: set[VoxelId] = set()
    for seg in tp.segments:
        if not seg.extruding:
            continue
        for v in rasterize_segment(seg, grid):
            if v not in seen:
                seen.add(v)
                order.append(v)
    return VoxelSchedule(grid=grid, order=order)


@dataclass(frozen=True)
class SparsityPolicy:
    """Row-thinning transform over a mid-height band of layers.

    Layers with ``band_lo*nz_used <= k <= band_hi*nz_used`` keep only every
    (skip+1)-th infill row; with ``preserve_row_ends`` the first and last
    voxel of each dropped row survive so the shell stays closed.
    """

    band_lo: float = 0.0
    band_hi: float = 1.0
    skip: int = 0
    preserve_row_ends: bool = True

    def __post_init__(self):
        if not (0.0 <= self.band_lo <= self.band_hi <= 1.0):
            raise ScheduleError(f"invalid band [{self.band_lo}, {self.band_hi}]")
        if self.skip < 0:
            raise ScheduleError(f"skip must be >= 0, got {self.skip}")

    @classmethod
    def none(cls) -> "SparsityPolicy":
        return cls(skip=0)

    @classmethod
    def medium(cls, skip: int = 3) -> "SparsityPolicy":
        """Thin the middle 50% of layers."""
        return cls(band_lo=0.25, band_hi=0.75, skip=skip)

    @classmethod
    def high(cls, skip: int = 3) -> "SparsityPolicy":
        """Thin the middle 75% of layers."""
        return cls(band_lo=0.125, band_hi=0.875, skip=skip)


def apply_sparsity(schedule: VoxelSchedule, policy: SparsityPolicy) -> VoxelSchedule:
    """Drop infill rows inside the policy band, preserving relative order."""
    if policy.skip == 0 or not schedule.order:
        return VoxelSchedule(schedule.grid, list(schedule.order))

    nz = schedule.nz_used
    lo, hi = policy.band_lo * nz, policy.band_hi * nz

    rows_by_layer: dict[int, list[int]] = {}
    for v in schedule.order:
        if lo <= v.k <= hi:
            js = rows_by_layer.setdefault(v.k, [])
            if v.j not in js:
                js.append(v.j)
    row_rank = {
        (k, j): rank
        for k, js in rows_by_layer.items()
        for rank, j in enumerate(sorted(js))
    }

    first_last: dict[tuple[int, int], tuple[int, int]] = {}
    for pos, v in enumerate(schedule.order):
        key = (v.k, v.j)
        if key in row_rank:
            f, _ = first_last.get(key, (pos, pos))
            first_last[key] = (f, pos)

    kept: list[VoxelId] = []
    for pos, v in enumerate(schedule.order):
        key = (v.k, v.j)
        rank = row_rank.get(key)
        if rank is None or rank % (policy.skip + 1) == 0:
            kept.append(v)
        elif policy.preserve_row_ends and pos in first_last[key]:
            kept.append(v)
    return VoxelSchedule(schedule.grid, kept)


# --- procedural generators -------------------------------------------------


def _boustrophedon(cells: dict[int, dict[int, list[int]]]) -> list[VoxelId]:
    """Layer-by-layer serpentine order: k ascending, rows by j, i alternating."""
    order: list[VoxelId] = []
    for k in sorted(cells):
        for rank, j in enumerate(sorted(cells[k])):
            row = sorted(cells[k][j])
            if rank % 2 == 1:
                row = row[::-1]
            order.extend(VoxelId(i, j, k) for i in row)
    return order


def _cuboid_cells(grid: VoxelGrid, dims, offset) -> dict:
    a, b, c = (int(d) for d in dims)
    ox, oy, oz = (int(o) for o in offset)
    if a < 1 or b < 1 or c < 1:
        raise ScheduleError(f"cuboid dims must be positive, got {dims}")
    hi = (ox + a, oy + b, oz + c)
    if ox < 0 or oy < 0 or oz < 0 or any(h > d for h, d in zip(hi, grid.dims)):
        raise ScheduleError(f"cuboid {dims} at offset {offset} exceeds grid {grid.dims}")
    return {
        k: {j: list(range(ox, ox + a)) for j in range(oy, oy + b)}
        for k in range(oz, oz + c)
    }


def _sphere_cells(grid: VoxelGrid, radius: float, center) -> dict:
    ctr = np.asarray(grid.dims, float) / 2.0 if center is None else np.asarray(center, float)
    if not (0 < radius < math.inf and np.isfinite(ctr).all()):
        raise ScheduleError(f"sphere radius must be positive and finite and its centre finite, "
                            f"got r={radius} at {tuple(ctr.tolist())}")
    cells: dict[int, dict[int, list[int]]] = {}
    lo = np.floor(ctr - radius - 1).astype(int)
    hi = np.ceil(ctr + radius + 1).astype(int)
    for k in range(lo[2], hi[2]):
        for j in range(lo[1], hi[1]):
            for i in range(lo[0], hi[0]):
                d = np.array([i + 0.5, j + 0.5, k + 0.5]) - ctr
                if float(d @ d) < radius * radius:
                    if not grid.in_bounds(VoxelId(i, j, k)):
                        raise ScheduleError(
                            f"sphere r={radius} at {tuple(ctr)} exceeds grid {grid.dims}"
                        )
                    cells.setdefault(k, {}).setdefault(j, []).append(i)
    return cells


def _cells_to_gcode(cells: dict, grid: VoxelGrid) -> str:
    """Serpentine raster G-code visiting the same voxels in the same order."""
    dx = grid.voxel_size
    lines = ["; voxtherm raster", "G90", "M82", "G21"]
    e = 0.0

    def fmt(p) -> str:
        return f"X{float(p[0])!r} Y{float(p[1])!r} Z{float(p[2])!r}"

    for k in sorted(cells):
        for rank, j in enumerate(sorted(cells[k])):
            row = sorted(cells[k][j])
            i0, i1 = (row[0], row[-1]) if rank % 2 == 0 else (row[-1], row[0])
            start = tuple(grid.center(VoxelId(i0, j, k)))
            end = tuple(grid.center(VoxelId(i1, j, k)))
            lines.append(f"G0 {fmt(start)}")
            e += max(abs(i1 - i0) * dx, 0.5 * dx)
            lines.append(f"G1 {fmt(end)} E{e!r}")
    return "\n".join(lines) + "\n"


def gen_test_schedule(
    shape: str,
    grid: VoxelGrid,
    *,
    dims=None,
    offset=(0, 0, 0),
    radius: float | None = None,
    center=None,
    base_shape: str = "cuboid",
):
    """Procedural schedules (and equivalent raster G-code) for known solids.

    ``shape`` is ``cuboid``, ``sphere`` or ``raster_gcode``; the last returns
    G-code text rastering ``base_shape`` so the parse -> schedule path can be
    exercised end to end.
    """
    if shape == "cuboid":
        if dims is None:
            raise ScheduleError("cuboid requires dims")
        return VoxelSchedule(grid, _boustrophedon(_cuboid_cells(grid, dims, offset)))
    if shape == "sphere":
        if radius is None:
            raise ScheduleError("sphere requires radius")
        return VoxelSchedule(grid, _boustrophedon(_sphere_cells(grid, radius, center)))
    if shape == "raster_gcode":
        if base_shape == "cuboid":
            if dims is None:
                raise ScheduleError("cuboid requires dims")
            cells = _cuboid_cells(grid, dims, offset)
        elif base_shape == "sphere":
            if radius is None:
                raise ScheduleError("sphere requires radius")
            cells = _sphere_cells(grid, radius, center)
        else:
            raise ScheduleError(f"unknown base shape {base_shape!r}")
        return _cells_to_gcode(cells, grid)
    raise ScheduleError(f"unknown shape {shape!r}")


# --- schedule file format ---------------------------------------------------


def format_schedule(schedule: VoxelSchedule) -> str:
    """Text format: one header line, then one voxel id per line."""
    g = schedule.grid
    lines = [
        f"grid {g.dims[0]} {g.dims[1]} {g.dims[2]} "
        f"{g.voxel_size!r} {g.origin[0]!r} {g.origin[1]!r} {g.origin[2]!r}"
    ]
    lines.extend(f"{v.i} {v.j} {v.k}" for v in schedule.order)
    return "\n".join(lines) + "\n"


def save_schedule(schedule: VoxelSchedule, path) -> None:
    with open(path, "w") as f:
        f.write(format_schedule(schedule))


def parse_schedule(text: str, source: str = "<schedule>") -> VoxelSchedule:
    lines = text.splitlines()
    path = source
    if not lines or not lines[0].startswith("grid "):
        raise ScheduleError(f"{path}: missing 'grid' header line")
    parts = lines[0].split()
    if len(parts) != 8:
        raise ScheduleError(f"{path}: malformed grid header {lines[0]!r}")
    grid = VoxelGrid(
        dims=(int(parts[1]), int(parts[2]), int(parts[3])),
        voxel_size=float(parts[4]),
        origin=(float(parts[5]), float(parts[6]), float(parts[7])),
    )
    order: list[VoxelId] = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            i, j, k = (int(tok) for tok in line.split())
        except ValueError:
            raise ScheduleError(f"{path}:{ln}: malformed voxel line {line!r}") from None
        order.append(VoxelId(i, j, k))
    sched = VoxelSchedule(grid, order)
    sched.validate()
    return sched


def load_schedule(path) -> VoxelSchedule:
    with open(path) as f:
        return parse_schedule(f.read(), source=str(path))
