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
from itertools import groupby
from typing import NamedTuple

import numpy as np

from ._checks import check_fields, holds, is_integer, is_number, plain
from .gcode import Toolpath, ToolpathSegment
from .octree import MAX_LEVEL

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
    "format_gcode",
    "format_schedule",
    "parse_schedule",
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
        dims, size, origin = plain(self.dims), plain(self.voxel_size), plain(self.origin)
        if not holds(lambda: len(self.dims) == 3
                     and all(is_number(d) and int(d) == d and d >= 1 for d in self.dims)):
            raise ScheduleError(f"grid dims must be positive integers, got {dims}")
        if any(int(d) > 1 << MAX_LEVEL for d in self.dims):  # the octree's limit
            raise ScheduleError(f"grid dims must be at most {1 << MAX_LEVEL}, got {dims}")
        if not holds(lambda: is_number(self.voxel_size) and math.isfinite(self.voxel_size)
                     and self.voxel_size > 0):
            raise ScheduleError(f"voxel_size must be positive and finite, got {size}")
        if not holds(lambda: len(self.origin) == 3):
            raise ScheduleError(f"origin must have 3 components, got {origin}")
        if not holds(lambda: all(is_number(o) and math.isfinite(o) for o in self.origin)):
            raise ScheduleError(f"origin must be finite, got {origin}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        object.__setattr__(self, "voxel_size", float(self.voxel_size))

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
            if not (isinstance(v, tuple) and len(v) == 3 and all(map(is_integer, v))):
                raise ScheduleError(f"voxel {plain(v)!r} is not 3 integers")
            if v in seen:
                raise ScheduleError(f"duplicate voxel {tuple(map(int, v))} in schedule")
            if not self.grid.in_bounds(v):
                raise ScheduleError(f"voxel {tuple(map(int, v))} outside grid {self.grid.dims}")
            seen.add(v)


def rasterize_segment(seg: ToolpathSegment, grid: VoxelGrid) -> list[VoxelId]:
    """Voxels visited by one extruding segment: each voxel once, in the order
    the samples visit it.

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
    # Each axis's index is monotone along the samples (t rises, the step along
    # the axis has a fixed sign, floor and clip are monotone), so a segment
    # never returns to a voxel it has left: every repeat is a consecutive one.
    return list(dict.fromkeys(VoxelId(*row) for row in idx.tolist()))


def build_schedule(tp: Toolpath, grid: VoxelGrid) -> VoxelSchedule:
    """Global first-visit deposition order over all extruding segments."""
    visits = dict.fromkeys(
        v for seg in tp.segments if seg.extruding for v in rasterize_segment(seg, grid)
    )
    return VoxelSchedule(grid=grid, order=list(visits))


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
        check_fields(self, ScheduleError)
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
    nz = schedule.nz_used
    lo, hi = policy.band_lo * nz, policy.band_hi * nz

    ends: dict[tuple[int, int], tuple[int, int]] = {}  # band row (k, j) -> first, last pos
    for pos, v in enumerate(schedule.order):
        if lo <= v.k <= hi:
            first, _ = ends.get((v.k, v.j), (pos, pos))
            ends[v.k, v.j] = (first, pos)
    # a row's rank is its place by j among the band rows of its layer
    rank = {
        row: r
        for _, rows in groupby(sorted(ends), key=lambda row: row[0])
        for r, row in enumerate(rows)
    }
    # rows outside the band rank 0, so they are kept whole
    return VoxelSchedule(schedule.grid, [
        v
        for pos, v in enumerate(schedule.order)
        if rank.get((v.k, v.j), 0) % (policy.skip + 1) == 0
        or (policy.preserve_row_ends and pos in ends[v.k, v.j])
    ])


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
    for name, value in (("dims", dims), ("offset", offset)):
        if not holds(lambda: len(value) == 3
                     and all(is_number(v) and int(v) == v for v in value)):
            raise ScheduleError(f"cuboid {name} must be 3 integers, got {plain(value)!r}")
    a, b, c = (int(d) for d in dims)
    ox, oy, oz = (int(o) for o in offset)
    if a < 1 or b < 1 or c < 1:
        raise ScheduleError(f"cuboid dims must be positive, got {plain(dims)}")
    hi = (ox + a, oy + b, oz + c)
    if ox < 0 or oy < 0 or oz < 0 or any(h > d for h, d in zip(hi, grid.dims)):
        raise ScheduleError(
            f"cuboid {plain(dims)} at offset {plain(offset)} exceeds grid {grid.dims}"
        )
    return {
        k: {j: list(range(ox, ox + a)) for j in range(oy, oy + b)}
        for k in range(oz, oz + c)
    }


def _sphere_cells(grid: VoxelGrid, radius: float, center) -> dict:
    if not is_number(radius):
        raise ScheduleError(f"sphere radius must be a number, got {plain(radius)!r}")
    if center is not None and not holds(lambda: len(center) == 3
                                        and all(is_number(c) for c in center)):
        raise ScheduleError(f"sphere center must be 3 numbers, got {plain(center)!r}")
    ctr = np.asarray(grid.dims, float) / 2.0 if center is None else np.asarray(center, float)
    if not (0 < radius < math.inf and np.isfinite(ctr).all()):
        raise ScheduleError(f"sphere radius must be positive and finite and its centre finite, "
                            f"got r={radius} at {tuple(ctr.tolist())}")
    exceeds = ScheduleError(
        f"sphere r={radius} at {tuple(ctr.tolist())} exceeds grid {grid.dims}"
    )
    cells: dict[int, dict[int, list[int]]] = {}
    dims = np.asarray(grid.dims, float)
    if np.any((ctr < 0) | (ctr > dims)):
        # the cell nearest the centre is outside the grid, and a sphere holds
        # some cell only if it holds that one
        d = np.floor(ctr) + 0.5 - ctr
        if float(d @ d) < radius * radius:
            raise exceeds
        return cells
    # The centre is in the grid, so a sphere cell past the grid's one-cell rim
    # has a cell on the rim nearer the centre: scanning up to the rim decides.
    lo = np.maximum(np.floor(ctr - radius - 1), -1).astype(int)
    hi = np.minimum(np.ceil(ctr + radius + 1), dims + 1).astype(int)
    for k in range(lo[2], hi[2]):
        for j in range(lo[1], hi[1]):
            for i in range(lo[0], hi[0]):
                d = np.array([i + 0.5, j + 0.5, k + 0.5]) - ctr
                if float(d @ d) < radius * radius:
                    if not grid.in_bounds(VoxelId(i, j, k)):
                        raise exceeds
                    cells.setdefault(k, {}).setdefault(j, []).append(i)
    return cells


def gen_test_schedule(
    shape: str,
    grid: VoxelGrid,
    *,
    dims=None,
    offset=(0, 0, 0),
    radius: float | None = None,
    center=None,
) -> VoxelSchedule:
    """Procedural serpentine schedules for known solids.

    ``shape`` is ``cuboid`` (``dims`` at ``offset``) or ``sphere``
    (``radius`` around ``center``, the grid centre by default).
    ``format_gcode`` writes one as G-code.
    """
    if shape == "cuboid":
        if dims is None:
            raise ScheduleError("cuboid requires dims")
        return VoxelSchedule(grid, _boustrophedon(_cuboid_cells(grid, dims, offset)))
    if shape == "sphere":
        if radius is None:
            raise ScheduleError("sphere requires radius")
        return VoxelSchedule(grid, _boustrophedon(_sphere_cells(grid, radius, center)))
    raise ScheduleError(f"unknown shape {plain(shape)!r}")


def format_gcode(schedule: VoxelSchedule) -> str:
    """Raster G-code that ``build_schedule`` reads back as ``schedule``.

    Each row run of the order, voxels of one row one step apart, becomes a
    travel to its first voxel's centre and one extruding move to its last
    one's. No voxel repeats, so a run never turns back.
    """
    grid = schedule.grid
    runs: list[list[VoxelId]] = []  # [first, last] of each run
    for v in schedule.order:
        last = runs[-1][1] if runs else None
        if last and (v.j, v.k) == (last.j, last.k) and abs(v.i - last.i) == 1:
            runs[-1][1] = v
        else:
            runs.append([v, v])

    def fmt(v: VoxelId) -> str:
        x, y, z = grid.center(v).tolist()
        return f"X{x!r} Y{y!r} Z{z!r}"

    lines = ["; voxtherm raster", "G90", "M82", "G21"]
    e = 0.0
    for first, last in runs:
        lines.append(f"G0 {fmt(first)}")
        e += max(abs(last.i - first.i) * grid.voxel_size, 0.5 * grid.voxel_size)
        lines.append(f"G1 {fmt(last)} E{e!r}")
    return "\n".join(lines) + "\n"


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


def parse_schedule(text: str, source: str = "<schedule>") -> VoxelSchedule:
    lines = text.splitlines()
    path = source
    if not lines or not lines[0].startswith("grid "):
        raise ScheduleError(f"{path}:1: missing 'grid' header line")
    parts = lines[0].split()
    if len(parts) != 8:
        raise ScheduleError(f"{path}:1: malformed grid header {lines[0]!r}")
    try:
        grid = VoxelGrid(
            dims=(int(parts[1]), int(parts[2]), int(parts[3])),
            voxel_size=float(parts[4]),
            origin=(float(parts[5]), float(parts[6]), float(parts[7])),
        )
    except ScheduleError as err:  # a number the grid rejects
        raise ScheduleError(f"{path}:1: {err}") from None
    except ValueError:  # a field that is not a number
        raise ScheduleError(f"{path}:1: malformed grid header {lines[0]!r}") from None
    order: dict[VoxelId, None] = {}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            i, j, k = (int(tok) for tok in line.split())
        except ValueError:
            raise ScheduleError(f"{path}:{ln}: malformed voxel line {line!r}") from None
        v = VoxelId(i, j, k)
        if v in order:
            raise ScheduleError(f"{path}:{ln}: duplicate voxel {tuple(v)}")
        if not grid.in_bounds(v):
            raise ScheduleError(f"{path}:{ln}: voxel {tuple(v)} outside grid {grid.dims}")
        order[v] = None
    return VoxelSchedule(grid, list(order))


def load_schedule(path) -> VoxelSchedule:
    with open(path) as f:
        return parse_schedule(f.read(), source=str(path))
