"""Voxelizer and schedule transforms against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxtherm.gcode import ToolpathSegment, parse_gcode
from voxtherm.schedule import (
    OutOfBoundsError,
    ScheduleError,
    SparsityPolicy,
    VoxelGrid,
    VoxelId,
    VoxelSchedule,
    apply_sparsity,
    build_schedule,
    gen_test_schedule,
    load_schedule,
    parse_schedule,
    rasterize_segment,
    save_schedule,
)


# --- independent dense-sampling oracle --------------------------------------
# Ground truth: sample every segment at dx/100 arclength spacing (endpoints
# included), floor each point into the grid, keep first visits.


def dense_voxels(seg, grid):
    start = np.asarray(seg.start, float)
    end = np.asarray(seg.end, float)
    length = float(np.linalg.norm(end - start))
    n = max(1, math.ceil(100.0 * length / grid.voxel_size))
    out = []
    for t in np.linspace(0.0, 1.0, n + 1):
        p = start + t * (end - start)
        idx = np.floor((p - np.asarray(grid.origin)) / grid.voxel_size).astype(int)
        idx = np.clip(idx, 0, np.asarray(grid.dims) - 1)
        v = VoxelId(*(int(c) for c in idx))
        if not out or out[-1] != v:
            out.append(v)
    return out


def dense_schedule(tp, grid):
    seen, order = set(), []
    for seg in tp.segments:
        if not seg.extruding:
            continue
        for v in dense_voxels(seg, grid):
            if v not in seen:
                seen.add(v)
                order.append(v)
    return order


def _seg(a, b):
    return ToolpathSegment(start=tuple(a), end=tuple(b), extruding=True)


def staircase_toolpath(rng, grid, n_moves):
    """Random axis-aligned staircase: continuous endpoints, mixed travel."""
    lo = np.asarray(grid.origin)
    hi = lo + np.asarray(grid.dims) * grid.voxel_size
    pos = lo + rng.random(3) * (hi - lo)
    segs = []
    for _ in range(n_moves):
        axis = rng.integers(0, 3)
        nxt = pos.copy()
        nxt[axis] = lo[axis] + rng.random() * (hi[axis] - lo[axis])
        segs.append(
            ToolpathSegment(
                start=tuple(pos), end=tuple(nxt), extruding=bool(rng.random() < 0.8)
            )
        )
        pos = nxt
    from voxtherm.gcode import Toolpath

    return Toolpath(segs)


# --- rasterize_segment -------------------------------------------------------


def test_axis_aligned_four_voxel_segment():
    grid = VoxelGrid(dims=(8, 8, 8))
    seg = _seg((0.5, 0.5, 0.5), (3.5, 0.5, 0.5))
    got = rasterize_segment(seg, grid)
    assert got == [VoxelId(i, 0, 0) for i in range(4)]
    assert got == dense_voxels(seg, grid)


def test_body_diagonal_of_2x2x2_block():
    grid = VoxelGrid(dims=(2, 2, 2))
    seg = _seg((0.5, 0.5, 0.5), (1.5, 1.5, 1.5))
    got = rasterize_segment(seg, grid)
    assert got[0] == VoxelId(0, 0, 0)
    assert got[-1] == VoxelId(1, 1, 1)
    for a, b in zip(got, got[1:]):
        assert all(abs(x - y) <= 1 for x, y in zip(a, b))
    assert got == dense_voxels(seg, grid)


def test_dwell_segment_single_voxel():
    grid = VoxelGrid(dims=(4, 4, 4))
    assert rasterize_segment(_seg((2.2, 1.1, 0.6), (2.2, 1.1, 0.6)), grid) == [
        VoxelId(2, 1, 0)
    ]


def test_non_extruding_segment_rejected():
    grid = VoxelGrid(dims=(4, 4, 4))
    seg = ToolpathSegment(start=(0.5, 0.5, 0.5), end=(1.5, 0.5, 0.5), extruding=False)
    with pytest.raises(ScheduleError):
        rasterize_segment(seg, grid)


def test_out_of_bounds_endpoint_names_segment():
    grid = VoxelGrid(dims=(4, 4, 4))
    with pytest.raises(OutOfBoundsError) as ei:
        rasterize_segment(_seg((0.5, 0.5, 0.5), (9.0, 0.5, 0.5)), grid)
    assert "9.0" in str(ei.value)


def test_upper_boundary_clamps_to_last_voxel():
    grid = VoxelGrid(dims=(4, 4, 4))
    got = rasterize_segment(_seg((3.5, 4.0, 4.0), (4.0, 4.0, 4.0)), grid)
    assert got == [VoxelId(3, 3, 3)]


def test_offset_origin_and_fractional_voxel_size():
    grid = VoxelGrid(dims=(8, 8, 8), voxel_size=0.4, origin=(-1.0, 2.0, 0.5))
    seg = _seg((-0.8, 2.2, 0.7), (1.0, 2.2, 0.7))
    assert rasterize_segment(seg, grid) == dense_voxels(seg, grid)


# --- build_schedule ----------------------------------------------------------


def test_build_schedule_first_occurrence_dedup():
    grid = VoxelGrid(dims=(8, 8, 8))
    tp = parse_gcode(
        "G90\nG0 X0.5 Y0.5 Z0.5\nG1 X3.5 E1\nG1 X0.5 E2\nG1 Y1.5 E3\n"
    )
    sched = build_schedule(tp, grid)
    sched.validate()
    assert sched.order == dense_schedule(tp, grid)
    assert len(set(sched.order)) == len(sched.order)


def test_build_schedule_ignores_travel():
    grid = VoxelGrid(dims=(8, 8, 8))
    tp = parse_gcode("G0 X4.5 Y4.5 Z0.5\nG1 X6.5 E1\n")
    sched = build_schedule(tp, grid)
    assert all(v.j == 4 for v in sched.order)
    assert sched.order == [VoxelId(i, 4, 0) for i in (4, 5, 6)]


def test_random_staircase_toolpaths_match_dense_oracle():
    rng = np.random.default_rng(20260814)
    for trial in range(25):
        d = rng.integers(4, 12, size=3)
        grid = VoxelGrid(dims=tuple(int(x) for x in d), voxel_size=0.8, origin=(0.3, -1.0, 2.0))
        tp = staircase_toolpath(rng, grid, n_moves=int(rng.integers(2, 12)))
        assert build_schedule(tp, grid).order == dense_schedule(tp, grid)


# --- sparsity ----------------------------------------------------------------


def _layer_rows_schedule(n_layers, n_rows, row_len, grid=None):
    grid = grid or VoxelGrid(dims=(max(row_len, 1), max(n_rows, 1), max(n_layers, 1)))
    order = []
    for k in range(n_layers):
        for rank, j in enumerate(range(n_rows)):
            rng = range(row_len) if rank % 2 == 0 else range(row_len - 1, -1, -1)
            order.extend(VoxelId(i, j, k) for i in rng)
    return VoxelSchedule(grid, order)


def test_sparsity_keeps_every_fourth_row():
    sched = _layer_rows_schedule(1, 8, 5)
    pol = SparsityPolicy(band_lo=0.0, band_hi=1.0, skip=3, preserve_row_ends=False)
    out = apply_sparsity(sched, pol)
    assert sorted({v.j for v in out.order}) == [0, 4]
    assert len(out.order) == 10


def test_sparsity_band_leaves_outer_layers_unchanged():
    sched = _layer_rows_schedule(64, 5, 3)
    pol = SparsityPolicy(band_lo=0.25, band_hi=0.75, skip=3, preserve_row_ends=False)
    out = apply_sparsity(sched, pol)
    by_layer = {}
    for v in out.order:
        by_layer.setdefault(v.k, set()).add(v.j)
    for k in list(range(0, 16)) + list(range(49, 64)):
        assert by_layer[k] == {0, 1, 2, 3, 4}, f"layer {k} was modified"
    for k in range(16, 49):
        assert by_layer[k] == {0, 4}, f"layer {k} not thinned"


def test_sparsity_preserve_row_ends():
    sched = _layer_rows_schedule(1, 2, 6)
    pol = SparsityPolicy(skip=1, preserve_row_ends=True)
    out = apply_sparsity(sched, pol)
    row1 = [v for v in out.order if v.j == 1]
    # dropped row contributes exactly its first and last scheduled voxel
    assert row1 == [VoxelId(5, 1, 0), VoxelId(0, 1, 0)]
    assert [v for v in out.order if v.j == 0] == [VoxelId(i, 0, 0) for i in range(6)]


def test_sparsity_skip_zero_is_identity():
    sched = _layer_rows_schedule(3, 4, 4)
    out = apply_sparsity(sched, SparsityPolicy.none())
    assert out.order == sched.order
    assert out.order is not sched.order


def test_sparsity_output_is_subsequence():
    sched = _layer_rows_schedule(6, 7, 5)
    out = apply_sparsity(sched, SparsityPolicy.medium())
    it = iter(sched.order)
    assert all(v in it for v in out.order)  # subsequence check
    out.validate()


@settings(max_examples=40, deadline=None)
@given(
    skip=st.integers(0, 5),
    lo=st.floats(0, 1),
    hi=st.floats(0, 1),
    preserve=st.booleans(),
)
def test_sparsity_properties_random_policies(skip, lo, hi, preserve):
    if lo > hi:
        lo, hi = hi, lo
    sched = _layer_rows_schedule(5, 4, 3)
    out = apply_sparsity(sched, SparsityPolicy(lo, hi, skip, preserve))
    it = iter(sched.order)
    assert all(v in it for v in out.order)
    out.validate()


# --- generators --------------------------------------------------------------


def test_gen_cuboid_4x4x2():
    grid = VoxelGrid(dims=(4, 4, 2))
    sched = gen_test_schedule("cuboid", grid, dims=(4, 4, 2))
    sched.validate()
    assert len(sched) == 32
    ks = [v.k for v in sched.order]
    assert ks == sorted(ks)  # layer by layer
    # serpentine: first row ascending, second descending
    assert [v.i for v in sched.order[:8]] == [0, 1, 2, 3, 3, 2, 1, 0]


def test_gen_sphere_count_vs_oracle():
    grid = VoxelGrid(dims=(32, 32, 32))
    sched = gen_test_schedule("sphere", grid, radius=10.0)
    sched.validate()
    ctr = np.array([16.0, 16.0, 16.0])
    oracle = {
        VoxelId(i, j, k)
        for i in range(32)
        for j in range(32)
        for k in range(32)
        if np.sum((np.array([i, j, k]) + 0.5 - ctr) ** 2) < 100.0
    }
    assert set(sched.order) == oracle
    expected = 4.0 / 3.0 * math.pi * 10.0**3
    assert abs(len(sched) - expected) / expected < 0.05


def test_gen_shape_exceeding_grid_errors():
    grid = VoxelGrid(dims=(4, 4, 4))
    with pytest.raises(ScheduleError):
        gen_test_schedule("cuboid", grid, dims=(5, 2, 2))
    with pytest.raises(ScheduleError):
        gen_test_schedule("sphere", grid, radius=3.5)


def test_raster_gcode_round_trips_cuboid():
    grid = VoxelGrid(dims=(4, 4, 2))
    gc = gen_test_schedule("raster_gcode", grid, dims=(4, 4, 2))
    direct = gen_test_schedule("cuboid", grid, dims=(4, 4, 2))
    assert build_schedule(parse_gcode(gc), grid).order == direct.order


def test_raster_gcode_round_trips_sphere_with_offsets():
    grid = VoxelGrid(dims=(8, 8, 8), voxel_size=0.25, origin=(1.0, -2.0, 0.125))
    gc = gen_test_schedule("raster_gcode", grid, radius=3.2, base_shape="sphere")
    direct = gen_test_schedule("sphere", grid, radius=3.2)
    assert build_schedule(parse_gcode(gc), grid).order == direct.order


# --- file round trip ---------------------------------------------------------


def test_schedule_file_round_trip_bit_exact(tmp_path):
    grid = VoxelGrid(dims=(5, 7, 3), voxel_size=0.1, origin=(-0.3, 1e-7, 2.5))
    sched = gen_test_schedule("cuboid", grid, dims=(5, 7, 3))
    p = tmp_path / "a.sched"
    save_schedule(sched, p)
    back = load_schedule(p)
    assert back.grid == sched.grid
    assert back.order == sched.order
    # serialize again: byte-identical
    p2 = tmp_path / "b.sched"
    save_schedule(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_load_schedule_rejects_malformed(tmp_path):
    p = tmp_path / "bad.sched"
    p.write_text("grid 2 2 2 1.0 0.0 0.0 0.0\n1 2\n")
    with pytest.raises(ScheduleError):
        load_schedule(p)
    p.write_text("nope\n")
    with pytest.raises(ScheduleError):
        load_schedule(p)


def test_grid_validation():
    with pytest.raises(ScheduleError):
        VoxelGrid(dims=(0, 2, 2))
    with pytest.raises(ScheduleError):
        VoxelGrid(dims=(2, 2, 2), voxel_size=0.0)
    for size in (math.inf, math.nan):
        with pytest.raises(ScheduleError, match="voxel_size must be positive and finite"):
            VoxelGrid(dims=(2, 2, 2), voxel_size=size)
    with pytest.raises(ScheduleError, match="origin must be finite"):
        VoxelGrid(dims=(2, 2, 2), origin=(0.0, math.nan, 0.0))
    with pytest.raises(ScheduleError, match="origin must be finite"):
        parse_schedule("grid 4 4 4 1.0 nan 0.0 0.0\n")
    assert VoxelGrid(dims=(16, 16, 16)).octree_level == 4
    assert VoxelGrid(dims=(4, 4, 2)).octree_level == 2
    assert VoxelGrid(dims=(5, 1, 1)).octree_level == 3
