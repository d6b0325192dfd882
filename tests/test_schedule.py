"""Voxelizer and schedule transforms against independent oracles."""

import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxtherm._checks import is_integer
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
    format_gcode,
    format_schedule,
    gen_test_schedule,
    load_schedule,
    parse_schedule,
    rasterize_segment,
)
from voxtherm.schedule import _sphere_cells


# --- independent dense-sampling oracle --------------------------------------
# Ground truth: sample every segment at dx/100 arclength spacing (endpoints
# included), floor each point into the grid, keep first visits.


def dense_voxels(seg, grid, per_edge=100):
    """Floored samples ``per_edge`` to a voxel edge, consecutive repeats removed."""
    start = np.asarray(seg.start, float)
    end = np.asarray(seg.end, float)
    length = float(np.linalg.norm(end - start))
    n = max(1, math.ceil(per_edge * length / grid.voxel_size))
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


@settings(max_examples=100, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 9)] * 3),
    voxel_size=st.sampled_from([0.4, 1.0, 2.5]),
    origin=st.tuples(*[st.floats(-5, 5)] * 3),
    ends=st.tuples(*[st.floats(0, 1)] * 6),
)
def test_oblique_segments_never_return_to_a_voxel(dims, voxel_size, origin, ends):
    """Along a straight segment the floored samples, consecutive repeats
    removed, hold no repeat, so dropping every repeat drops only consecutive
    ones; rasterize_segment is that walk at two samples per voxel edge."""
    grid = VoxelGrid(dims=dims, voxel_size=voxel_size, origin=origin)
    extent = np.asarray(dims) * voxel_size
    a, b = (np.asarray(origin) + np.asarray(f) * extent for f in (ends[:3], ends[3:]))
    seg = _seg(a.tolist(), b.tolist())
    for per_edge in (2, 100):
        walk = dense_voxels(seg, grid, per_edge)
        assert len(set(walk)) == len(walk)
    assert rasterize_segment(seg, grid) == dense_voxels(seg, grid, 2)


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


@pytest.mark.parametrize("kwargs,message", [
    ({"skip": 1.5}, "skip must be an integer, got 1.5"),
    ({"skip": 2.0}, "skip must be an integer, got 2.0"),
    ({"skip": True}, "skip must be an integer, got True"),
    ({"skip": "2"}, "skip must be an integer, got '2'"),
    ({"band_lo": "0"}, "band_lo must be a number, got '0'"),
    ({"band_hi": False}, "band_hi must be a number, got False"),
])
def test_sparsity_policy_field_types_checked(kwargs, message):
    """A fractional skip would keep rows whose rank is a multiple of skip + 1
    only by accident; it and other wrongly typed fields fail at construction."""
    with pytest.raises(ScheduleError, match=rf"^{message}$"):
        SparsityPolicy(**kwargs)
    assert SparsityPolicy(skip=np.int64(2), band_lo=np.float64(0.25)).skip == 2


def test_sparsity_policy_preserve_row_ends_is_a_flag():
    """Any truthy text or number was once read as keeping row ends."""
    for bad, shown in (("no", "'no'"), (1, "1"), (None, "None"), (np.str_("no"), "'no'")):
        with pytest.raises(ScheduleError,
                           match=rf"^preserve_row_ends must be true or false, got {shown}$"):
            SparsityPolicy(preserve_row_ends=bad)
    assert not SparsityPolicy(preserve_row_ends=np.bool_(False)).preserve_row_ends


@pytest.mark.parametrize("shape,kwargs,message", [
    ("cuboid", {"dims": (2.5, 2, 2)}, "cuboid dims must be 3 integers, got (2.5, 2, 2)"),
    ("cuboid", {"dims": 2}, "cuboid dims must be 3 integers, got 2"),
    ("cuboid", {"dims": (2, 2)}, "cuboid dims must be 3 integers, got (2, 2)"),
    ("cuboid", {"dims": (True, 2, 2)}, "cuboid dims must be 3 integers, got (True, 2, 2)"),
    ("cuboid", {"dims": (2, 2, 2), "offset": (0.5, 0, 0)},
     "cuboid offset must be 3 integers, got (0.5, 0, 0)"),
    ("cuboid", {"dims": (2, 2, 2), "offset": ("1", 0, 0)},
     "cuboid offset must be 3 integers, got ('1', 0, 0)"),
    ("sphere", {"radius": "2"}, "sphere radius must be a number, got '2'"),
    ("sphere", {"radius": True}, "sphere radius must be a number, got True"),
    ("sphere", {"radius": 1.5, "center": ("a", 1, 1)},
     "sphere center must be 3 numbers, got ('a', 1, 1)"),
    ("sphere", {"radius": 1.5, "center": (2, 2)}, "sphere center must be 3 numbers, got (2, 2)"),
    ("sphere", {"radius": 1.5, "center": (False, 2, 2)},
     "sphere center must be 3 numbers, got (False, 2, 2)"),
])
def test_gen_test_schedule_argument_types_checked(shape, kwargs, message):
    """A fractional cuboid size or offset would be truncated to another solid;
    it and other wrongly typed arguments fail as a ScheduleError naming them."""
    grid = VoxelGrid(dims=(4, 4, 4))
    with pytest.raises(ScheduleError) as err:
        gen_test_schedule(shape, grid, **kwargs)
    assert str(err.value) == message
    cuboid = gen_test_schedule("cuboid", grid, dims=(2, 2, 1), offset=(0, 1, 0))
    assert gen_test_schedule("cuboid", grid, dims=(2.0, np.int64(2), 1),
                             offset=(np.int32(0), 1.0, 0)).order == cuboid.order
    sphere = gen_test_schedule("sphere", grid, radius=1.5, center=(2, 2, 2))
    assert gen_test_schedule("sphere", grid, radius=np.float64(1.5),
                             center=np.array([2, 2, 2])).order == sphere.order


# short values of every kind an argument might be given: small ints, floats
# (nan and inf included), bools, text and None, as Python or numpy scalars,
# alone or in tuples of any short length. Magnitudes stay under 8, so no
# large solid is ever generated.
_float = st.floats(-8, 8) | st.sampled_from([math.nan, math.inf, -math.inf])
_scalar = st.one_of(
    st.integers(-3, 8),
    _float,
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.integers(-3, 8).map(np.int64),
    _float.map(np.float64),
    st.booleans().map(np.bool_),
    st.text(max_size=2).map(np.str_),
)
_argument = _scalar | st.tuples(_scalar, _scalar, _scalar) | st.lists(_scalar, max_size=4)


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(["cuboid", "sphere"]),
       dims=st.tuples(*[st.integers(1, 6)] * 3),
       kwargs=st.fixed_dictionaries({}, optional={
           "dims": _argument, "offset": _argument, "radius": _argument, "center": _argument}))
def test_any_short_generator_arguments_give_a_schedule_or_a_schedule_error(shape, dims, kwargs):
    """gen_test_schedule either returns a valid schedule on its grid or fails
    as a ScheduleError that holds no numpy repr; no other exception escapes."""
    grid = VoxelGrid(dims=dims)
    try:
        sched = gen_test_schedule(shape, grid, **kwargs)
    except ScheduleError as err:
        assert "np." not in str(err), str(err)
    else:
        sched.validate()


def test_sparsity_output_is_subsequence():
    sched = _layer_rows_schedule(6, 7, 5)
    out = apply_sparsity(sched, SparsityPolicy.medium())
    it = iter(sched.order)
    assert all(v in it for v in out.order)  # subsequence check
    out.validate()


def sparsity_oracle(order, policy):
    """Thinning spelled out voxel by voxel: a band voxel's rank is the rank of
    its row j among the band rows of its layer k, and its row's ends are the
    first and last positions of that row in the order."""
    nz = max((v.k for v in order), default=-1) + 1
    lo, hi = policy.band_lo * nz, policy.band_hi * nz
    kept = []
    for pos, v in enumerate(order):
        if lo <= v.k <= hi:
            rows = sorted({u.j for u in order if u.k == v.k})
            positions = [p for p, u in enumerate(order) if (u.k, u.j) == (v.k, v.j)]
            thinned = rows.index(v.j) % (policy.skip + 1) != 0
            row_end = pos in (positions[0], positions[-1])
            if thinned and not (policy.preserve_row_ends and row_end):
                continue
        kept.append(v)
    return kept


@settings(max_examples=60, deadline=None)
@given(
    skip=st.integers(0, 5),
    lo=st.floats(0, 1),
    hi=st.floats(0, 1),
    preserve=st.booleans(),
    dims=st.tuples(*[st.integers(1, 6)] * 3),
    fill=st.floats(0, 1),
    shuffled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparsity_properties_random_policies(skip, lo, hi, preserve, dims, fill, shuffled, seed):
    """On raster and shuffled orders of random voxel sets, thinning keeps a
    valid subsequence equal to the voxel-by-voxel oracle."""
    if lo > hi:
        lo, hi = hi, lo
    rng = np.random.default_rng(seed)
    order = [VoxelId(i, j, k) for k in range(dims[2]) for j in range(dims[1])
             for i in range(dims[0]) if rng.random() < fill]
    if shuffled:
        order = [order[p] for p in rng.permutation(len(order))]
    sched = VoxelSchedule(VoxelGrid(dims=dims), order)
    policy = SparsityPolicy(lo, hi, skip, preserve)
    out = apply_sparsity(sched, policy)
    assert out.order == sparsity_oracle(order, policy)
    it = iter(sched.order)
    assert all(v in it for v in out.order)
    out.validate()
    layered = _layer_rows_schedule(5, 4, 3)
    assert apply_sparsity(layered, policy).order == sparsity_oracle(layered.order, policy)


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


def loop_sphere_cells(grid, radius, ctr):
    """The sphere's cells by a scan of its whole bounding box, as an oracle
    for small spheres: each ``k``, then ``j``, then ``i`` ascending, or the
    "exceeds grid" message at the first sphere cell outside the grid."""
    cells = {}
    exceeds = f"sphere r={radius} at {tuple(ctr.tolist())} exceeds grid {grid.dims}"
    lo = np.floor(ctr - radius - 1).astype(int)
    hi = np.ceil(ctr + radius + 1).astype(int)
    for k in range(lo[2], hi[2]):
        for j in range(lo[1], hi[1]):
            for i in range(lo[0], hi[0]):
                d = np.array([i + 0.5, j + 0.5, k + 0.5]) - ctr
                if float(d @ d) < radius * radius:
                    if not grid.in_bounds(VoxelId(i, j, k)):
                        return exceeds
                    cells.setdefault(k, {}).setdefault(j, []).append(i)
    return cells


def test_sphere_cells_equal_the_bounding_box_scan_on_random_small_spheres():
    """Cells and their order, or the "exceeds grid" error, as the full scan
    gives them; centres inside, on and outside the grid, quarter-cell ties included."""
    rng = np.random.default_rng(2024)
    for trial in range(600):
        dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
        grid = VoxelGrid(dims=dims)
        ctr = rng.uniform(-3, np.array(dims) + 3)
        radius = float(rng.uniform(0.05, 5))
        if trial % 2:
            ctr, radius = np.round(ctr * 4) / 4, float(max(np.round(radius * 4) / 4, 0.25))
        want = loop_sphere_cells(grid, radius, ctr)
        try:
            got = _sphere_cells(grid, radius, tuple(ctr.tolist()))
        except ScheduleError as err:
            got = str(err)
        assert got == want, (dims, ctr.tolist(), radius)


@pytest.mark.parametrize("radius", [1e6, 1e20])
@pytest.mark.parametrize("center", [None, (1e20, 2.0, 2.0), (-1e6, -1e6, 1e20)])
def test_huge_spheres_exceed_the_grid_at_once(radius, center):
    grid = VoxelGrid(dims=(4, 4, 4))
    with pytest.raises(ScheduleError, match="exceeds grid"):
        gen_test_schedule("sphere", grid, radius=radius, center=center)


def test_a_sphere_far_outside_the_grid_that_holds_no_cell_has_no_cells():
    grid = VoxelGrid(dims=(4, 4, 4))
    assert _sphere_cells(grid, 0.3, (1e20, 1.0, 1.0)) == {}
    assert _sphere_cells(grid, 0.3, (-10.0, 1.0, 1.0)) == {}
    with pytest.raises(ScheduleError, match="exceeds grid"):
        _sphere_cells(grid, 0.9, (-10.0, 1.0, 1.0))


def test_raster_gcode_round_trips_cuboid():
    grid = VoxelGrid(dims=(4, 4, 2))
    direct = gen_test_schedule("cuboid", grid, dims=(4, 4, 2))
    assert build_schedule(parse_gcode(format_gcode(direct)), grid).order == direct.order


def test_raster_gcode_round_trips_sphere_with_offsets():
    grid = VoxelGrid(dims=(8, 8, 8), voxel_size=0.25, origin=(1.0, -2.0, 0.125))
    direct = gen_test_schedule("sphere", grid, radius=3.2)
    assert build_schedule(parse_gcode(format_gcode(direct)), grid).order == direct.order


def test_raster_gcode_round_trips_rows_with_gaps():
    """A thinned row keeps its two ends, which are no run: each gets its own move."""
    grid = VoxelGrid(dims=(12, 12, 12))
    sparse = apply_sparsity(gen_test_schedule("sphere", grid, radius=5.0), SparsityPolicy.medium())
    assert build_schedule(parse_gcode(format_gcode(sparse)), grid).order == sparse.order


# --- file round trip ---------------------------------------------------------


def test_schedule_file_round_trip_bit_exact(tmp_path):
    grid = VoxelGrid(dims=(5, 7, 3), voxel_size=0.1, origin=(-0.3, 1e-7, 2.5))
    sched = gen_test_schedule("cuboid", grid, dims=(5, 7, 3))
    p = tmp_path / "a.sched"
    p.write_text(format_schedule(sched))
    back = load_schedule(p)
    assert back.grid == sched.grid
    assert back.order == sched.order
    # serialize again: byte-identical
    p2 = tmp_path / "b.sched"
    p2.write_text(format_schedule(back))
    assert p.read_bytes() == p2.read_bytes()


def test_load_schedule_rejects_malformed(tmp_path):
    p = tmp_path / "bad.sched"
    p.write_text("grid 2 2 2 1.0 0.0 0.0 0.0\n1 2\n")
    with pytest.raises(ScheduleError):
        load_schedule(p)
    p.write_text("nope\n")
    with pytest.raises(ScheduleError):
        load_schedule(p)


@pytest.mark.parametrize("header,message", [
    ("grid 4 x 4 1.0 0 0 0", "malformed grid header 'grid 4 x 4 1.0 0 0 0'"),
    ("grid 4 4 4 1.0 nan 0 0", "origin must be finite, got (nan, 0.0, 0.0)"),
    ("grid 4 4 0 1.0 0 0 0", "grid dims must be positive integers, got (4, 4, 0)"),
    ("grid 524289 1 1 1.0 0 0 0", "grid dims must be at most 524288, got (524289, 1, 1)"),
])
def test_header_errors_name_the_file_and_line(tmp_path, header, message):
    p = tmp_path / "bad.sched"
    p.write_text(header + "\n0 0 0\n")
    with pytest.raises(ScheduleError) as err:
        load_schedule(p)
    assert str(err.value) == f"{p}:1: {message}"


@pytest.mark.parametrize("body,message", [
    ("0 0 0\n1 0 0\n\n0 0 0\n", "s.txt:5: duplicate voxel (0, 0, 0)"),
    ("0 0 0\n9 0 0\n", "s.txt:3: voxel (9, 0, 0) outside grid (4, 4, 4)"),
    ("0 -1 0\n", "s.txt:2: voxel (0, -1, 0) outside grid (4, 4, 4)"),
], ids=["duplicate", "past-the-grid", "negative"])
def test_voxel_errors_name_the_file_and_line(body, message):
    with pytest.raises(ScheduleError) as err:
        parse_schedule("grid 4 4 4 1.0 0.0 0.0 0.0\n" + body, source="s.txt")
    assert str(err.value) == message


def test_validate_names_voxels_as_plain_tuples():
    grid = VoxelGrid(dims=(2, 2, 2))
    v = VoxelId(np.int64(1), np.int64(0), np.int64(0))
    with pytest.raises(ScheduleError, match=r"^duplicate voxel \(1, 0, 0\) in schedule$"):
        VoxelSchedule(grid, [v, v]).validate()
    with pytest.raises(ScheduleError, match=r"^voxel \(3, 0, 0\) outside grid \(2, 2, 2\)$"):
        VoxelSchedule(grid, [VoxelId(3, 0, 0)]).validate()


@pytest.mark.parametrize("voxel,shown", [
    ((1.5, 0, 0), "(1.5, 0, 0)"),
    ((True, 0, 0), "(True, 0, 0)"),
    ((1, 0), "(1, 0)"),
    (("a", 0, 0), "('a', 0, 0)"),
    (VoxelId(np.float64(1.0), 0, 0), "(1.0, 0, 0)"),
    ([1, 0, 0], "[1, 0, 0]"),
], ids=["fraction", "bool", "two", "text", "numpy-float", "list"])
def test_validate_rejects_a_voxel_that_is_not_3_integers(voxel, shown):
    """A bad voxel fails at the schedule, before the duplicate and bounds checks."""
    with pytest.raises(ScheduleError) as err:
        VoxelSchedule(VoxelGrid(dims=(2, 2, 2)), [voxel, voxel]).validate()
    assert str(err.value) == f"voxel {shown} is not 3 integers"


# short voxel entries: coordinates of every kind a library caller might pass,
# three at a time, two or four at a time, as a VoxelId, or alone
_coordinate = st.one_of(
    st.integers(-1, 4), st.integers(-1, 4).map(np.int64), st.floats(), st.floats().map(np.float64),
    st.booleans(), st.text(alphabet="0a ", max_size=2), st.none(),
)
_voxel = st.one_of(
    st.tuples(_coordinate, _coordinate, _coordinate),
    st.builds(VoxelId, _coordinate, _coordinate, _coordinate),
    st.lists(_coordinate, min_size=2, max_size=4).map(tuple),
    _coordinate,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_voxel, max_size=4))
def test_any_short_voxel_list_validates_or_raises_schedule_error(order):
    """Validation either passes a list of distinct in-grid 3-integer voxels, or
    fails as a ScheduleError that holds no numpy or VoxelId repr; no other
    exception escapes."""
    grid = VoxelGrid(dims=(3, 3, 3))
    try:
        VoxelSchedule(grid, order).validate()
    except ScheduleError as err:
        assert "np." not in str(err) and "VoxelId(" not in str(err), str(err)
    else:
        assert all(len(v) == 3 and all(map(is_integer, v)) and grid.in_bounds(v) for v in order)
        assert len(set(order)) == len(order)


# a header (good, rejected, malformed or none), then voxel-line fragments, one
# of them a number past the float range, and any printable text
_schedule_text = st.builds(
    lambda header, tokens: header + "".join(tokens),
    st.sampled_from(["grid 4 4 4 1.0 0 0 0\n", "grid 4 4 0 1.0 0 0 0\n", "grid 4 x\n", ""]),
    st.lists(st.one_of(
        st.sampled_from(["0 0 0\n", "1 2 3\n", "9 0 0\n", "0 -1 0\n", "grid ", "0", "-1",
                         "1.5", "nan", " ", "\n", "9" * 400]),
        st.text(alphabet=string.printable, max_size=2),
    ), max_size=10),
)


@settings(max_examples=200, deadline=None)
@given(_schedule_text)
def test_any_short_schedule_text_parses_or_names_its_line(text):
    """Printable schedule text either parses into a valid schedule, or fails
    as a ScheduleError that names its file and line and holds no numpy or
    VoxelId repr; no other exception escapes."""
    try:
        sched = parse_schedule(text, source="s.txt")
    except ScheduleError as err:
        where, _, message = str(err).partition(": ")
        assert where.startswith("s.txt:") and where[len("s.txt:"):].isdigit(), str(err)
        assert "np." not in message and "VoxelId(" not in message
    else:
        sched.validate()


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


@pytest.mark.parametrize("kwargs,message", [
    ({"dims": (math.inf, 1, 1)}, "grid dims must be positive integers, got (inf, 1, 1)"),
    ({"dims": (math.nan, 1, 1)}, "grid dims must be positive integers, got (nan, 1, 1)"),
    ({"dims": None}, "grid dims must be positive integers, got None"),
    ({"dims": ("4", 4, 4)}, "grid dims must be positive integers, got ('4', 4, 4)"),
    ({"voxel_size": "1.0"}, "voxel_size must be positive and finite, got 1.0"),
    ({"voxel_size": None}, "voxel_size must be positive and finite, got None"),
    ({"origin": (0, 0)}, "origin must have 3 components, got (0, 0)"),
    ({"origin": None}, "origin must have 3 components, got None"),
    ({"origin": (0.0, "x", 0.0)}, "origin must be finite, got (0.0, 'x', 0.0)"),
    ({"dims": (True, 4, 4)}, "grid dims must be positive integers, got (True, 4, 4)"),
    ({"voxel_size": True}, "voxel_size must be positive and finite, got True"),
    ({"origin": (True, 0, 0)}, "origin must be finite, got (True, 0, 0)"),
], ids=["inf-dim", "nan-dim", "no-dims", "text-dim", "text-size", "no-size",
        "two-origin", "no-origin", "text-origin", "bool-dim", "bool-size", "bool-origin"])
def test_malformed_grid_fields_raise_schedule_error(kwargs, message):
    """Every malformed field fails where the grid is made, as a ScheduleError."""
    with pytest.raises(ScheduleError) as err:
        VoxelGrid(**{"dims": (4, 4, 4), **kwargs})
    assert str(err.value) == message


def test_grid_fields_are_converted():
    grid = VoxelGrid(dims=(4.0, np.int64(4), 4), voxel_size=np.float32(2), origin=(1, 2, 3))
    assert grid.dims == (4, 4, 4) and type(grid.dims[1]) is int
    assert grid.voxel_size == 2.0 and type(grid.voxel_size) is float
    assert grid.origin == (1.0, 2.0, 3.0) and all(type(o) is float for o in grid.origin)


def test_grid_dims_past_the_octree_limit_rejected():
    """The octree spans at most 2**19 voxels per axis, so a larger grid fails
    where it is made, not when a mesh is built for it."""
    assert VoxelGrid(dims=(2**19, 1, 1)).octree_level == 19
    assert VoxelGrid(dims=(1, 1, 2**19)).octree_level == 19
    for dims in ((2**19 + 1, 1, 1), (1, 2**19 + 1, 1), (1, 1, 2**40)):
        with pytest.raises(ScheduleError, match=r"^grid dims must be at most 524288, got "):
            VoxelGrid(dims=dims)
