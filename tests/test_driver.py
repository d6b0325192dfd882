"""Driver orchestration: deposition loop, records, snapshots, sparsity sweeps."""

import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

import voxtherm.driver as driver_mod
from voxtherm.driver import DriverError, SimConfig, compare_sparsity, run
from voxtherm.fem import BoundarySpec, MaterialParams, SolverError
from voxtherm.octree import OctreeMesh
from voxtherm.schedule import (
    SparsityPolicy,
    VoxelGrid,
    VoxelSchedule,
    gen_test_schedule,
)


def cuboid_schedule(dims, grid_dims=None):
    grid = VoxelGrid(dims=grid_dims or dims)
    return gen_test_schedule("cuboid", grid, dims=dims)


def test_empty_schedule_runs_to_empty_report():
    schedule = VoxelSchedule(grid=VoxelGrid(dims=(4, 4, 4)), order=[])
    tags = []
    state, report = run(schedule, SimConfig(), sinks=lambda t, m, s: tags.append(t))
    assert report.records == []
    assert report.n_voxels == 0
    assert report.final_time == 0.0
    assert math.isnan(report.final_mean)
    assert tags == []
    assert state.time == 0.0
    assert not state.mesh.active.any()


def test_single_voxel_long_dwell_reaches_bed_temperature():
    schedule = cuboid_schedule((1, 1, 1), grid_dims=(4, 4, 4))
    cfg = SimConfig(steps_per_voxel=500, material=MaterialParams(kappa=0.05))
    state, report = run(schedule, cfg)
    assert len(report.records) == 1
    np.testing.assert_allclose(state.active_values(), 1.0, atol=1e-3)
    assert report.final_time == 500.0


def test_cuboid_run_records_and_temperature_bounds():
    schedule = cuboid_schedule((4, 4, 2))
    cfg = SimConfig(steps_per_voxel=3, dt=1.0)
    state, report = run(schedule, cfg)
    assert len(report.records) == 32
    assert report.records[-1].active_elements == 32
    # one new active element per processed voxel
    assert [r.active_elements for r in report.records] == list(range(1, 33))
    leaves = [r.leaves for r in report.records]
    nodes = [r.nodes for r in report.records]
    assert leaves == sorted(leaves)
    assert nodes == sorted(nodes)
    assert all(r.solver_iters >= 0 for r in report.records)
    assert report.t_active_min >= 1.0 - 1e-8
    assert report.t_active_max <= 2.0 + 1e-8
    assert report.final_time == 32 * 3 * 1.0
    assert state.time == report.final_time
    assert set(report.checkpoints) == {30, 60, 100}
    assert report.checkpoints[100] == pytest.approx(report.final_mean)


def test_final_mean_averages_free_nodes_only():
    # the bed plane carries the prescribed plate value; the reported mean
    # must measure the deposited material, not the boundary condition
    schedule = cuboid_schedule((4, 4, 2))
    state, report = run(schedule, SimConfig())
    mask = state.mesh.active_node_mask()
    above_bed = mask & (state.mesh.node_coords[:, 2] > 0)
    assert report.final_mean == pytest.approx(float(state.values[above_bed].mean()))
    assert report.final_mean > float(state.values[mask].mean())


def test_run_is_deterministic_modulo_wall_time():
    schedule = cuboid_schedule((4, 4, 2))
    cfg = SimConfig()
    state1, rep1 = run(schedule, cfg)
    state2, rep2 = run(schedule, cfg)
    np.testing.assert_array_equal(state1.values, state2.values)
    assert rep1.checkpoints == rep2.checkpoints
    assert (rep1.final_min, rep1.final_mean, rep1.final_max) == (
        rep2.final_min, rep2.final_mean, rep2.final_max,
    )
    for a, b in zip(rep1.records, rep2.records):
        assert (a.voxel_ordinal, a.leaves, a.active_elements, a.nodes, a.solver_iters) == (
            b.voxel_ordinal, b.leaves, b.active_elements, b.nodes, b.solver_iters,
        )


def test_refinement_and_transfer_inside_driver():
    grid = VoxelGrid(dims=(16, 16, 16))
    schedule = VoxelSchedule(grid=grid, order=[(0, 0, 0), (15, 15, 0), (8, 8, 0)])
    state, report = run(schedule, SimConfig(base_level=2))
    assert len(report.records) == 3
    assert report.records[0].leaves > 64  # refinement actually happened
    assert report.t_active_min >= 1.0 - 1e-8
    assert report.t_active_max <= 2.0 + 1e-8
    assert np.all(np.isfinite(state.values))


def test_each_deposit_looks_its_voxel_up_at_most_twice(monkeypatch):
    """Refinement and activation each locate the voxel once; nothing else does."""
    find_leaf = OctreeMesh.find_leaf
    calls = []

    def counted_find_leaf(mesh, cell):
        calls.append(cell)
        return find_leaf(mesh, cell)

    monkeypatch.setattr(OctreeMesh, "find_leaf", counted_find_leaf)
    schedule = gen_test_schedule("sphere", VoxelGrid(dims=(8, 8, 8)), radius=3,
                                 center=(4, 4, 3))
    _, report = run(schedule, SimConfig(base_level=1))
    n = len(schedule.order)
    assert report.records[0].leaves < report.records[-1].leaves  # it refines
    assert n > 50 and len(calls) <= 2 * n


def test_inactive_nodes_hold_ambient_after_every_step(monkeypatch):
    """The fact transfer rests on: every solve leaves inactive nodes at t_ambient."""
    bcs = BoundarySpec(t_ambient=-0.5)
    solve = driver_mod.fem.solve
    inactive_counts = []

    def checked_solve(system, *args, **kwargs):
        x, iters = solve(system, *args, **kwargs)
        # a node no active element touches is not one of the system's nodes
        inactive = np.ones(system.n, dtype=bool)
        inactive[system.nodes] = False
        np.testing.assert_array_equal(x[inactive], bcs.t_ambient)
        inactive_counts.append(int(inactive.sum()))
        return x, iters

    monkeypatch.setattr(driver_mod.fem, "solve", checked_solve)
    rng = np.random.default_rng(20260814)
    for _ in range(8):
        side = int(rng.integers(8, 17))
        picks = rng.choice(side**3, size=int(rng.integers(4, 13)), replace=False)
        order = [tuple(int(c) for c in np.unravel_index(i, (side,) * 3)) for i in picks]
        schedule = VoxelSchedule(grid=VoxelGrid(dims=(side,) * 3), order=order)
        cfg = SimConfig(bcs=bcs, base_level=int(rng.integers(0, 4)), cooldown_steps=2)
        run(schedule, cfg)
    assert inactive_counts and min(inactive_counts) > 0


# SHA-256 of the final ``state.values`` bytes and the per-voxel PCG
# iterations of a small bed-resting print that refines between deposits,
# recorded before the step operator was carried from deposit to deposit.
MODE_PINS = {
    ("initial", True): (
        "ab9ba6320700b6902179e437c8f01f21e991b6761329a136172504fc53dd7843",
        [3, 9, 12, 18, 18, 15, 20, 21, 21, 21, 21, 21],
    ),
    ("initial", False): (
        "f399f4cc73e406ee243ca27ac91934fc36a8665e95e7a58d91ad42555d3d8714",
        [3, 9, 12, 27, 30, 33, 46, 51, 54, 57, 57, 57],
    ),
    ("held", True): (
        "02cfdef7ced7237727841644abc92f50e17aa7067a3a8e4259ff3af462fd770b",
        [0, 3, 6, 15, 15, 15, 15, 15, 18, 21, 18, 21],
    ),
    ("held", False): (
        "03e9da476f722b496e3147a40c9c80f58f84afe880a7ad39352c1e9e5abfbc3f",
        [0, 3, 6, 18, 21, 24, 24, 30, 36, 42, 45, 48],
    ),
}


@pytest.mark.parametrize("mode,lumped", sorted(MODE_PINS))
def test_mode_matrix_outputs_are_pinned_bytewise(mode, lumped):
    grid = VoxelGrid(dims=(8, 8, 8))
    schedule = gen_test_schedule("cuboid", grid, dims=(3, 2, 2), offset=(2, 3, 0))
    cfg = SimConfig(
        base_level=1, deposit_mode=mode, lumped_mass=lumped, cooldown_steps=2,
        material=MaterialParams(kappa=0.05, latent_source=0.3),
    )
    state, report = run(schedule, cfg)
    assert report.records[0].leaves < report.records[-1].leaves  # it refines
    digest, iters = MODE_PINS[(mode, lumped)]
    assert hashlib.sha256(state.values.tobytes()).hexdigest() == digest
    assert [r.solver_iters for r in report.records] == iters


def test_bed_sphere_end_to_end_bytes_hold_with_a_grown_and_a_rebuilt_node_table(monkeypatch):
    """A bed-supported sphere (r=6 in 16^3, 912 voxels) runs PCG, keeps every
    active temperature within [t_bed, t_deposit], and gives the same bytes on
    a second run, where each refine grows the node table in place, and on a
    run whose mesh drops its node table after every refine, so each
    refine's table is rebuilt from scratch by one sort of all leaf corners.
    The three prints take under 60 s."""
    schedule = gen_test_schedule("sphere", VoxelGrid(dims=(16, 16, 16)), radius=6,
                                 center=(8, 8, 6))
    assert len(schedule.order) == 912
    cfg = SimConfig()
    refine, build = OctreeMesh.refine_to_voxel, OctreeMesh._build_nodes
    builds = []

    def counted_build(mesh):
        builds.append(mesh)
        return build(mesh)

    def forgetful_refine(mesh, voxel):
        changed = refine(mesh, voxel)
        mesh._node_cache = None
        return changed

    monkeypatch.setattr(OctreeMesh, "_build_nodes", counted_build)
    t0 = time.perf_counter()
    runs = [run(schedule, cfg) for _ in range(2)]
    assert len(builds) == 2  # one per print, for its initial state
    monkeypatch.setattr(OctreeMesh, "refine_to_voxel", forgetful_refine)
    runs.append(run(schedule, cfg))
    elapsed = time.perf_counter() - t0
    assert len(builds) > 2 + 100
    assert elapsed < 60.0, f"three prints took {elapsed:.1f}s, not < 60s"

    state, report = runs[0]
    assert sum(r.solver_iters for r in report.records) > 0
    lo, hi = cfg.bcs.t_bed, cfg.bcs.t_deposit
    assert lo <= report.t_active_min and report.t_active_max <= hi
    assert lo <= report.final_min and report.final_max <= hi
    for other_state, other in runs[1:]:
        assert other_state.values.tobytes() == state.values.tobytes()
        assert [dataclasses.astuple(r)[:-1] for r in other.records] == [
            dataclasses.astuple(r)[:-1] for r in report.records]
        assert (other.t_active_min, other.t_active_max, other.checkpoints) == (
            report.t_active_min, report.t_active_max, report.checkpoints)


def test_plain_deposits_gather_table_rows_without_slicing(monkeypatch):
    """Building the stencil table, in the first print of a setup, is the only
    element kernel call on the driver's path; a second print makes none. Neither
    indexes a sparse matrix: each deposit splices rows gathered from the table."""
    couple = driver_mod.fem._couple
    calls = {"couple": 0, "getitem": 0}

    def counted_couple(*args):
        calls["couple"] += 1
        return couple(*args)

    def counted_getitem(self, key):
        calls["getitem"] += 1
        return getitem(self, key)

    getitem = sp.csr_matrix.__getitem__
    monkeypatch.setattr(driver_mod.fem, "_couple", counted_couple)
    monkeypatch.setattr(sp.csr_matrix, "__getitem__", counted_getitem, raising=False)
    schedule = gen_test_schedule("sphere", VoxelGrid(dims=(12, 12, 12)), radius=4,
                                 center=(6, 6, 4))
    assert len(schedule.order) > 100
    driver_mod.fem._stencil_table.cache_clear()
    for expected in (1, 0):
        calls["couple"] = 0
        run(schedule, SimConfig(cooldown_steps=2))
        assert calls["couple"] == expected
    assert calls["getitem"] == 0


def test_held_mode_pins_deposit_nodes_during_dwell():
    schedule = cuboid_schedule((2, 1, 1), grid_dims=(4, 4, 4))
    seen = {}

    def probe(tag, mesh, state):
        leaf = mesh.find_leaf((0, 0, 0))
        seen[tag] = state.values[mesh.leaf_nodes[leaf]].copy()

    held = SimConfig(deposit_mode="held", snapshot_fractions=(0.5, 1.0),
                     material=MaterialParams(kappa=0.05))
    run(schedule, held, sinks=probe)
    np.testing.assert_array_equal(seen["050"], 2.0)

    seen.clear()
    free = SimConfig(deposit_mode="initial", snapshot_fractions=(0.5, 1.0),
                     material=MaterialParams(kappa=0.05))
    run(schedule, free, sinks=probe)
    assert seen["050"].min() < 2.0  # bed contact cools the free voxel


def test_snapshot_cadence_and_checkpoint_tags():
    schedule = cuboid_schedule((4, 1, 1), grid_dims=(4, 4, 4))
    tags = []
    cfg = SimConfig(snapshot_fractions=(0.5, 1.0), snapshot_every=1)
    run(schedule, cfg, sinks=lambda t, m, s: tags.append(t))
    assert tags == ["voxel000001", "050", "voxel000003", "100"]


def test_cooldown_extends_time_after_last_voxel():
    schedule = cuboid_schedule((2, 2, 1), grid_dims=(4, 4, 4))
    cfg = SimConfig(cooldown_steps=5)
    state, report = run(schedule, cfg)
    assert report.final_time == 4 * 3 * 1.0 + 5.0
    assert report.t_active_max <= 2.0 + 1e-8


def test_latent_source_pushes_above_deposit_temperature():
    schedule = cuboid_schedule((2, 2, 1), grid_dims=(4, 4, 4))
    cfg = SimConfig(material=MaterialParams(latent_source=100.0))
    _, report = run(schedule, cfg)
    assert report.t_active_max > 2.0


def test_solver_failure_names_the_voxel(monkeypatch):
    schedule = cuboid_schedule((2, 1, 1), grid_dims=(4, 4, 4))

    def boom(*args, **kwargs):
        raise SolverError("synthetic breakdown", [1.0])

    monkeypatch.setattr(driver_mod.fem, "solve", boom)
    with pytest.raises(DriverError, match=r"voxel 1/2 \(0, 0, 0\)"):
        run(schedule, SimConfig())


def test_config_validation():
    with pytest.raises(DriverError):
        SimConfig(steps_per_voxel=0)
    with pytest.raises(DriverError):
        SimConfig(dt=0.0)
    with pytest.raises(DriverError, match="dt must be positive and finite"):
        SimConfig(dt=float("inf"))
    with pytest.raises(DriverError, match="solver_tol must be positive and finite"):
        SimConfig(solver_tol=float("nan"))
    with pytest.raises(DriverError):
        SimConfig(deposit_mode="sometimes")
    with pytest.raises(DriverError):
        SimConfig(snapshot_fractions=(0.0,))
    for label in ("demo\nblock", "a\tb=c"):
        with pytest.raises(DriverError, match="label must be printable"):
            SimConfig(label=label)
    assert SimConfig(label="demo part").label == "demo part"  # written as demo_part


@pytest.mark.parametrize("field", ["steps_per_voxel", "cooldown_steps", "snapshot_every",
                                   "base_level"])
def test_config_counts_must_be_integers(field):
    """A count that is a float or a bool fails at construction, naming its
    field; Python and numpy integers pass."""
    for bad in (2.5, 2.0, True, "2"):
        with pytest.raises(DriverError, match=rf"^{field} must be an integer, got "):
            SimConfig(**{field: bad})
    for good in (2, np.int64(2), np.uint8(2)):
        assert getattr(SimConfig(**{field: good}), field) == 2


FRACTIONS = "snapshot_fractions must be a tuple of numbers, got "


@pytest.mark.parametrize("kwargs,message", [
    ({"dt": "1"}, "dt must be a number, got '1'"),
    ({"dt": True}, "dt must be a number, got True"),
    ({"solver_tol": None}, "solver_tol must be a number, got None"),
    ({"material": None}, "material must be a MaterialParams, got None"),
    ({"bcs": 3}, "bcs must be a BoundarySpec, got 3"),
    ({"lumped_mass": "yes"}, "lumped_mass must be true or false, got 'yes'"),
    ({"lumped_mass": 1}, "lumped_mass must be true or false, got 1"),
    ({"label": 3}, "label must be a string, got 3"),
    ({"snapshot_fractions": ("a",)}, FRACTIONS + r"\('a',\)"),
    ({"snapshot_fractions": (True,)}, FRACTIONS + r"\(True,\)"),
    ({"snapshot_fractions": 0.5}, FRACTIONS + "0.5"),
])
def test_config_field_types_checked(kwargs, message):
    """A field of the wrong type fails at construction as a DriverError that
    names it, not as a bare TypeError or AttributeError later."""
    with pytest.raises(DriverError, match=rf"^{message}$"):
        SimConfig(**kwargs)


def test_config_accepts_numpy_scalars():
    cfg = SimConfig(dt=np.float64(0.5), solver_tol=np.float32(1e-6), lumped_mass=np.bool_(False),
                    snapshot_fractions=(np.float64(0.5), 1))
    assert (cfg.dt, cfg.lumped_mass, cfg.snapshot_fractions) == (0.5, False, (0.5, 1))


@pytest.mark.parametrize(
    "fractions,pair,tag",
    [((0.30, 0.3049, 1.0), "0.3 and 0.3049", "030"), ((0.5, 0.5), "0.5 and 0.5", "050")],
)
def test_snapshot_fractions_sharing_a_tag_rejected(fractions, pair, tag):
    with pytest.raises(DriverError, match=rf"fractions {pair} share the snapshot tag {tag}"):
        SimConfig(snapshot_fractions=fractions)
    SimConfig(snapshot_fractions=(0.30, 0.31, 1.0))  # distinct tags still pass


def test_compare_sparsity_is_deterministic_and_reduces_voxels():
    grid = VoxelGrid(dims=(4, 4, 8))
    schedule = gen_test_schedule("cuboid", grid, dims=(4, 4, 8))
    cfg = SimConfig()
    full, full_again, medium = compare_sparsity(
        schedule,
        [SparsityPolicy.none(), SparsityPolicy.none(), SparsityPolicy.medium()],
        cfg,
    )
    assert full.n_voxels == 128
    assert full.checkpoints == full_again.checkpoints
    assert full.report.final_mean == full_again.report.final_mean
    assert medium.n_voxels < full.n_voxels
    assert set(medium.checkpoints) == {30, 60, 100}
