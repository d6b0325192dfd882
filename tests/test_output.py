"""VTK snapshot and CSV report emitters."""

from pathlib import Path

import numpy as np
import pytest

from voxtherm.driver import SimConfig, SimReport, VoxelRecord, run
from voxtherm.fem import BoundarySpec, initial_state
from voxtherm.octree import OctreeMesh
from voxtherm.output import (
    REPORT_HEADER,
    format_report,
    format_vtk,
    parse_report,
    read_vtk,
    write_report,
    write_vtk,
)
from voxtherm.schedule import VoxelGrid, gen_test_schedule

GOLDEN_DIR = Path(__file__).parent / "data"

# VTK hexahedron vertex order around the cell
VTK_CORNERS = [
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
    (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
]


def one_element_setup():
    mesh = OctreeMesh(max_level=2, base_level=2)
    state = initial_state(mesh, BoundarySpec())
    mesh.classify([(1, 2, 0)])
    return mesh, state


def test_single_active_element_file(tmp_path):
    mesh, state = one_element_setup()
    state.values[:] = 0.25
    path = tmp_path / "one.vtk"
    write_vtk(mesh, state, path)
    data = read_vtk(path)
    assert data["points"].shape == (8, 3)
    assert data["cells"].shape == (1, 8)
    assert list(data["cell_types"]) == [12]
    np.testing.assert_array_equal(data["temperature"], 0.25)
    assert list(data["level"]) == [2]
    assert list(data["active"]) == [1]
    corners = data["points"][data["cells"][0]] - np.array([1, 2, 0])
    np.testing.assert_array_equal(corners, np.array(VTK_CORNERS, dtype=float))


def test_zero_active_elements_is_valid(tmp_path):
    mesh = OctreeMesh(max_level=2, base_level=2)
    state = initial_state(mesh, BoundarySpec())
    path = tmp_path / "empty.vtk"
    write_vtk(mesh, state, path)
    data = read_vtk(path)
    assert data["points"].shape == (0, 3)
    assert data["cells"].shape == (0, 8)


def test_point_temperatures_follow_state(tmp_path):
    mesh, state = one_element_setup()
    rng = np.random.default_rng(2)
    state.values[:] = rng.random(len(state.values))
    path = tmp_path / "field.vtk"
    write_vtk(mesh, state, path)
    data = read_vtk(path)
    leaf = mesh.find_leaf((1, 2, 0))
    for row, nid in enumerate(np.unique(mesh.leaf_nodes[leaf])):
        assert data["temperature"][row] == pytest.approx(state.values[nid], rel=1e-8)


def test_vtk_rejects_mismatched_state(tmp_path):
    mesh, state = one_element_setup()
    state.values = state.values[:-1]
    with pytest.raises(ValueError):
        format_vtk(mesh, state)


def fake_report(n=3):
    records = [
        VoxelRecord(voxel_ordinal=i + 1, leaves=64 + i, active_elements=i + 1,
                    nodes=125 + i, solver_iters=5 + i, wall_ms=1.25)
        for i in range(n)
    ]
    return SimReport(
        label="demo part", dims=(4, 4, 2), n_voxels=n, records=records,
        checkpoints={100: 1.5}, t_active_min=1.0, t_active_max=2.0,
        final_min=1.1, final_mean=1.5, final_max=1.9,
        final_time=float(3 * n), wall_s=0.5,
    )


def test_report_rows_and_summary():
    text = format_report(fake_report(3))
    rows, summary = parse_report(text)
    assert len(rows) == 3
    assert rows[0] == {
        "voxel_ordinal": 1, "leaves": 64, "active_elements": 1,
        "nodes": 125, "solver_iters": 5, "wall_ms": 1.25,
    }
    assert summary["geometry"] == "demo_part"
    assert summary["resolution"] == "4x4x2"
    assert summary["print_voxels"] == "3"
    assert float(summary["t_active_max"]) == 2.0
    assert float(summary["final_mean"]) == 1.5


def test_empty_report_is_header_only():
    report = fake_report(0)
    report.records = []
    report.n_voxels = 0
    text = format_report(report)
    assert text == REPORT_HEADER + "\n"
    rows, summary = parse_report(text)
    assert rows == [] and summary == {}


def test_report_file_round_trip(tmp_path):
    path = tmp_path / "report.csv"
    write_report(fake_report(2), path)
    rows, summary = parse_report(path.read_text())
    assert len(rows) == 2
    assert summary["print_voxels"] == "2"


def test_parse_report_rejects_foreign_text():
    with pytest.raises(ValueError):
        parse_report("just,some,csv\n1,2,3\n")


def test_cuboid_snapshot_matches_golden_file(tmp_path):
    """Frozen end-state snapshot of the 32-voxel reference run."""
    grid = VoxelGrid(dims=(4, 4, 2))
    schedule = gen_test_schedule("cuboid", grid, dims=(4, 4, 2))
    captured = {}

    def sink(tag, mesh, state):
        if tag == "100":
            captured["text"] = format_vtk(mesh, state)

    run(schedule, SimConfig(), sinks=sink)
    golden = (GOLDEN_DIR / "cuboid_4x4x2_snapshot_100.vtk").read_text()
    assert captured["text"] == golden
