"""CLI contract: subcommands, exit codes, pipelines, stage-named errors."""

import contextlib
import hashlib
import io
import os
import string
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxtherm
from voxtherm.cli import main
from voxtherm.config import save_config
from voxtherm.driver import SimConfig
from voxtherm.output import parse_report, read_vtk
from voxtherm.schedule import load_schedule


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "voxelize" in capsys.readouterr().out
    for sub in ("voxelize", "simulate", "gen", "mesh-info"):
        assert main([sub, "--help"]) == 0


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["voxelize", "part.gcode", "-o", "out.sched"]) == 2  # --grid missing
    capsys.readouterr()


def test_gen_schedule_to_file(tmp_path):
    out = tmp_path / "cuboid.sched"
    rc = main(["gen", "--shape", "cuboid", "--dims", "4", "4", "2",
               "--grid", "4", "4", "4", "-o", str(out)])
    assert rc == 0
    schedule = load_schedule(out)
    assert len(schedule.order) == 32


def test_gen_gcode_voxelize_round_trip(tmp_path):
    gcode = tmp_path / "cuboid.gcode"
    sched = tmp_path / "cuboid.sched"
    assert main(["gen", "--shape", "cuboid", "--dims", "4", "4", "2",
                 "--grid", "4", "4", "4", "--emit", "gcode", "-o", str(gcode)]) == 0
    assert gcode.read_text().startswith("; voxtherm raster")
    assert main(["voxelize", str(gcode), "--grid", "4", "4", "4",
                 "-o", str(sched)]) == 0
    schedule = load_schedule(sched)
    assert len(schedule.order) == 32
    direct = tmp_path / "direct.sched"
    main(["gen", "--shape", "cuboid", "--dims", "4", "4", "2",
          "--grid", "4", "4", "4", "-o", str(direct)])
    assert sched.read_text() == direct.read_text()


@pytest.mark.parametrize("shape, digest", [
    (["cuboid", "--dims", "3", "2", "2", "--offset", "1", "2", "0",
      "--grid", "6", "6", "4", "--voxel-size", "0.4", "--origin", "1.5", "-2", "0.25"],
     "d837f7ecbf2cd1b059e25cc041e0408070084e6e3075b60bf0a9966c1f116ec9"),
    (["sphere", "--radius", "3.2", "--grid", "8", "8", "8",
      "--voxel-size", "0.25", "--origin", "1.0", "-2.0", "0.125"],
     "7d16ce0265f07245b4da66a4fce57ffe76ec48042376d89b0e581ef72d67152a"),
], ids=["cuboid", "sphere"])
def test_gen_gcode_bytes_are_pinned(tmp_path, shape, digest):
    out = tmp_path / "part.gcode"
    assert main(["gen", "--shape", *shape, "--emit", "gcode", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_voxelize_from_stdin_to_stdout(tmp_path, capsys, monkeypatch):
    gcode = tmp_path / "bar.gcode"
    assert main(["gen", "--shape", "cuboid", "--dims", "2", "1", "1",
                 "--grid", "4", "4", "4", "--emit", "gcode", "-o", str(gcode)]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(gcode.read_text()))
    assert main(["voxelize", "-", "--grid", "4", "4", "4", "-o", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("grid 4 4 4 ")
    assert len(out.strip().splitlines()) == 3  # header + 2 voxels


def test_voxelize_out_of_grid_segment_names_plain_numbers(tmp_path, capsys):
    gcode = tmp_path / "long.gcode"
    gcode.write_text("G1 X50 E1\n")
    assert main(["voxelize", str(gcode), "--grid", "4", "4", "4",
                 "-o", str(tmp_path / "x.sched")]) == 1
    err = capsys.readouterr().err
    assert "segment (0.0, 0.0, 0.0)->(50.0, 0.0, 0.0): end point outside grid" in err
    assert "np." not in err


def test_voxelize_missing_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.gcode"
    assert main(["voxelize", str(missing), "--grid", "4", "4", "4",
                 "-o", str(tmp_path / "x.sched")]) == 1
    err = capsys.readouterr().err
    assert "reading G-code failed" in err
    assert "nope.gcode" in err


def test_voxelize_bad_gcode_names_parse_stage(tmp_path, capsys):
    bad = tmp_path / "bad.gcode"
    bad.write_text("G90\nG2 X5 Y5 I1 J1\n")
    assert main(["voxelize", str(bad), "--grid", "4", "4", "4",
                 "-o", str(tmp_path / "x.sched")]) == 1
    err = capsys.readouterr().err
    assert "G-code parsing failed" in err
    assert "line 2" in err


def test_gen_shape_errors_exit_one(tmp_path, capsys):
    assert main(["gen", "--shape", "sphere", "--radius", "90",
                 "--grid", "8", "8", "8", "-o", str(tmp_path / "s.sched")]) == 1
    assert "shape generation failed" in capsys.readouterr().err
    assert main(["gen", "--shape", "sphere",
                 "--grid", "8", "8", "8", "-o", str(tmp_path / "s.sched")]) == 1
    assert "requires --radius" in capsys.readouterr().err


def test_sphere_outside_the_grid_names_plain_numbers(tmp_path, capsys):
    assert main(["gen", "--shape", "sphere", "--radius", "90",
                 "--grid", "8", "8", "8", "-o", str(tmp_path / "s.sched")]) == 1
    err = capsys.readouterr().err
    assert "sphere r=90.0 at (4.0, 4.0, 4.0) exceeds grid (8, 8, 8)" in err
    assert "np.float64" not in err


@pytest.mark.parametrize("radius", ["1e6", "1e20"])
def test_gen_huge_sphere_exits_one(tmp_path, capsys, radius):
    out = tmp_path / "s.sched"
    assert main(["gen", "--shape", "sphere", "--grid", "4", "4", "4", "--radius", radius,
                 "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"sphere r={float(radius)} at (2.0, 2.0, 2.0) exceeds grid (4, 4, 4)" in err
    assert "Warning" not in err and not out.exists()


@pytest.mark.parametrize("geometry", [
    ["--radius", "nan"],
    ["--radius", "inf"],
    ["--radius", "2", "--center", "nan", "4", "4"],
])
def test_gen_non_finite_sphere_exits_one(tmp_path, capsys, geometry):
    for emit in ("schedule", "gcode"):
        out = tmp_path / f"s.{emit}"
        assert main(["gen", "--shape", "sphere", *geometry, "--grid", "8", "8", "8",
                     "--emit", emit, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "shape generation failed" in err and "finite" in err
        assert not out.exists()


def test_non_finite_grid_exits_one(tmp_path, capsys):
    gcode = tmp_path / "bar.gcode"
    assert main(["gen", "--shape", "cuboid", "--dims", "2", "1", "1",
                 "--grid", "4", "4", "4", "--emit", "gcode", "-o", str(gcode)]) == 0
    for option in (["--voxel-size", "inf"], ["--origin", "0", "nan", "0"]):
        assert main(["voxelize", str(gcode), "--grid", "4", "4", "4", *option,
                     "-o", str(tmp_path / "x.sched")]) == 1
        err = capsys.readouterr().err
        assert "grid setup failed" in err and "finite" in err
    sched = tmp_path / "nan.sched"
    sched.write_text("grid 4 4 4 1.0 nan 0.0 0.0\n0 0 0\n")
    assert main(["mesh-info", str(sched)]) == 1
    err = capsys.readouterr().err
    assert "schedule loading failed" in err and "origin must be finite" in err
    assert f"{sched}:1:" in err


def test_grid_past_the_octree_limit_exits_one(tmp_path, capsys):
    """A grid the octree cannot hold fails at grid setup, in voxelize, not
    later as a max_level the user never set."""
    gcode = tmp_path / "bar.gcode"
    gcode.write_text("G1 X1 E1\n")
    assert main(["voxelize", str(gcode), "--grid", "524289", "1", "1",
                 "-o", str(tmp_path / "x.sched")]) == 1
    err = capsys.readouterr().err
    assert "grid setup failed: grid dims must be at most 524288, got (524289, 1, 1)" in err
    assert not (tmp_path / "x.sched").exists()


def test_non_integer_grid_dimension_exits_one(tmp_path, capsys):
    sched = tmp_path / "bad.sched"
    sched.write_text("grid 4 x 4 1.0 0 0 0\n0 0 0\n")
    for command in (["mesh-info", str(sched)],
                    ["simulate", "--schedule", str(sched), "-o", str(tmp_path / "out")]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert f"schedule loading failed: {sched}:1: malformed grid header" in err
        assert "ValueError" not in err


def test_simulate_end_to_end(tmp_path, capsys):
    sched = tmp_path / "part.sched"
    cfg_path = tmp_path / "run.cfg"
    outdir = tmp_path / "out"
    main(["gen", "--shape", "cuboid", "--dims", "2", "2", "1",
          "--grid", "4", "4", "4", "-o", str(sched)])
    save_config(SimConfig(steps_per_voxel=1, label="tiny"), cfg_path)
    rc = main(["simulate", "--schedule", str(sched), "--config", str(cfg_path),
               "-o", str(outdir)])
    assert rc == 0
    for pct in ("030", "060", "100"):
        data = read_vtk(outdir / f"snapshot_{pct}.vtk")
        assert (data["cell_types"] == 12).all()
    rows, summary = parse_report((outdir / "report.csv").read_text())
    assert len(rows) == 4
    assert summary["print_voxels"] == "4"
    assert summary["geometry"] == "tiny"
    assert "final mean active T" in capsys.readouterr().err


def test_simulate_defaults_without_config(tmp_path):
    sched = tmp_path / "part.sched"
    outdir = tmp_path / "out"
    main(["gen", "--shape", "cuboid", "--dims", "2", "1", "1",
          "--grid", "4", "4", "4", "-o", str(sched)])
    assert main(["simulate", "--schedule", str(sched), "-o", str(outdir)]) == 0
    assert (outdir / "report.csv").exists()


def test_simulate_missing_schedule_exits_one(tmp_path, capsys):
    missing = tmp_path / "ghost.sched"
    assert main(["simulate", "--schedule", str(missing),
                 "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "schedule loading failed" in err
    assert "ghost.sched" in err


def test_simulate_bad_config_exits_one(tmp_path, capsys):
    sched = tmp_path / "part.sched"
    main(["gen", "--shape", "cuboid", "--dims", "1", "1", "1",
          "--grid", "4", "4", "4", "-o", str(sched)])
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("[solver]\nmystery = 1\n")
    assert main(["simulate", "--schedule", str(sched), "--config", str(cfg_path),
                 "-o", str(tmp_path / "out")]) == 1
    assert "config loading failed" in capsys.readouterr().err


def test_simulate_config_naming_max_level_exits_one(tmp_path, capsys):
    """The octree depth comes from the grid; a config file that still sets
    max_level is rejected, naming the file and the key."""
    sched = tmp_path / "part.sched"
    main(["gen", "--shape", "cuboid", "--dims", "1", "1", "1",
          "--grid", "4", "4", "4", "-o", str(sched)])
    cfg_path = tmp_path / "old.cfg"
    cfg_path.write_text("[grid]\nbase_level = 2\nmax_level = auto\n")
    assert main(["simulate", "--schedule", str(sched), "--config", str(cfg_path),
                 "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"config loading failed: {cfg_path}: unknown key 'max_level' in [grid]" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("side", [1, 2])
def test_default_config_runs_on_tiny_grids(tmp_path, capsys, side):
    """A grid shallower than the default base level 2 caps the base level at
    its depth: gen, simulate and mesh-info all succeed on it."""
    grid = [str(side)] * 3
    sched = tmp_path / "tiny.sched"
    assert main(["gen", "--shape", "cuboid", "--dims", *grid, "--grid", *grid,
                 "-o", str(sched)]) == 0
    assert main(["simulate", "--schedule", str(sched), "-o", str(tmp_path / "out")]) == 0
    rows, summary = parse_report((tmp_path / "out" / "report.csv").read_text())
    assert len(rows) == side**3
    capsys.readouterr()
    assert main(["mesh-info", str(sched), "--dump"]) == 0
    out = capsys.readouterr().out
    assert f"voxels {side**3}" in out and f"active {side**3}" in out
    assert f"level {side - 1}: {side**3} leaves" in out


def test_mesh_info_summary_and_dump(tmp_path, capsys):
    sched = tmp_path / "part.sched"
    main(["gen", "--shape", "cuboid", "--dims", "2", "2", "2",
          "--grid", "16", "16", "16", "-o", str(sched)])
    capsys.readouterr()
    assert main(["mesh-info", str(sched)]) == 0
    out = capsys.readouterr().out
    assert "grid 16x16x16" in out
    assert "voxels 8" in out
    assert "active 8" in out
    assert main(["mesh-info", str(sched), "--dump"]) == 0
    dump_out = capsys.readouterr().out
    leaves = next(int(ln.split()[1]) for ln in dump_out.splitlines()
                  if ln.startswith("leaves "))
    leaf_lines = [ln for ln in dump_out.splitlines() if len(ln.split()) == 6
                  and ln.split()[0].isdigit()]
    assert len(leaf_lines) == leaves


# A solve with more free unknowns than OpenBLAS's 10,000-element threshold for
# splitting a dot product, run after the CLI's imports: a 28 x 28 x 14 block on
# the bed (11,774 free unknowns) with a seeded random field.
BLAS_PROBE = """
import hashlib
import voxtherm.cli
import numpy as np
from voxtherm.fem import BoundarySpec, MaterialParams, assemble, initial_state, solve
from voxtherm.octree import OctreeMesh

mesh = OctreeMesh(max_level=5, base_level=5)
mesh.classify(np.stack(np.meshgrid(*map(np.arange, (28, 28, 14)), indexing="ij"), -1)
              .reshape(-1, 3))
state = initial_state(mesh, BoundarySpec())
state.values = np.random.default_rng(6).random(len(state.values)) + 1.0
system = assemble(mesh, state, MaterialParams(), BoundarySpec(), 1.0)
x, iters = solve(system, x0=state.values)
print(len(system.free), iters, hashlib.sha256(x.tobytes()).hexdigest())
"""


def test_cli_solves_are_independent_of_the_blas_thread_count():
    """Through the CLI's import path, a solve gives the same bytes with no
    thread variable set as with one BLAS thread."""
    env = {k: v for k, v in os.environ.items()
           if not k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))}
    env["PYTHONPATH"] = str(Path(voxtherm.__file__).resolve().parent.parent)
    outputs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        done = subprocess.run([sys.executable, "-c", BLAS_PROBE], env={**env, **extra},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert int(outputs[0][0]) == 11774 and int(outputs[0][1]) > 0
    assert outputs[0] == outputs[1]


_IMPORT_PROBE = """
import contextlib, io, sys
import voxtherm.cli
from voxtherm import fem

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert voxtherm.cli.main(list(argv)) == 0, argv

grid = ["--grid", "4", "4", "4"]
run("gen", "--shape", "cuboid", *grid, "--dims", "2", "2", "2", "--emit", "gcode",
    "-o", "part.gcode")
run("voxelize", "part.gcode", *grid, "-o", "part.sched")
run("mesh-info", "part.sched")
print("scipy.sparse" in sys.modules, fem._stencil_table.cache_info().currsize)
run("simulate", "--schedule", "part.sched", "-o", "out")
print("scipy.sparse" in sys.modules)
"""


def test_cli_import_leaves_the_stencil_table_unbuilt(tmp_path):
    """scipy and the stencil table are loaded on the first assembly, not at
    import, so a process that never solves (gen, voxelize, mesh-info) never
    pays for them; simulate does."""
    env = {**os.environ, "PYTHONPATH": str(Path(voxtherm.__file__).resolve().parent.parent)}
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "0", "True"]


# Argv for each command: whole option groups it accepts, with good and bad
# values, and noise tokens. Numbers stay small, so no argv can ask for a large
# grid, solid or print. Free text has no digits, dots or path separators, so it
# names no number, no "np." and no file outside the example's directory.
_GRID = [["--grid", "4", "4", "4"], ["--grid", "0", "4", "4"], ["--grid", "524289", "1", "1"],
         ["--voxel-size", "0.5"], ["--voxel-size", "nan"], ["--origin", "0", "0", "0"],
         ["--origin", "0", "inf", "0"], ["-o", "out"], ["-o", "-"]]
_GEN = [["--shape", "cuboid"], ["--shape", "sphere"], ["--dims", "2", "1", "1"],
        ["--dims", "0", "1", "1"], ["--offset", "1", "0", "0"], ["--offset", "3", "3", "3"],
        ["--radius", "1.5"], ["--radius", "9"], ["--radius", "nan"], ["--center", "2", "2", "2"],
        ["--emit", "gcode"], ["--emit", "schedule"]]
_FREE = "".join(c for c in string.printable if c not in string.digits + "./\\~")
_TOKENS = ["voxelize", "simulate", "gen", "mesh-info", "--grid", "--voxel-size", "--origin",
           "-o", "--schedule", "--config", "--shape", "--dims", "--radius", "--emit",
           "--base-level", "--dump", "-h", "-", "0", "1", "4", "-1", "0.5", "nan"]


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    files = {"part.gcode": "G0 X0.5 Y0.5 Z0.5\nG1 X2.5 E1\n",
             "part.sched": "grid 4 4 4 1.0 0.0 0.0 0.0\n0 0 0\n1 0 0\n",
             "run.cfg": "[schedule]\nsteps_per_voxel = 1\n",
             "bad.cfg": "[physics]\n"}
    for name, text in files.items():
        (root / name).write_text(text)
    return [str(root / name) for name in [*files, "absent"]]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_short_argv_exits_with_a_code_and_no_traceback(argv_files, data):
    """Short argv lists over all four commands return 0, 1 or 2 and never
    raise; stderr holds no traceback and no numpy repr."""
    gcode, sched, cfg, bad_cfg, absent = argv_files
    positional = {"voxelize": [gcode, "-", absent], "mesh-info": [sched, "-", absent]}
    required = {"voxelize": ["--grid", "4", "4", "4", "-o", "out"],
                "simulate": ["--schedule", sched, "-o", "out"],
                "gen": ["--shape", "cuboid", "--dims", "2", "1", "1", "--grid", "4", "4", "4",
                        "-o", "out"],
                "mesh-info": []}
    options = {"voxelize": _GRID, "gen": _GRID + _GEN,
               "simulate": [["--schedule", absent], ["--config", cfg], ["--config", bad_cfg]],
               "mesh-info": [["--base-level", "1"], ["--base-level", "3"], ["--dump"]]}
    argv = []
    command = data.draw(st.sampled_from([*options, None]))
    if command:
        argv.append(command)
        if command in positional:
            argv += data.draw(st.lists(st.sampled_from(positional[command]), max_size=1))
        argv += required[command] if data.draw(st.integers(0, 3)) else []
        argv += sum(data.draw(st.lists(st.sampled_from(options[command]), max_size=4)), [])
    noise = data.draw(st.lists(st.one_of(st.sampled_from([*_TOKENS, *argv_files]),
                                         st.text(alphabet=_FREE, min_size=1, max_size=3)),
                               max_size=1))
    for token in noise:
        argv.insert(data.draw(st.integers(0, len(argv))), token)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as cwd, contextlib.chdir(cwd), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(Path(sched).read_text())):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue() and "np." not in err.getvalue(), argv
