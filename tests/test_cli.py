"""CLI contract: subcommands, exit codes, pipelines, stage-named errors."""

import io

import pytest

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


def test_voxelize_from_stdin_to_stdout(tmp_path, capsys, monkeypatch):
    gcode = tmp_path / "bar.gcode"
    assert main(["gen", "--shape", "cuboid", "--dims", "2", "1", "1",
                 "--grid", "4", "4", "4", "--emit", "gcode", "-o", str(gcode)]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(gcode.read_text()))
    assert main(["voxelize", "-", "--grid", "4", "4", "4", "-o", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("grid 4 4 4 ")
    assert len(out.strip().splitlines()) == 3  # header + 2 voxels


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
