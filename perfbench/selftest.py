"""Self-test of the benchmark itself; runs in a few seconds.

Usage: ``python3 perfbench/selftest.py``. Checks that BENCHMARK.json and the
metrics the benchmark prints agree by name and unit, that a corrupted
snapshot and a raised exception each count as a failed print, that tracing
changes no output, and that the seeded inputs keep their voxel counts.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import env

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def quietly(fn, *args):
    """Call ``fn`` with stderr captured; returns (result, captured text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        return fn(*args), err.getvalue()


def finite(metrics: dict) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())


def main() -> int:
    env.prepare_process()
    import measure
    from voxtherm import fem, output
    from workloads import WORKLOADS, Workload, part_cells, prepare, raster_gcode

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END,
           "BENCHMARK.json end_to_end names and units match the printed metrics")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER,
           "BENCHMARK.json per_layer names and units match the printed metrics")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists every workload")
    expect([measure.tail_percentile(n) for n in (256, 1154, 4224)] == [95.0, 99.0, 99.5],
           "tail percentile keeps at least ten samples beyond it")

    for w in WORKLOADS.values():
        texts = [raster_gcode(part_cells(w, seed)) for seed in (0, 1, 2, 1)]
        counts = {len(prepare(w, t)[1].order) for t in texts}
        expect(texts[1] == texts[3] and texts[0] != texts[1] and counts == {w.voxels},
               f"{w.name}: seeds are reproducible, translate the part, keep {w.voxels} voxels")

    path, _ = measure.write_input(WORKLOADS["sparse_sphere32"], 0)
    expect(len(measure.probe_setup(WORKLOADS["sparse_sphere32"], path, runs=1)) == 1,
           "set-up probe builds the schedule in a fresh process")

    tiny = Workload(name="selftest_block", kind="simulate", dims=(16, 16, 16),
                    shape=("cuboid", (3, 3, 2), (6, 6, 0)), voxels=18)
    _, text = measure.write_input(tiny, 0)
    case = measure.setup_case(tiny, 0, text, expected=None)
    case.expected = measure.print_once(case).digests

    attempted, failed, metrics, _ = measure.run_untraced(case, 0.0, [0.5])
    expect((attempted, failed) == (1, 0) and list(metrics) == list(measure.END_TO_END)
           and finite(metrics) and metrics["pass_frac"] == 1.0,
           "a clean print passes and yields every end-to-end metric")

    write_vtk = output.write_vtk

    def corrupt_vtk(mesh, state, path, **kwargs):
        write_vtk(mesh, state, path, **kwargs)
        data = bytearray(path.read_bytes())
        data[-2] ^= 1
        path.write_bytes(bytes(data))

    output.write_vtk = corrupt_vtk
    try:
        (attempted, failed, metrics, _), err = quietly(measure.run_untraced, case, 0.0, [0.5])
    finally:
        output.write_vtk = write_vtk
    expect((attempted, failed) == (1, 1) and metrics["pass_frac"] == 0.0
           and "snapshot_100.vtk digest differs" in err,
           "a corrupted snapshot counts as a failed print")

    solve = fem.solve

    def broken_solve(*args, **kwargs):
        raise fem.SolverError("injected failure", [])

    fem.solve = broken_solve
    try:
        (attempted, failed, metrics, _), err = quietly(measure.run_untraced, case, 0.0, [0.5])
    finally:
        fem.solve = solve
    expect((attempted, failed) == (1, 1) and metrics["pass_frac"] == 0.0
           and "injected failure" in err,
           "an exception counts as a failed print")

    from tracer import Tracer
    from voxtherm.octree import OctreeMesh

    wrapped = [(fem, "solve"), (output, "write_vtk"), (OctreeMesh, "node_coords"),
               (OctreeMesh, "refine_to_voxel"), (fem.LinearSystem, "with_rhs")]
    originals = [owner.__dict__[attr] for owner, attr in wrapped]
    with Tracer() as setup:
        case = measure.setup_case(tiny, 0, text, expected=case.expected)
    attempted, failed, metrics, _ = measure.run_traced(case, 0.0, setup)
    expect((attempted, failed) == (2, 0) and list(metrics) == list(measure.PER_LAYER)
           and finite(metrics) and metrics["fem.pcg_iters"] > 0,
           "tracing changes no output and yields every per-layer metric")
    expect(all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(wrapped, originals)),
           "the tracer restores the functions it wrapped")

    ball = Workload(name="selftest_ball", kind="replay", dims=(16, 16, 16),
                    shape=("sphere", 2, (8, 8, 8)), voxels=32)
    _, text = measure.write_input(ball, 1)
    case = measure.setup_case(ball, 1, text, expected=None)
    attempted, failed, metrics, _ = measure.run_untraced(case, 0.0, [0.5])
    expect((attempted, failed) == (1, 0) and finite(metrics), "a clean replay passes")

    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
