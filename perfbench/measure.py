"""One workload's measured loop: set-up, prints, output checks, metrics.

A *print* is one pass over the whole schedule after set-up: ``driver.run``
with a VTK sink followed by ``output.write_report`` for the simulate
workloads, or the ``mesh-info`` octree replay. Each print is checked; a
print that fails a check or raises counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from voxtherm import driver, output
from voxtherm.octree import OctreeMesh

import env
from tracer import Tracer
from workloads import Workload, part_cells, prepare, raster_gcode, serpentine

DIGESTS = Path(__file__).resolve().parent / "digests.json"
PROBE = Path(__file__).resolve().parent / "probe.py"
T_TOL = 1e-8  # active temperatures stay within [t_bed, t_deposit] up to this
SETUP_RUNS = 5
REPLAY_BASE_LEVEL = 2  # the mesh-info default
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0)

END_TO_END = {
    "setup_s": "s",
    "voxels_per_s": "1/s",
    "voxel_ms_p50": "ms",
    "voxel_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
PER_LAYER = {
    "gcode.parse_s": "s",
    "gcode.segments": "count",
    "schedule.build_s": "s",
    "schedule.sparsity_s": "s",
    "schedule.voxels": "count",
    "octree.refine_s": "s",
    "octree.balance_s": "s",
    "octree.classify_s": "s",
    "octree.nodes_s": "s",
    "octree.refine_calls": "count",
    "octree.splits": "count",
    "octree.node_builds": "count",
    "octree.node_cache_hit_ratio": "ratio",
    "octree.leaves_final": "count",
    "octree.nodes_final": "count",
    "fem.transfer_s": "s",
    "fem.activate_s": "s",
    "fem.assemble_s": "s",
    "fem.with_rhs_s": "s",
    "fem.solve_s": "s",
    "fem.assemble_calls": "count",
    "fem.solve_calls": "count",
    "fem.solves_per_assemble": "ratio",
    "fem.pcg_iters": "count",
    "fem.pcg_iters_per_solve": "ratio",
    "fem.free_dofs_mean": "count",
    "fem.active_node_share": "ratio",
    "fem.operator_nnz_final": "count",
    "driver.run_s": "s",
    "driver.self_s": "s",
    "output.vtk_s": "s",
    "output.report_s": "s",
    "output.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}
SETUP_SPANS = ("gcode.parse", "schedule.build", "schedule.sparsity")
# Spans that only ever run inside driver.run on the simulate workloads.
DRIVER_LAYERS = ("octree.", "fem.", "output.vtk")


@dataclass
class Case:
    """A workload at one seed, set up and ready to print."""

    workload: Workload
    gcode_lines: int
    schedule: object
    outdir: Path
    expected: dict | None  # committed digests, on the default seed only
    problems: list[str] = field(default_factory=list)


@dataclass
class Print:
    seconds: float
    voxel_ms: list[float]
    digests: dict[str, str]
    pcg_iters: int
    leaves: int
    nodes: int
    out_bytes: int
    problems: list[str]


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def normalized_report(text: str) -> str:
    """Report text without the wall-clock column and footer field."""
    out = []
    for ln in text.splitlines():
        if ln.startswith("# summary"):
            out.append(" ".join(t for t in ln.split() if not t.startswith("time_s=")))
        elif "," in ln and not ln.startswith("voxel_ordinal"):
            out.append(ln.rsplit(",", 1)[0])
        else:
            out.append(ln)
    return "\n".join(out)


def committed_digests(name: str) -> dict:
    return json.loads(DIGESTS.read_text())[name]


def write_input(workload: Workload, seed: int) -> tuple[Path, str]:
    text = raster_gcode(part_cells(workload, seed))
    workdir = env.WORK / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "input.gcode"
    path.write_text(text)
    return path, text


def setup_case(workload: Workload, seed: int, text: str, expected: dict | None) -> Case:
    """In-process set-up; checks the schedule against the generated part."""
    _, sched = prepare(workload, text)
    problems = []
    order = [tuple(v) for v in sched.order]
    if len(order) != workload.voxels:
        problems.append(f"schedule has {len(order)} voxels, expected {workload.voxels}")
    if workload.sparsity is None and order != serpentine(part_cells(workload, seed)):
        problems.append("schedule order differs from the raster order")
    return Case(
        workload=workload,
        gcode_lines=len(text.splitlines()),
        schedule=sched,
        outdir=env.WORK / workload.name / "out",
        expected=expected,
        problems=problems,
    )


def probe_setup(workload: Workload, gcode_path: Path, runs: int = SETUP_RUNS) -> list[float]:
    """Seconds from starting a fresh process to its schedule being ready."""
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(PROBE), workload.name, str(gcode_path)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != str(workload.voxels):
            raise RuntimeError(f"set-up probe exited {proc.returncode} after {line!r}")
    return times


# --- prints ------------------------------------------------------------------


def _fresh(outdir: Path) -> None:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)


def _simulate(case: Case) -> Print:
    outdir = case.outdir
    _fresh(outdir)
    cfg = driver.SimConfig()

    def sink(tag, mesh, state):
        output.write_vtk(mesh, state, outdir / f"snapshot_{tag}.vtk")

    t0 = perf_counter()
    _, report = driver.run(case.schedule, cfg, sink)
    output.write_report(report, outdir / "report.csv")
    seconds = perf_counter() - t0

    text = (outdir / "report.csv").read_text()
    rows, _ = output.parse_report(text)
    iters = sum(r["solver_iters"] for r in rows)
    problems = []
    if len(rows) != len(case.schedule.order):
        problems.append(f"report has {len(rows)} rows for {len(case.schedule.order)} voxels")
    if iters <= 0:
        problems.append("no PCG iterations")
    lo, hi = cfg.bcs.t_bed - T_TOL, cfg.bcs.t_deposit + T_TOL
    for name in ("t_active_min", "t_active_max", "final_min", "final_max"):
        value = getattr(report, name)
        if not lo <= value <= hi:
            problems.append(f"{name} {value!r} outside [{lo!r}, {hi!r}]")
    digests = {"report.csv": sha256(normalized_report(text))}
    for path in sorted(outdir.glob("snapshot_*.vtk")):
        digests[path.name] = sha256(path.read_bytes())
    last = report.records[-1]
    return Print(
        seconds=seconds,
        voxel_ms=[r.wall_ms for r in report.records],
        digests=digests,
        pcg_iters=iters,
        leaves=last.leaves,
        nodes=last.nodes,
        out_bytes=sum(p.stat().st_size for p in outdir.iterdir()),
        problems=problems,
    )


def _mesh_info(mesh: OctreeMesh, sched, nodes: int) -> str:
    """The summary ``voxtherm mesh-info`` prints."""
    lines = [
        f"grid {'x'.join(map(str, sched.grid.dims))} voxel_size {sched.grid.voxel_size!r}",
        f"voxels {len(sched.order)}",
        f"leaves {len(mesh)}",
        f"nodes {nodes}",
        f"active {int(mesh.active.sum())}",
    ]
    levels, counts = np.unique(mesh.levels, return_counts=True)
    lines += [f"level {lvl}: {cnt} leaves" for lvl, cnt in zip(levels.tolist(), counts.tolist())]
    return "\n".join(lines) + "\n"


def _replay(case: Case) -> Print:
    sched = case.schedule
    voxel_ms = []
    t0 = perf_counter()
    mesh = OctreeMesh.from_grid(sched.grid, base_level=REPLAY_BASE_LEVEL)
    for v in sched.order:
        a = perf_counter()
        mesh.refine_to_voxel(v)
        voxel_ms.append((perf_counter() - a) * 1e3)
    mesh.classify(sched.order)
    nodes = len(mesh.node_coords)
    info = _mesh_info(mesh, sched, nodes)
    seconds = perf_counter() - t0

    mesh.validate()
    problems = []
    if int(mesh.active.sum()) != len(sched.order):
        problems.append(f"{int(mesh.active.sum())} active leaves for {len(sched.order)} voxels")
    return Print(
        seconds=seconds,
        voxel_ms=voxel_ms,
        digests={"mesh.dump": sha256(mesh.dump()), "mesh-info": sha256(info)},
        pcg_iters=0,
        leaves=len(mesh),
        nodes=nodes,
        out_bytes=0,
        problems=problems,
    )


def print_once(case: Case) -> Print:
    return _simulate(case) if case.workload.kind == "simulate" else _replay(case)


def check(case: Case, pr: Print) -> list[str]:
    """Every problem with a print: set-up, invariants, committed digests."""
    problems = case.problems + pr.problems
    if case.expected is not None:
        if set(pr.digests) != set(case.expected):
            problems.append(f"outputs {sorted(pr.digests)}, expected {sorted(case.expected)}")
        else:
            problems += [
                f"{name} digest differs from the committed one"
                for name in sorted(pr.digests)
                if pr.digests[name] != case.expected[name]
            ]
    return problems


def _failed(what: str, problems: list[str]) -> bool:
    for p in problems:
        print(f"FAIL {what}: {p}", file=sys.stderr)
    return bool(problems)


# --- measured loops -------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    return next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), 50.0)


def run_untraced(case: Case, seconds: float, setup_times: list[float]):
    """Prints until ``seconds`` have passed; the last print runs to its end."""
    attempted = failed = 0
    prints: list[Print] = []
    start = perf_counter()
    while True:
        attempted += 1
        try:
            pr = print_once(case)
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        failed += _failed(f"print {attempted}", check(case, pr))
        prints.append(pr)
        if perf_counter() - start >= seconds:
            break

    n = len(case.schedule.order)
    pct = tail_percentile(n)
    pooled = [ms for pr in prints for ms in pr.voxel_ms]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "voxels_per_s": statistics.median(n / pr.seconds for pr in prints) if prints else None,
        "voxel_ms_p50": float(np.percentile(pooled, 50)) if pooled else None,
        "voxel_ms_tail": float(np.percentile(pooled, pct)) if pooled else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_frac": (attempted - failed) / attempted,
    }
    detail = {
        "prints": len(prints),
        "print_s": [pr.seconds for pr in prints],
        "setup_runs_s": setup_times,
        "voxel_ms_tail": {"percentile": pct, "samples": len(pooled)},
    }
    return attempted, failed, metrics, detail


def _consistency(base: Print, traced: Print, tracer: Tracer) -> list[str]:
    """Tracing changes no result, and the layer self times add up."""
    problems = []
    if traced.digests != base.digests:
        problems.append("traced outputs differ from the untraced print")
    if tracer.counts["fem.pcg_iters"] != base.pcg_iters or traced.pcg_iters != base.pcg_iters:
        problems.append(
            f"traced PCG iterations {tracer.counts['fem.pcg_iters']} != untraced {base.pcg_iters}"
        )
    run_s = tracer.total_s.get("driver.run", 0.0)
    inside = sum(s for name, s in tracer.self_s.items() if name.startswith(DRIVER_LAYERS))
    if run_s and abs(inside + tracer.self_s["driver.run"] - run_s) > 1e-9 * (1 + run_s):
        problems.append(f"layer self times {inside!r} do not account for driver.run {run_s!r}")
    return problems


def layer_metrics(case: Case, setup: Tracer, tr: Tracer, base: Print, traced: Print) -> dict:
    c = tr.counts
    builds, hits = c["octree.node_builds"], c["octree.node_hits"]
    assembles, solves = c["fem.assemble_calls"], c["fem.solve_calls"]
    m = {f"{name}_s": (setup if name in SETUP_SPANS else tr).self_s.get(name, 0.0)
         for name in (*SETUP_SPANS, "octree.refine", "octree.balance", "octree.classify",
                      "octree.nodes", "fem.transfer", "fem.activate", "fem.assemble",
                      "fem.with_rhs", "fem.solve", "output.vtk", "output.report")}
    m.update({
        "gcode.segments": setup.counts["gcode.segments"],
        "schedule.voxels": len(case.schedule.order),
        "octree.refine_calls": c["octree.refine_calls"],
        "octree.splits": c["octree.splits"],
        "octree.node_builds": builds,
        "octree.node_cache_hit_ratio": hits / (builds + hits) if builds + hits else 0.0,
        "octree.leaves_final": traced.leaves,
        "octree.nodes_final": traced.nodes,
        "fem.assemble_calls": assembles,
        "fem.solve_calls": solves,
        "fem.solves_per_assemble": solves / assembles if assembles else 0.0,
        "fem.pcg_iters": c["fem.pcg_iters"],
        "fem.pcg_iters_per_solve": c["fem.pcg_iters"] / solves if solves else 0.0,
        "fem.free_dofs_mean": c["fem.free_dofs"] / assembles if assembles else 0.0,
        "fem.active_node_share": (
            c["fem.active_rows"] / c["fem.assembled_rows"] if assembles else 0.0
        ),
        "fem.operator_nnz_final": c["fem.operator_nnz_final"],
        "driver.run_s": tr.total_s.get("driver.run", 0.0),
        "driver.self_s": tr.self_s.get("driver.run", 0.0),
        "output.bytes": traced.out_bytes,
        "trace.overhead_frac": traced.seconds / base.seconds - 1.0,
    })
    return m


def run_traced(case: Case, seconds: float, setup: Tracer):
    """Pairs of an untraced and a traced print; per-layer medians over pairs."""
    attempted = failed = 0
    samples = []
    tracer = None
    start = perf_counter()
    while True:
        attempted += 1
        try:
            base = print_once(case)
            failed += _failed(f"print {attempted}", check(case, base))
            attempted += 1
            with Tracer() as tracer:
                traced = print_once(case)
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        problems = check(case, traced) + _consistency(base, traced, tracer)
        failed += _failed(f"traced print {attempted}", problems)
        samples.append(layer_metrics(case, setup, tracer, base, traced))
        if perf_counter() - start >= seconds:
            break

    metrics = {
        name: statistics.median(s[name] for s in samples) if samples else None
        for name in PER_LAYER
    }
    spans_path = case.outdir.parent / "spans.json"
    spans = {"setup": setup.spans, "print": tracer.spans if tracer else []}
    spans_path.write_text(json.dumps(spans))
    detail = {"pairs": len(samples), "spans": str(spans_path.relative_to(env.ROOT))}
    return attempted, failed, metrics, detail
