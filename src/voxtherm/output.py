"""Snapshot and report emitters: legacy ASCII VTK and CSV.

The VTK writer emits one hexahedral cell per active leaf, points compacted
to the referenced nodes, nodal ``temperature`` plus per-cell ``level`` and
``active`` fields. Output is byte-deterministic for identical inputs;
wall-clock quantities appear only in the report's wall_ms column and time_s
footer field.
"""

from __future__ import annotations

import numpy as np

from .driver import SimReport
from .fem import ThermalState
from .octree import OctreeMesh

__all__ = [
    "format_vtk",
    "write_vtk",
    "read_vtk",
    "format_report",
    "write_report",
    "parse_report",
]

# x-fastest corner order -> VTK_HEXAHEDRON vertex order
_VTK_HEX_ORDER = (0, 1, 3, 2, 4, 5, 7, 6)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def format_vtk(mesh: OctreeMesh, state: ThermalState) -> str:
    if len(state.values) != len(mesh.node_coords):
        raise ValueError("state does not match mesh node table")
    sel = np.flatnonzero(mesh.active)
    conn = mesh.leaf_nodes[sel]
    used = np.unique(conn) if len(sel) else np.empty(0, dtype=np.int64)
    remap = np.full(len(mesh.node_coords), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    points = mesh.node_coords[used]
    temps = state.values[used]
    levels = mesh.levels[sel]
    active = mesh.active[sel].astype(int)

    out = [
        "# vtk DataFile Version 3.0",
        f"voxtherm t={state.time!r}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(points)} float",
    ]
    out.extend(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}" for p in points.tolist())
    out.append(f"CELLS {len(sel)} {9 * len(sel)}")
    for row in remap[conn].tolist():
        out.append("8 " + " ".join(str(row[i]) for i in _VTK_HEX_ORDER))
    out.append(f"CELL_TYPES {len(sel)}")
    out.extend("12" for _ in range(len(sel)))
    out.append(f"POINT_DATA {len(points)}")
    out.append("SCALARS temperature float 1")
    out.append("LOOKUP_TABLE default")
    out.extend(_fmt(t) for t in temps.tolist())
    out.append(f"CELL_DATA {len(sel)}")
    out.append("SCALARS level int 1")
    out.append("LOOKUP_TABLE default")
    out.extend(str(v) for v in levels.tolist())
    out.append("SCALARS active int 1")
    out.append("LOOKUP_TABLE default")
    out.extend(str(v) for v in active.tolist())
    return "\n".join(out) + "\n"


def write_vtk(mesh, state, path) -> None:
    text = format_vtk(mesh, state)
    with open(path, "w") as f:
        f.write(text)


def read_vtk(path) -> dict:
    """Minimal reader for files produced by write_vtk (tests and checks)."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    it = iter(lines)

    def seek(prefix: str) -> str:
        for ln in it:
            if ln.startswith(prefix):
                return ln
        raise ValueError(f"{path}: missing {prefix!r} section")

    header = seek("# vtk")
    npts = int(seek("POINTS").split()[1])
    points = np.array([next(it).split() for _ in range(npts)], dtype=float).reshape(
        npts, 3
    )
    ncells = int(seek("CELLS").split()[1])
    cells = np.array(
        [next(it).split()[1:] for _ in range(ncells)], dtype=int
    ).reshape(ncells, 8)
    nt = int(seek("CELL_TYPES").split()[1])
    cell_types = np.array([next(it) for _ in range(nt)], dtype=int)
    seek("POINT_DATA")
    seek("SCALARS temperature")
    seek("LOOKUP_TABLE")
    temperature = np.array([next(it) for _ in range(npts)], dtype=float)
    seek("CELL_DATA")
    seek("SCALARS level")
    seek("LOOKUP_TABLE")
    level = np.array([next(it) for _ in range(ncells)], dtype=int)
    seek("SCALARS active")
    seek("LOOKUP_TABLE")
    active = np.array([next(it) for _ in range(ncells)], dtype=int)
    return {
        "header": header,
        "points": points,
        "cells": cells,
        "cell_types": cell_types,
        "temperature": temperature,
        "level": level,
        "active": active,
    }


REPORT_HEADER = "voxel_ordinal,leaves,active_elements,nodes,solver_iters,wall_ms"


def format_report(report: SimReport) -> str:
    lines = [REPORT_HEADER]
    for r in report.records:
        lines.append(
            f"{r.voxel_ordinal},{r.leaves},{r.active_elements},"
            f"{r.nodes},{r.solver_iters},{r.wall_ms:.3f}"
        )
    if report.records:
        dims = "x".join(str(d) for d in report.dims)
        label = report.label.replace(" ", "_") or "-"
        lines.append(
            f"# summary geometry={label} resolution={dims} "
            f"print_voxels={report.n_voxels} time_s={report.wall_s:.3f} "
            f"t_active_min={report.t_active_min!r} "
            f"t_active_max={report.t_active_max!r} "
            f"final_mean={report.final_mean!r}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: SimReport, path) -> None:
    with open(path, "w") as f:
        f.write(format_report(report))


def parse_report(text: str) -> tuple[list[dict], dict]:
    """Rows as typed dicts plus the summary footer as a key -> string map."""
    lines = text.splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError("missing report header")
    cols = REPORT_HEADER.split(",")
    rows = []
    summary: dict[str, str] = {}
    for ln in lines[1:]:
        if not ln.strip():
            continue
        if ln.startswith("# summary"):
            for tok in ln.split()[2:]:
                key, _, val = tok.partition("=")
                summary[key] = val
            continue
        vals = ln.split(",")
        row = {c: int(v) for c, v in zip(cols[:-1], vals[:-1])}
        row["wall_ms"] = float(vals[-1])
        rows.append(row)
    return rows, summary
