"""Print-simulation driver: deposit voxels in order, march the heat solve.

For each scheduled voxel the mesh is refined to voxel size at that spot,
the field is moved by node key onto any nodes that added, activation
marks the voxel's leaf and sets it to the deposition temperature, and
the implicit solve advances a fixed number of steps before the next
voxel. The schedule, checked once, is the record of what was printed.
The step operator is carried, so each deposit rebuilds only its rows.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .fem import BoundarySpec, MaterialParams, SolverError, ThermalState
from .octree import OctreeMesh
from .schedule import SparsityPolicy, VoxelSchedule, apply_sparsity

__all__ = [
    "DriverError",
    "SimConfig",
    "VoxelRecord",
    "SimReport",
    "SparsityResult",
    "run",
    "compare_sparsity",
]

DEPOSIT_MODES = ("initial", "held")


class DriverError(RuntimeError):
    """Simulation run aborted; the message names the offending voxel."""


def _snapshot_tag(fraction: float) -> int:
    """Percent tag of a snapshot fraction: ``0.3`` writes ``snapshot_030``."""
    return int(round(fraction * 100))


@dataclass(frozen=True)
class SimConfig:
    """Run parameters; defaults mirror the normalized reference setup."""

    steps_per_voxel: int = 3
    dt: float = 1.0
    material: MaterialParams = field(default_factory=MaterialParams)
    bcs: BoundarySpec = field(default_factory=BoundarySpec)
    base_level: int = 2
    max_level: int | None = None
    solver_tol: float = 1e-12
    lumped_mass: bool = True
    deposit_mode: str = "initial"
    cooldown_steps: int = 0
    snapshot_fractions: tuple[float, ...] = (0.3, 0.6, 1.0)
    snapshot_every: int = 0
    label: str = "run"

    def __post_init__(self):
        if self.steps_per_voxel < 1:
            raise DriverError(f"steps_per_voxel must be >= 1, got {self.steps_per_voxel}")
        if not (0 < self.dt < math.inf):
            raise DriverError(f"dt must be positive and finite, got {self.dt}")
        if self.base_level < 0:
            raise DriverError(f"base_level must be >= 0, got {self.base_level}")
        if self.max_level is not None and self.max_level < self.base_level:
            raise DriverError(
                f"max_level {self.max_level} below base_level {self.base_level}"
            )
        if not (0 < self.solver_tol < math.inf):
            raise DriverError(
                f"solver_tol must be positive and finite, got {self.solver_tol}"
            )
        if self.deposit_mode not in DEPOSIT_MODES:
            raise DriverError(
                f"deposit_mode must be one of {DEPOSIT_MODES}, got {self.deposit_mode!r}"
            )
        if self.cooldown_steps < 0:
            raise DriverError(f"cooldown_steps must be >= 0, got {self.cooldown_steps}")
        if self.snapshot_every < 0:
            raise DriverError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if not self.label.isprintable():
            raise DriverError(f"label must be printable (no line break or tab): {self.label!r}")
        tags: dict[int, float] = {}
        for f in self.snapshot_fractions:
            if not (0.0 < f <= 1.0):
                raise DriverError(f"snapshot fraction {f} outside (0, 1]")
            tag = _snapshot_tag(f)
            if tag in tags:
                raise DriverError(
                    f"snapshot fractions {tags[tag]} and {f} share the snapshot tag {tag:03d}"
                )
            tags[tag] = f


@dataclass(frozen=True)
class VoxelRecord:
    """Mesh and solver bookkeeping after one voxel's dwell."""

    voxel_ordinal: int
    leaves: int
    active_elements: int
    nodes: int
    solver_iters: int
    wall_ms: float


@dataclass
class SimReport:
    """Run summary: per-voxel records plus field statistics."""

    label: str
    dims: tuple[int, int, int]
    n_voxels: int
    records: list[VoxelRecord]
    checkpoints: dict[int, float]  # completion percent -> mean response temperature
    t_active_min: float
    t_active_max: float
    final_min: float
    final_mean: float
    final_max: float
    final_time: float
    wall_s: float


def _emit(sinks, tag: str, mesh: OctreeMesh, state: ThermalState) -> None:
    for sink in sinks:
        sink(tag, mesh, state)


def response_mean(state: ThermalState) -> float:
    """Mean temperature over the active nodes that carry unknowns.

    Bed-plane nodes hold the prescribed plate temperature, so averaging
    them in would weight the boundary condition by part size instead of
    measuring the heat retained in the deposited material. Falls back to
    all active nodes for parts with no material above the bed plane.
    """
    mask = state.mesh.active_node_mask()
    free = mask & (state.mesh.node_coords[:, 2] > 0)
    sel = free if free.any() else mask
    return float(state.values[sel].mean())


def _march(
    system: fem.LinearSystem, state: ThermalState, steps: int, cfg: SimConfig, where: str
) -> tuple[int, float, float]:
    """Advance ``steps`` implicit steps on one operator and active set.

    Returns the PCG iteration total and the active-node extrema.
    """
    iters, lo, hi = 0, math.inf, -math.inf
    try:
        for s in range(steps):
            if s:
                system = system.with_rhs(state.values)
            state.values, it = fem.solve(system, cfg.solver_tol, x0=state.values)
            state.time += cfg.dt
            iters += it
            act = state.values[system.nodes]
            lo, hi = min(lo, float(act.min())), max(hi, float(act.max()))
    except SolverError as err:
        raise DriverError(f"solver failed {where}: {err}") from err
    return iters, lo, hi


def run(
    schedule: VoxelSchedule, cfg: SimConfig, sinks=()
) -> tuple[ThermalState, SimReport]:
    """Simulate the whole print; returns the final state and the report.

    ``sinks`` is a callback or sequence of callbacks ``(tag, mesh, state)``
    invoked at the 30/60/100-style completion checkpoints and, when
    ``snapshot_every`` is set, every k-th voxel.
    """
    if callable(sinks):
        sinks = (sinks,)
    schedule.validate()
    mesh = OctreeMesh.from_grid(
        schedule.grid, base_level=cfg.base_level, max_level=cfg.max_level
    )
    state = fem.initial_state(mesh, cfg.bcs)
    order = schedule.order
    n = len(order)

    snap_at: dict[int, list[int]] = {}
    for frac in sorted(cfg.snapshot_fractions):
        if n:
            snap_at.setdefault(max(1, math.ceil(frac * n)), []).append(_snapshot_tag(frac))

    records: list[VoxelRecord] = []
    checkpoints: dict[int, float] = {}
    t_min, t_max = math.inf, -math.inf
    system = None
    wall0 = _time.perf_counter()

    for ordinal, voxel in enumerate(order, start=1):
        v0 = _time.perf_counter()
        if mesh.refine_to_voxel(voxel):
            state = fem.transfer_solution(state, mesh, cfg.bcs)
        leaf = fem.activate_voxel(mesh, state, voxel, cfg.bcs)
        extra = None
        if cfg.deposit_mode == "held":
            extra = {int(nid): cfg.bcs.t_deposit for nid in mesh.leaf_nodes[leaf]}
        system = fem.assemble(
            mesh, state, cfg.material, cfg.bcs, cfg.dt,
            lumped_mass=cfg.lumped_mass,
            latent_leaves=(leaf,),
            extra_dirichlet=extra,
            previous=system,
        )
        where = f"at voxel {ordinal}/{n} {tuple(int(c) for c in voxel)}"
        iters, lo, hi = _march(system, state, cfg.steps_per_voxel, cfg, where)
        t_min, t_max = min(t_min, lo), max(t_max, hi)
        records.append(
            VoxelRecord(
                voxel_ordinal=ordinal,
                leaves=len(mesh),
                active_elements=int(mesh.active.sum()),
                nodes=len(mesh.node_coords),
                solver_iters=iters,
                wall_ms=(_time.perf_counter() - v0) * 1e3,
            )
        )
        if ordinal in snap_at:
            mean = response_mean(state)
            for pct in snap_at[ordinal]:
                checkpoints[pct] = mean
                _emit(sinks, f"{pct:03d}", mesh, state)
        elif cfg.snapshot_every and ordinal % cfg.snapshot_every == 0:
            _emit(sinks, f"voxel{ordinal:06d}", mesh, state)

    if cfg.cooldown_steps and mesh.active.any():
        system = fem.assemble(
            mesh, state, cfg.material, cfg.bcs, cfg.dt,
            lumped_mass=cfg.lumped_mass, previous=system,
        )
        _, lo, hi = _march(system, state, cfg.cooldown_steps, cfg, "during cooldown")
        t_min, t_max = min(t_min, lo), max(t_max, hi)

    act = state.active_values()
    has_active = len(act) > 0
    report = SimReport(
        label=cfg.label,
        dims=schedule.grid.dims,
        n_voxels=n,
        records=records,
        checkpoints=checkpoints,
        t_active_min=t_min if has_active else math.nan,
        t_active_max=t_max if has_active else math.nan,
        final_min=float(act.min()) if has_active else math.nan,
        final_mean=response_mean(state) if has_active else math.nan,
        final_max=float(act.max()) if has_active else math.nan,
        final_time=state.time,
        wall_s=_time.perf_counter() - wall0,
    )
    return state, report


@dataclass(frozen=True)
class SparsityResult:
    policy: SparsityPolicy
    n_voxels: int
    checkpoints: dict[int, float]
    report: SimReport


def compare_sparsity(
    schedule: VoxelSchedule, policies, cfg: SimConfig
) -> list[SparsityResult]:
    """Run the same print under each infill policy on identical settings.

    Checkpoint means are taken at 30/60/100% of each policy's own reduced
    schedule, so the comparison matches completion fractions rather than
    absolute voxel counts.
    """
    results = []
    for policy in policies:
        reduced = apply_sparsity(schedule, policy)
        _, report = run(reduced, cfg)
        results.append(
            SparsityResult(
                policy=policy,
                n_voxels=len(reduced.order),
                checkpoints=dict(report.checkpoints),
                report=report,
            )
        )
    return results
