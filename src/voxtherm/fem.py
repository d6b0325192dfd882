"""Trilinear hexahedral FEM for transient heat conduction on the octree.

Backward Euler over the ACTIVE elements only: ``(M + dt K) T = M T_prev
+ dt F``. Omitting inactive elements imposes the zero-flux condition on
the growing surface; nodes touched by no active element are pinned to
the ambient placeholder, bed nodes (z = 0) to the bed temperature.
Every active leaf is voxel-sized, so the active mesh is conforming: it
has no hanging nodes to condense, and the solve eliminates the Dirichlet
rows and runs PCG on the remaining block of the operator.

All quantities are non-dimensional; the mesh lattice unit is the voxel
edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.sparse as sp

from .octree import CHILD_OFFSETS, MeshSnapshot, OctreeMesh

__all__ = [
    "FemError",
    "SolverError",
    "MaterialParams",
    "BoundarySpec",
    "Scaling",
    "ThermalState",
    "LinearSystem",
    "nondimensionalize",
    "element_matrices",
    "lump",
    "initial_state",
    "assemble",
    "solve",
    "activate_voxel",
    "transfer_solution",
]


class FemError(ValueError):
    """Thermal model setup or consistency failure."""


class SolverError(FemError):
    """Iterative solve did not reach the tolerance; carries the residual history."""

    def __init__(self, message: str, residuals: list[float]):
        super().__init__(message)
        self.residuals = residuals


def _require_finite(params) -> None:
    for f in fields(params):
        value = getattr(params, f.name)
        if not math.isfinite(value):
            raise FemError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class MaterialParams:
    """Non-dimensional material set; diffusivity is kappa / (rho cp)."""

    kappa: float = 8e-4
    rho: float = 1.0
    cp: float = 1.0
    latent_source: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.kappa <= 0 or self.rho <= 0 or self.cp <= 0:
            raise FemError(
                f"kappa, rho, cp must be positive, got "
                f"({self.kappa}, {self.rho}, {self.cp})"
            )

    @property
    def alpha(self) -> float:
        return self.kappa / (self.rho * self.cp)


@dataclass(frozen=True)
class BoundarySpec:
    """Normalized temperatures: bed plate, fresh deposit, ambient placeholder."""

    t_bed: float = 1.0
    t_deposit: float = 2.0
    t_ambient: float = 0.0

    def __post_init__(self):
        _require_finite(self)


@dataclass(frozen=True)
class Scaling:
    """Maps between dimensional and non-dimensional quantities."""

    length: float
    time: float
    delta_t: float
    t_ref: float = 0.0

    def temperature_to_dimensionless(self, t):
        return (np.asarray(t) - self.t_ref) / self.delta_t

    def temperature_from_dimensionless(self, t):
        return np.asarray(t) * self.delta_t + self.t_ref

    def length_to_dimensionless(self, x):
        return np.asarray(x) / self.length

    def length_from_dimensionless(self, x):
        return np.asarray(x) * self.length

    def time_to_dimensionless(self, t):
        return np.asarray(t) / self.time

    def time_from_dimensionless(self, t):
        return np.asarray(t) * self.time


def nondimensionalize(
    kappa: float,
    rho: float,
    cp: float,
    length: float,
    time: float,
    delta_t: float,
    t_ref: float = 0.0,
) -> tuple[MaterialParams, Scaling]:
    """Collapse dimensional properties into the single diffusion number.

    The scaled equation is dT'/dt' = alpha lap(T') with
    alpha = kappa * t_c / (rho * cp * L^2).
    """
    for name, v in [
        ("kappa", kappa),
        ("rho", rho),
        ("cp", cp),
        ("length", length),
        ("time", time),
        ("delta_t", delta_t),
    ]:
        if not (v > 0):
            raise FemError(f"{name} must be positive, got {v}")
    alpha = kappa * time / (rho * cp * length**2)
    return MaterialParams(kappa=alpha, rho=1.0, cp=1.0), Scaling(
        length=length, time=time, delta_t=delta_t, t_ref=t_ref
    )


# --- element kernels ---------------------------------------------------------

# corner signs in reference coordinates, matching the mesh corner order
_SIGNS = CHILD_OFFSETS.astype(float) * 2.0 - 1.0
_GAUSS1D = np.array([-1.0, 1.0]) / np.sqrt(3.0)


def element_matrices(h: float, mat: MaterialParams) -> tuple[np.ndarray, np.ndarray]:
    """Consistent mass and conductivity matrices of a cube element, edge h.

    2x2x2 Gauss quadrature, exact for the trilinear integrands.
    """
    if h <= 0:
        raise FemError(f"element edge must be positive, got {h}")
    M = np.zeros((8, 8))
    K = np.zeros((8, 8))
    detj = (h / 2.0) ** 3
    for gx in _GAUSS1D:
        for gy in _GAUSS1D:
            for gz in _GAUSS1D:
                xi = np.array([gx, gy, gz])
                f = 1.0 + _SIGNS * xi  # (8,3) per-axis factors
                N = 0.125 * f.prod(axis=1)
                dN = np.empty((8, 3))
                for d in range(3):
                    prod = 0.125 * f[:, (d + 1) % 3] * f[:, (d + 2) % 3]
                    dN[:, d] = _SIGNS[:, d] * prod * (2.0 / h)
                M += np.outer(N, N) * detj
                K += dN @ dN.T * detj
    return mat.rho * mat.cp * M, mat.kappa * K


def lump(M: np.ndarray) -> np.ndarray:
    """Row-sum lumping; preserves the total mass."""
    return np.diag(M.sum(axis=1))


# --- state ---------------------------------------------------------------------


@dataclass
class ThermalState:
    """Nodal temperatures aligned with the mesh node table."""

    mesh: OctreeMesh
    values: np.ndarray
    time: float = 0.0
    deposited: set = field(default_factory=set)

    def active_values(self) -> np.ndarray:
        return self.values[self.mesh.active_node_mask()]


def initial_state(mesh: OctreeMesh, bcs: BoundarySpec) -> ThermalState:
    return ThermalState(
        mesh=mesh, values=np.full(len(mesh.node_coords), bcs.t_ambient, dtype=float)
    )


# --- assembly -------------------------------------------------------------------


@dataclass
class LinearSystem:
    """One backward-Euler step over the active domain.

    ``a`` is the full-size operator (M + dt K) assembled over active
    elements; ``mass`` the matching mass matrix so the right-hand side can
    be refreshed for later steps of a dwell (``b = mass @ T + dt*F``).
    """

    a: sp.csr_matrix
    mass: sp.csr_matrix
    b: np.ndarray
    dirichlet_idx: np.ndarray
    dirichlet_val: np.ndarray
    dt: float

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def constraints(self) -> dict:
        """Always empty: the active mesh has no hanging nodes.

        Kept because the benchmark's tracer reads ``len(system.constraints)``
        when it counts free unknowns.
        """
        return {}

    def with_rhs(self, values: np.ndarray) -> "LinearSystem":
        """Same operator, right-hand side rebuilt from new nodal values."""
        return replace(self, b=self.mass @ values)


def assemble(
    mesh: OctreeMesh,
    state: ThermalState,
    mat: MaterialParams,
    bcs: BoundarySpec,
    dt: float,
    *,
    lumped_mass: bool = True,
    latent_leaves: tuple[int, ...] = (),
    extra_dirichlet: dict[int, float] | None = None,
) -> LinearSystem | None:
    """Build one implicit step; returns None when nothing is active yet."""
    if dt <= 0:
        raise FemError(f"dt must be positive, got {dt}")
    act = np.flatnonzero(mesh.active)
    if len(act) == 0:
        return None
    coords, leaf_nodes = mesh.node_coords, mesh.leaf_nodes
    m = len(coords)
    if len(state.values) != m:
        raise FemError(
            f"state has {len(state.values)} values for {m} mesh nodes; "
            "transfer the solution after refining"
        )

    coarse = act[mesh.levels[act] != mesh.max_level]
    if len(coarse):
        raise FemError(
            f"active leaf {int(coarse[0])} is coarser than the voxel level; "
            "the solve needs a conforming active mesh"
        )

    conn = leaf_nodes[act]
    rows = np.repeat(conn[:, :, None], 8, axis=2).ravel()
    cols = np.repeat(conn[:, None, :], 8, axis=1).ravel()
    Me, Ke = element_matrices(1.0, mat)
    if lumped_mass:
        Me = lump(Me)
    shape = (m, m)
    M = sp.coo_matrix((np.tile(Me.ravel(), len(act)), (rows, cols)), shape=shape).tocsr()
    K = sp.coo_matrix((np.tile(Ke.ravel(), len(act)), (rows, cols)), shape=shape).tocsr()
    A = (M + dt * K).tocsr()

    F = np.zeros(m)
    if mat.latent_source != 0.0 and len(latent_leaves):
        all_sizes = mesh.leaf_sizes()
        for li in latent_leaves:
            h = float(all_sizes[li])
            F[leaf_nodes[li]] += mat.latent_source * h**3 / 8.0
    b = M @ state.values + dt * F

    active_nodes = mesh.active_node_mask()
    # Later entries override: ambient padding, then bed plate, then caller's.
    parts_i = [np.flatnonzero(~active_nodes), np.flatnonzero(active_nodes & (coords[:, 2] == 0))]
    parts_v = [np.full(len(parts_i[0]), bcs.t_ambient), np.full(len(parts_i[1]), bcs.t_bed)]
    if extra_dirichlet:
        items = sorted((int(k), float(v)) for k, v in extra_dirichlet.items())
        parts_i.append(np.array([i for i, _ in items], dtype=np.int64))
        parts_v.append(np.array([v for _, v in items], dtype=float))
    idx_all = np.concatenate(parts_i)
    val_all = np.concatenate(parts_v)
    perm = np.lexsort((np.arange(len(idx_all)), idx_all))
    last = np.flatnonzero(np.r_[idx_all[perm][1:] != idx_all[perm][:-1], True])
    idx = idx_all[perm][last].astype(np.int64)
    val = val_all[perm][last]
    return LinearSystem(a=A, mass=M, b=b, dirichlet_idx=idx, dirichlet_val=val, dt=dt)


# --- solve ----------------------------------------------------------------------


def _pcg(A, b, x0, rel_tol, max_iter):
    """Jacobi-preconditioned conjugate gradients; returns (x, iterations)."""
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise SolverError("operator diagonal is not positive", [])
    inv_diag = 1.0 / diag
    x = x0.copy()
    r = b - A @ x
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    residuals: list[float] = []
    for it in range(max_iter + 1):
        r_norm = float(np.linalg.norm(r))
        residuals.append(r_norm)
        if r_norm <= rel_tol * b_norm:
            return x, it
        if it == max_iter:
            break
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"PCG did not reach {rel_tol:g} within {max_iter} iterations "
        f"(last relative residual {residuals[-1] / b_norm:.3e})",
        residuals,
    )


def solve(
    system: LinearSystem,
    tol: float = 1e-12,
    x0: np.ndarray | None = None,
    max_iter: int | None = None,
) -> tuple[np.ndarray, int]:
    """Solve one step; returns the full nodal vector and PCG iteration count.

    The Dirichlet rows are eliminated and PCG runs on the free block;
    Dirichlet nodes carry their prescriptions exactly.
    """
    x = np.zeros(system.n)
    x[system.dirichlet_idx] = system.dirichlet_val
    free = np.ones(system.n, dtype=bool)
    free[system.dirichlet_idx] = False
    n_free = int(free.sum())
    if n_free == 0:
        return x, 0
    A_red = system.a[free][:, free]
    b_red = (system.b - system.a @ x)[free]
    start = x0[free] if x0 is not None else np.zeros(n_free)
    x[free], iters = _pcg(
        A_red, b_red, start, tol, max_iter if max_iter is not None else 10 * n_free
    )
    return x, iters


# --- activation and transfer ------------------------------------------------------


def activate_voxel(mesh: OctreeMesh, state: ThermalState, voxel, bcs: BoundarySpec) -> None:
    """Overwrite the 8 nodes of a freshly printed voxel with the deposit value."""
    t = (int(voxel[0]), int(voxel[1]), int(voxel[2]))
    if t in state.deposited:
        raise FemError(f"voxel {t} already activated")
    idx = mesh.find_leaf(t)
    if not mesh.active[idx] or mesh.levels[idx] != mesh.max_level:
        raise FemError(f"voxel {t} is not classified as an active voxel-level leaf")
    state.values[mesh.leaf_nodes[idx]] = bcs.t_deposit
    state.deposited.add(t)


def _pack(coords: np.ndarray) -> np.ndarray:
    c = coords.astype(np.int64)
    return (c[:, 0] << 42) | (c[:, 1] << 21) | c[:, 2]


def transfer_solution(
    old: MeshSnapshot, state: ThermalState, new_mesh: OctreeMesh, bcs: BoundarySpec
) -> ThermalState:
    """Carry nodal values onto a refined mesh.

    Values at the old nodes are copied bit-exactly; new nodes take the
    ambient value. A split only adds nodes, and only inside inactive
    leaves, so every new node is either inactive padding that the next
    solve pins to ambient or a corner of the voxel that ``activate_voxel``
    overwrites. Both node tables are lexicographically sorted, which makes
    the packed coordinates sorted too.
    """
    if len(state.values) != len(old.node_coords):
        raise FemError("state does not match the old mesh snapshot")
    new_values = np.full(len(new_mesh.node_coords), bcs.t_ambient)
    pos = np.searchsorted(_pack(new_mesh.node_coords), _pack(old.node_coords))
    new_values[pos] = state.values
    return ThermalState(
        mesh=new_mesh,
        values=new_values,
        time=state.time,
        deposited=set(state.deposited),
    )
