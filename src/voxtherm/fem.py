"""Trilinear hexahedral FEM for transient heat conduction on the octree.

Backward Euler over the ACTIVE elements only: ``(M + dt K) T = M T_prev
+ dt F``. Omitting inactive elements imposes the zero-flux condition on
the growing surface; nodes touched by no active element are pinned to
the ambient placeholder, bed nodes (z = 0) to the bed temperature.
Every active leaf is voxel-sized, so the active mesh is conforming: it
has no hanging nodes to condense, and the solve eliminates the Dirichlet
rows and runs PCG on the remaining block of the operator.

The operator is held over the active nodes and carried from one deposit
to the next: a new voxel rebuilds only the rows of its corners, with the
same kernel the whole-mesh assembly runs, so every bit matches a fresh
assembly.

All quantities are non-dimensional; the mesh lattice unit is the voxel
edge.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=16)
def _element_pair(mat: MaterialParams, lumped: bool) -> tuple[np.ndarray, np.ndarray]:
    """Mass and conductivity of the unit voxel element, read-only."""
    Me, Ke = element_matrices(1.0, mat)
    if lumped:
        Me = lump(Me)
    Me.setflags(write=False)
    Ke.setflags(write=False)
    return Me, Ke


def _couple(conn: np.ndarray, pair, dt: float, n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """M and A = M + dt K of the voxel elements ``conn`` (k, 8) on ``n`` nodes.

    Row r's bits depend only on the (column, value) pairs the elements emit
    into it, in element order, and on the relative order of the column ids.
    So any element subset that holds every element touching r, in the same
    order and under any order-preserving node numbering, rebuilds row r
    exactly; the duplicate sums and scipy's per-row sort see the same input.
    """
    Me, Ke = pair
    rows = np.repeat(conn[:, :, None], 8, axis=2).ravel()
    cols = np.repeat(conn[:, None, :], 8, axis=1).ravel()
    M = sp.coo_matrix((np.tile(Me.ravel(), len(conn)), (rows, cols)), shape=(n, n)).tocsr()
    K = sp.coo_matrix((np.tile(Ke.ravel(), len(conn)), (rows, cols)), shape=(n, n)).tocsr()
    return M, (M + dt * K).tocsr()


def _splice(old: sp.csr_matrix, old_to_new: np.ndarray, rows: np.ndarray, fresh: list,
            n: int) -> sp.csr_matrix:
    """``old`` on ``n`` nodes: rows ``rows`` rebuilt, the others renumbered.

    ``old_to_new`` gives each old row its new id and also renumbers the old
    columns. ``rows`` are sorted new ids, and ``fresh[k]`` is row
    ``rows[k]`` as a (columns, values) pair in new ids; it replaces an old
    row or goes in between two. Every other row keeps its values.
    """
    idx_t = old.indices.dtype
    indptr = np.zeros(n + 1, dtype=idx_t)
    indptr[old_to_new + 1] = np.diff(old.indptr)
    indptr[rows + 1] = [len(cols) for cols, _ in fresh]
    np.cumsum(indptr, out=indptr)
    # a gather through native-width ids runs several times faster than int32
    indices = old_to_new.take(old.indices.astype(np.intp)).astype(idx_t)
    stops = np.searchsorted(old_to_new, rows)  # old rows before each rebuilt one
    starts = stops + (old_to_new[np.minimum(stops, len(old_to_new) - 1)] == rows)
    ptr, parts, lo = old.indptr, [], 0
    for stop, start, row in zip(stops, starts, fresh):
        parts += [(indices[ptr[lo]:ptr[stop]], old.data[ptr[lo]:ptr[stop]]), row]
        lo = start  # past the old row this one replaces, if any
    parts.append((indices[ptr[lo]:], old.data[ptr[lo]:]))
    cols, data = (np.concatenate(p) for p in zip(*parts))
    return sp.csr_matrix((data, cols, indptr), shape=(n, n))


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


@dataclass(frozen=True)
class _Operator:
    """M and A = M + dt K over the active nodes, rows in node-key order.

    Keyed by lattice and Morton keys rather than node-table ids, so it
    stays valid across refinements and is carried from deposit to deposit.
    """

    setup: tuple  # (material, lumped_mass, dt) it was built for
    leaf_keys: np.ndarray  # Morton keys of the active leaves it covers
    node_keys: np.ndarray  # lattice keys of its rows
    mass: sp.csr_matrix
    a: sp.csr_matrix


def _widen(mat: sp.csr_matrix, nodes: np.ndarray, n: int) -> sp.csr_matrix:
    """An active-node matrix on the full node table; other rows stay empty."""
    lens = np.zeros(n, dtype=np.int64)
    lens[nodes] = np.diff(mat.indptr)
    indptr = np.concatenate(([0], np.cumsum(lens)))
    return sp.csr_matrix((mat.data, nodes[mat.indices], indptr), shape=(n, n))


@dataclass
class LinearSystem:
    """One backward-Euler step over the active domain.

    ``a`` is the full-size operator (M + dt K) assembled over active
    elements and ``mass`` the matching mass matrix; both are views of the
    ``operator`` held over the active nodes ``nodes``. Later steps of a
    dwell refresh the right-hand side with ``with_rhs``: ``b = mass @ T``.
    The latent load ``dt*F`` enters only the first step's ``b``, the one
    ``assemble`` builds, so a voxel releases its latent heat once.

    The reduction is done once per operator: the free block ``a_free``,
    the Dirichlet lift ``(a @ x_pinned)[free]`` and the Jacobi inverse
    diagonal (None when the diagonal is not positive).
    """

    operator: _Operator
    nodes: np.ndarray
    n: int
    b: np.ndarray
    dirichlet_idx: np.ndarray
    dirichlet_val: np.ndarray
    dt: float
    free: np.ndarray
    a_free: sp.csr_matrix
    lift: np.ndarray
    inv_diag: np.ndarray | None

    @functools.cached_property
    def a(self) -> sp.csr_matrix:
        return _widen(self.operator.a, self.nodes, self.n)

    @functools.cached_property
    def mass(self) -> sp.csr_matrix:
        return _widen(self.operator.mass, self.nodes, self.n)

    @property
    def constraints(self) -> dict:
        """Always empty: the active mesh has no hanging nodes.

        Kept because the benchmark's tracer reads ``len(system.constraints)``
        when it counts free unknowns.
        """
        return {}

    def with_rhs(self, values: np.ndarray) -> "LinearSystem":
        """Same operator and reduction, ``b = mass @ values`` (no latent load)."""
        return replace(self, b=_rhs(self.operator, self.nodes, self.n, values))


def _rhs(op: _Operator, nodes: np.ndarray, n: int, values: np.ndarray) -> np.ndarray:
    """``mass @ values`` on the full node table; inactive rows are 0."""
    b = np.zeros(n)
    b[nodes] = op.mass @ values[nodes]
    return b


def _carry(prev: _Operator | None, mesh: OctreeMesh, act: np.ndarray, nodes: np.ndarray,
           setup: tuple) -> _Operator:
    """The operator over ``act``; from ``prev`` only the new leaves' rows are rebuilt."""
    mat, lumped, dt = setup
    pair = _element_pair(mat, lumped)
    leaf_nodes = mesh.leaf_nodes
    leaf_keys = mesh.keys[act]
    node_keys = mesh.snapshot().node_keys[nodes]
    if prev is None:
        M, A = _couple(np.searchsorted(nodes, leaf_nodes[act]), pair, dt, len(nodes))
        return _Operator(setup, leaf_keys, node_keys, M, A)
    if prev.setup != setup:
        raise FemError("previous system was built for another material, mass or dt")
    pos = np.minimum(np.searchsorted(leaf_keys, prev.leaf_keys), len(leaf_keys) - 1)
    if not np.array_equal(leaf_keys[pos], prev.leaf_keys):
        raise FemError("previous system covers a leaf that is no longer active")
    is_new = np.ones(len(act), dtype=bool)
    is_new[pos] = False
    if not is_new.any():
        return _Operator(setup, leaf_keys, node_keys, prev.mass, prev.a)

    # rows of the new leaves' corners, rebuilt from every active element
    # touching them, taken in leaf (Morton) order like the whole-mesh pass
    rows = np.unique(leaf_nodes[act[is_new]])
    touched = np.zeros(len(mesh.node_coords), dtype=bool)
    touched[rows] = True
    near = act[touched[leaf_nodes[act]].any(axis=1)]
    local, conn = np.unique(leaf_nodes[near], return_inverse=True)
    M, A = _couple(conn.reshape(-1, 8), pair, dt, len(local))
    to_active = np.searchsorted(nodes, local)
    keep = np.searchsorted(local, rows)
    old_to_new = np.searchsorted(node_keys, prev.node_keys)
    rows = np.searchsorted(nodes, rows)

    def spliced(old, patch):
        ptr, cols = patch.indptr, to_active.astype(old.indices.dtype)
        fresh = [(cols[patch.indices[ptr[k]:ptr[k + 1]]], patch.data[ptr[k]:ptr[k + 1]])
                 for k in keep]
        return _splice(old, old_to_new, rows, fresh, len(nodes))

    return _Operator(setup, leaf_keys, node_keys, spliced(prev.mass, M), spliced(prev.a, A))


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
    previous: LinearSystem | None = None,
) -> LinearSystem | None:
    """Build one implicit step; returns None when nothing is active yet.

    With ``previous``, a system assembled on this mesh before (refinement
    and new active leaves since are fine), its operator is carried: only
    the rows of the newly active leaves' corners are rebuilt. The result
    is bit-identical to a whole-mesh assembly.
    """
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
    idle = [int(li) for li in latent_leaves if not mesh.active[li]]
    if idle:
        raise FemError(f"latent leaf {idle[0]} is not active")

    # Dirichlet set, later assignments winning: ambient padding, bed plate, caller's.
    active_nodes = mesh.active_node_mask()
    bed = active_nodes & (coords[:, 2] == 0)
    pinned = ~active_nodes | bed
    prescribed = np.where(bed, bcs.t_bed, bcs.t_ambient)
    for nid, value in (extra_dirichlet or {}).items():
        nid, value = int(nid), float(value)
        if not 0 <= nid < m:
            raise FemError(f"extra_dirichlet node {nid} outside [0, {m})")
        if not math.isfinite(value):
            raise FemError(f"extra_dirichlet value for node {nid} must be finite, got {value}")
        pinned[nid] = True
        prescribed[nid] = value
    idx = np.flatnonzero(pinned)

    nodes = np.flatnonzero(active_nodes)
    op = _carry(previous.operator if previous is not None else None,
                mesh, act, nodes, (mat, lumped_mass, dt))

    # Reduce once: free block, Dirichlet lift and Jacobi diagonal.
    free_rows = ~pinned[nodes]
    a_free = op.a[free_rows][:, free_rows]
    diag = a_free.diagonal()
    x_pinned = np.where(free_rows, 0.0, prescribed[nodes])

    # Active leaves are unit voxels: each corner gets an eighth of the source.
    F = np.zeros(m)
    if mat.latent_source != 0.0:
        for li in latent_leaves:
            F[leaf_nodes[li]] += mat.latent_source / 8.0
    b = _rhs(op, nodes, m, state.values) + dt * F
    return LinearSystem(
        operator=op,
        nodes=nodes,
        n=m,
        b=b,
        dirichlet_idx=idx,
        dirichlet_val=prescribed[idx],
        dt=dt,
        free=nodes[free_rows],
        a_free=a_free,
        lift=(op.a @ x_pinned)[free_rows],
        inv_diag=1.0 / diag if np.all(diag > 0) else None,
    )


# --- solve ----------------------------------------------------------------------


def _pcg(A, inv_diag, b, x0, rel_tol, max_iter):
    """Jacobi-preconditioned conjugate gradients; returns (x, iterations)."""
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0
    if inv_diag is None:
        raise SolverError("operator diagonal is not positive", [])
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

    PCG runs on the free block that ``assemble`` reduced; Dirichlet nodes
    carry their prescriptions exactly.
    """
    x = np.zeros(system.n)
    x[system.dirichlet_idx] = system.dirichlet_val
    free = system.free
    if len(free) == 0:
        return x, 0
    b_red = system.b[free] - system.lift
    start = x0[free] if x0 is not None else np.zeros(len(free))
    x[free], iters = _pcg(
        system.a_free, system.inv_diag, b_red, start, tol,
        max_iter if max_iter is not None else 10 * len(free),
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


def transfer_solution(
    old: MeshSnapshot, state: ThermalState, new_mesh: OctreeMesh, bcs: BoundarySpec
) -> ThermalState:
    """Carry nodal values onto a refined mesh.

    Values at the old nodes are copied bit-exactly; new nodes take the
    ambient value. A split only adds nodes, and only inside inactive
    leaves, so every new node is either inactive padding that the next
    solve pins to ambient or a corner of the voxel that ``activate_voxel``
    overwrites.
    """
    if len(state.values) != len(old.node_keys):
        raise FemError("state does not match the old mesh snapshot")
    new_keys = new_mesh.snapshot().node_keys
    new_values = np.full(len(new_keys), bcs.t_ambient)
    new_values[np.searchsorted(new_keys, old.node_keys)] = state.values
    return ThermalState(
        mesh=new_mesh,
        values=new_values,
        time=state.time,
        deposited=set(state.deposited),
    )
