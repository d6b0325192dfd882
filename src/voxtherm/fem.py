"""Trilinear hexahedral FEM for transient heat conduction on the octree.

Backward Euler over the ACTIVE elements only: ``(M + dt K) T = M T_prev
+ dt F``. Omitting inactive elements imposes the zero-flux condition on
the growing surface; nodes touched by no active element are pinned to
the ambient placeholder, bed nodes (z = 0) to the bed temperature.
Every active leaf is voxel-sized, so the active mesh is conforming: it
has no hanging nodes to condense, and the solve eliminates the Dirichlet
rows and runs PCG on the remaining block of the operator.

Only what the solve reads is carried from one deposit to the next: the
free block of the operator, its bed lift and diagonal, and the mass in
the form its matvec needs. A new voxel writes only the rows of its
corners. A row depends only on which of its node's 8 surrounding voxels
are active, so rows are memoized by that stencil and built on a miss with
the kernel the whole-mesh assembly runs; every bit matches a fresh
assembly. The whole matrices are built only when asked for.

All quantities are non-dimensional; the mesh lattice unit is the voxel
edge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.sparse as sp

from .octree import CHILD_OFFSETS, OctreeMesh

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


@dataclass(frozen=True)
class _Rows:
    """Rows of one matrix, concatenated: row k is ``cols``/``vals[ptr[k]:ptr[k + 1]]``."""

    ptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _splice(old: sp.csr_matrix, old_to_new: np.ndarray, rows: np.ndarray, fresh: _Rows,
            n: int) -> sp.csr_matrix:
    """``old`` on ``n`` nodes: rows ``rows`` rebuilt, the others renumbered.

    ``old_to_new`` gives each old row its new id and also renumbers the old
    columns; it only shifts ids up past the rows inserted, so row order and
    the order of columns within a row hold. ``rows`` are sorted new ids, and
    ``fresh`` row k is row ``rows[k]`` in new ids; it replaces an old row or
    goes in between two. Every other row keeps its values.
    """
    idx_t = old.indices.dtype
    indptr = np.zeros(n + 1, dtype=idx_t)
    indptr[old_to_new + 1] = np.diff(old.indptr)
    indptr[rows + 1] = np.diff(fresh.ptr)
    np.cumsum(indptr, out=indptr)
    indices = old.indices
    if n > len(old_to_new):  # rows were inserted, so the columns past them move up
        indices = old_to_new.astype(idx_t).take(indices)
    stops = np.searchsorted(old_to_new, rows)  # old rows before each rebuilt one
    starts = np.searchsorted(old_to_new, rows, side="right")  # past the one it replaces
    ptr, fptr, lo = old.indptr, fresh.ptr, 0
    cols, vals = [], []
    for k, (stop, start) in enumerate(zip(stops, starts)):
        cols += [indices[ptr[lo]:ptr[stop]], fresh.cols[fptr[k]:fptr[k + 1]]]
        vals += [old.data[ptr[lo]:ptr[stop]], fresh.vals[fptr[k]:fptr[k + 1]]]
        lo = start
    cols.append(indices[ptr[lo]:])
    vals.append(old.data[ptr[lo]:])
    return sp.csr_matrix(
        (np.concatenate(vals), np.concatenate(cols).astype(idx_t, copy=False), indptr),
        shape=(n, n),
    )


def _splice_values(old: np.ndarray, old_to_new: np.ndarray, rows: np.ndarray,
                   fresh: np.ndarray, n: int) -> np.ndarray:
    """``_splice`` for one value per row."""
    out = np.empty(n)
    out[old_to_new] = old
    out[rows] = fresh
    return out


def _fold(rows: _Rows, x: np.ndarray) -> np.ndarray:
    """Each row's sum of ``vals * x`` (``x`` given per entry), by a CSR matvec.

    The matvec adds a row's terms in stored order from +0.0, as a whole
    matrix's ``A @ x`` does, so a row gets the bits of its whole-matrix sum;
    ``np.dot`` and ``sum`` add in another order.
    """
    nnz = len(rows.vals)
    ids, ptr = np.arange(nnz, dtype=np.int32), rows.ptr.astype(np.int32)
    return sp.csr_matrix((rows.vals, ids, ptr), shape=(len(ptr) - 1, nnz)) @ x


# --- the stencil memo ----------------------------------------------------------

# The 3x3x3 block of lattice nodes around a node, numbered in node-key order:
# node p + d, d in {-1, 0, 1}^3, is 9 (dx + 1) + 3 (dy + 1) + (dz + 1), so p is 13.
_CENTER = 13
# [j, c]: block id of corner c of an element whose corner j is the center node
_BLOCK_IDS = _CENTER + (CHILD_OFFSETS[None, :, :] - CHILD_OFFSETS[:, None, :]) @ [9, 3, 1]


@dataclass(frozen=True)
class _StencilRow:
    """One node's row of M and of A = M + dt K, columns as block ids."""

    m_cols: np.ndarray
    m_vals: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray


def _stencil_rows(stencils: list, pair, dt: float) -> list[_StencilRow]:
    """The rows of nodes that are corner ``stencil[e]`` of their e-th active element.

    One ``_couple`` call builds them all, each stencil's elements in their
    order and numbered in a block of their own. A row so sees the (column,
    value) pairs it gets in any larger assembly, in the same order, so by
    ``_couple``'s invariant it has the whole-mesh bits.
    """
    conn = np.concatenate([_BLOCK_IDS[list(s)] + 27 * k for k, s in enumerate(stencils)])
    M, A = _couple(conn, pair, dt, 27 * len(stencils))
    rows = []
    for k in range(len(stencils)):
        r = 27 * k + _CENTER
        m = slice(M.indptr[r], M.indptr[r + 1])
        a = slice(A.indptr[r], A.indptr[r + 1])
        rows.append(_StencilRow(M.indices[m] - 27 * k, M.data[m].copy(),
                                A.indices[a] - 27 * k, A.data[a].copy()))
    return rows


def _stencils(conn: np.ndarray, rows: np.ndarray, m: int) -> tuple[list, np.ndarray]:
    """Memo keys of the nodes ``rows`` (sorted ids on ``m`` nodes) and their blocks.

    A node's key is the corner it takes in each active element of ``conn``
    touching it, in element (Morton) order: which of its 8 surrounding
    voxels are active, in the order the assembly visits them. ``blocks[k]``
    maps block ids around ``rows[k]`` to node ids (only those in its
    elements are set).
    """
    touched = np.zeros(m, dtype=bool)
    touched[rows] = True
    flat = conn.ravel()
    hits = np.flatnonzero(touched[flat])  # element order, then corner
    hits = hits[np.argsort(flat[hits], kind="stable")]  # by node, element order kept
    elem, corner = hits >> 3, hits & 7
    counts = np.bincount(np.searchsorted(rows, flat[hits]), minlength=len(rows))
    blocks = np.empty((len(rows), 27), dtype=conn.dtype)
    blocks[np.repeat(np.arange(len(rows)), counts)[:, None], _BLOCK_IDS[corner]] = conn[elem]
    ends = np.cumsum(counts).tolist()
    corner = corner.tolist()
    keys = [tuple(corner[a:b]) for a, b in zip([0] + ends[:-1], ends)]
    return keys, blocks


# --- state ---------------------------------------------------------------------


@dataclass
class ThermalState:
    """Nodal temperatures; ``values[i]`` sits at the node with lattice key ``node_keys[i]``.

    The keys are those of the node table the values follow, which a refine
    of ``mesh`` leaves behind until ``transfer_solution`` moves them on.
    """

    mesh: OctreeMesh
    values: np.ndarray
    node_keys: np.ndarray
    time: float = 0.0

    def active_values(self) -> np.ndarray:
        return self.values[self.mesh.active_node_mask()]


def initial_state(mesh: OctreeMesh, bcs: BoundarySpec) -> ThermalState:
    keys = mesh.snapshot().node_keys
    return ThermalState(mesh=mesh, values=np.full(len(keys), bcs.t_ambient), node_keys=keys)


# --- assembly -------------------------------------------------------------------


@dataclass(frozen=True)
class _Operator:
    """What the solve reads of M and A = M + dt K over the active elements.

    ``a_free`` is the block of A over the nodes free by geometry (active,
    z > 0), ``lift`` its bed lift ``(A @ x_bed)[free]`` and ``diag`` its
    diagonal; ``mass`` is M as its matvec needs it: the lumped diagonal over
    the active nodes, or consistent CSR rows over them. Its active leaves
    are held by Morton key, its nodes by id in the node table ``table``;
    after a refine those ids move to the new table by key
    (``OctreeMesh.node_ids``), so the operator is carried from deposit to
    deposit. ``memo`` maps a node's stencil key to its ``_StencilRow``; it
    is shared along the carried chain.
    """

    setup: tuple  # (material, lumped_mass, dt, t_bed) it was built for
    memo: dict
    leaf_keys: np.ndarray  # Morton keys of the active leaves it covers
    table: np.ndarray  # lattice keys of the node table its ids are on
    nodes: np.ndarray  # ids of the active nodes
    free: np.ndarray  # ids of the free ones, the rows of a_free
    a_free: sp.csr_matrix
    lift: np.ndarray
    diag: np.ndarray
    mass: np.ndarray | sp.csr_matrix


def _empty_operator(setup: tuple, table: np.ndarray) -> _Operator:
    none, ids = np.empty(0), np.empty(0, np.intp)
    return _Operator(setup, {}, np.empty(0, np.uint64), table, ids, ids,
                     sp.csr_matrix((0, 0)), none, none,
                     none if setup[1] else sp.csr_matrix((0, 0)))


def _lookup(op: _Operator, conn: np.ndarray, rows: np.ndarray,
            m: int) -> tuple[list[_StencilRow], np.ndarray]:
    """The memo rows of the nodes ``rows`` (sorted ids on ``m`` nodes) and their blocks.

    Stencils not in the memo yet are built, all in one ``_couple`` call.
    """
    mat, lumped, dt, _ = op.setup
    keys, blocks = _stencils(conn, rows, m)
    missing = [key for key in dict.fromkeys(keys) if key not in op.memo]
    if missing:
        op.memo.update(zip(missing, _stencil_rows(missing, _element_pair(mat, lumped), dt)))
    return [op.memo[key] for key in keys], blocks


def _joined(blocks: np.ndarray, cols: list, vals: list) -> _Rows:
    """Memo rows end to end, their block ids mapped to node ids through ``blocks``."""
    lens = [len(c) for c in cols]
    seg = np.repeat(np.arange(len(cols)), lens)
    return _Rows(np.concatenate(([0], np.cumsum(lens))), blocks[seg, np.concatenate(cols)],
                 np.concatenate(vals))


def _diagonal(cols: list, vals: list) -> np.ndarray:
    """Each memo row's value in its own node's column."""
    return np.concatenate(vals)[np.concatenate(cols) == _CENTER]


def _merge(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted ``ids`` with the sorted ``rows`` merged in.

    Returns the merged ids, each old id's position in them and each row's.
    """
    at = np.searchsorted(ids, rows)
    new = at == np.searchsorted(ids, rows, side="right")  # not in ids yet
    slots = at[new] + np.arange(np.count_nonzero(new))  # their positions once merged
    keep = np.ones(len(ids) + len(slots), dtype=bool)
    keep[slots] = False
    old_to_new = np.flatnonzero(keep)
    merged = np.empty(len(keep), dtype=ids.dtype)
    merged[old_to_new] = ids
    merged[slots] = rows[new]
    return merged, old_to_new, np.searchsorted(merged, rows)


def _carry(prev: _Operator | None, mesh: OctreeMesh, act: np.ndarray, conn: np.ndarray,
           setup: tuple) -> _Operator:
    """The operator over ``act``; from ``prev`` only the new leaves' corner rows change.

    ``conn`` holds the active leaves' node ids. ``prev``'s ids move to the
    current node table by key, and the new leaves' corners join the active
    and free ids. Every active leaf of ``prev`` is still active, so each of
    its nodes is a node of the current table.
    """
    _, lumped, _, t_bed = setup
    keys, coords = mesh.snapshot().node_keys, mesh.node_coords
    leaf_keys = mesh.keys[act]
    if prev is None:
        prev = _empty_operator(setup, keys)
    elif prev.setup != setup:
        raise FemError(
            "previous system was built for another material, mass or dt, or another bed temperature"
        )
    pos = np.minimum(np.searchsorted(leaf_keys, prev.leaf_keys), len(leaf_keys) - 1)
    if not np.array_equal(leaf_keys[pos], prev.leaf_keys):
        raise FemError("previous system covers a leaf that is no longer active")
    is_new = np.ones(len(act), dtype=bool)
    is_new[pos] = False
    nodes, free = prev.nodes, prev.free
    if prev.table is not keys:
        nodes, free = mesh.node_ids(prev.table[nodes]), mesh.node_ids(prev.table[free])
    if not is_new.any():
        return replace(prev, table=keys, nodes=nodes, free=free)

    rows = np.unique(conn[is_new])
    found, blocks = _lookup(prev, conn, rows, len(keys))
    a_cols, a_vals = [r.a_cols for r in found], [r.a_vals for r in found]
    A = _joined(blocks, a_cols, a_vals)
    row_free = coords[rows, 2] > 0
    col_free = coords[A.cols, 2] > 0
    nodes, to_active, active_rows = _merge(nodes, rows)
    free, to_free, free_rows = _merge(free, rows[row_free])
    seg = np.repeat(np.arange(len(rows)), np.diff(A.ptr))
    keep = row_free[seg] & col_free
    lens = np.bincount(seg[keep], minlength=len(rows))[row_free]
    fresh = _Rows(np.concatenate(([0], np.cumsum(lens))),
                  np.searchsorted(free, A.cols[keep]).astype(prev.a_free.indices.dtype),
                  A.vals[keep])
    if col_free.all():  # no bed column: each term is a value times +0.0, so the sum is +0.0
        lift = np.zeros(len(free_rows))
    else:
        lift = _fold(A, np.where(col_free, 0.0, t_bed))[row_free]
    diag = _diagonal(a_cols, a_vals)[row_free]

    m_cols, m_vals = [r.m_cols for r in found], [r.m_vals for r in found]
    if lumped:
        mass = _splice_values(prev.mass, to_active, active_rows, _diagonal(m_cols, m_vals),
                              len(nodes))
    else:
        M = _joined(blocks, m_cols, m_vals)
        M = _Rows(M.ptr, np.searchsorted(nodes, M.cols).astype(prev.mass.indices.dtype), M.vals)
        mass = _splice(prev.mass, to_active, active_rows, M, len(nodes))
    return _Operator(
        setup, prev.memo, leaf_keys, keys, nodes, free,
        _splice(prev.a_free, to_free, free_rows, fresh, len(free)),
        _splice_values(prev.lift, to_free, free_rows, lift, len(free)),
        _splice_values(prev.diag, to_free, free_rows, diag, len(free)),
        mass,
    )


def _hold(op: _Operator, conn: np.ndarray, free: np.ndarray, held: np.ndarray,
          x: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """``a_free``, ``lift``, ``diag`` and ``free`` with the active nodes ``held`` pinned too.

    Their rows and columns leave the free block, and the lift of every free
    row that shares an element with one of them is folded again from its
    full memo row, ``x`` holding the prescribed values (0 at free nodes).
    """
    keep = ~np.isin(free, held)
    a_free, lift, diag, free = op.a_free, op.lift[keep], op.diag[keep], free[keep]
    if not keep.all():
        a_free = a_free[keep][:, keep]
    near = np.intersect1d(conn[np.isin(conn, held).any(axis=1)], free)
    if len(near):
        found, blocks = _lookup(op, conn, near, len(x))
        A = _joined(blocks, [r.a_cols for r in found], [r.a_vals for r in found])
        lift[np.searchsorted(free, near)] = _fold(A, x[A.cols])
    return a_free, lift, diag, free


@dataclass
class LinearSystem:
    """One backward-Euler step over the active domain.

    What the solve reads comes from the carried ``operator``: the free block
    ``a_free`` over the unknowns ``free``, the Dirichlet lift
    ``(a @ x_pinned)[free]`` and the Jacobi inverse diagonal (None when the
    diagonal is not positive). ``b`` is ``mass @ T`` on the full node table.
    Later steps of a dwell refresh it with ``with_rhs``. The latent load
    ``dt*F`` enters only the first step's ``b``, the one ``assemble``
    builds, so a voxel releases its latent heat once.

    ``prescribed`` is the solution's template on the full node table: each
    pinned node's value, 0 at the unknowns. Every node not in ``free`` is
    pinned, so ``dirichlet_idx`` and ``dirichlet_val`` are built from the
    two on demand. ``a`` (M + dt K over the active ``elements``) and
    ``mass`` are full-node-table views, built on demand by one whole-mesh
    assembly.
    """

    operator: _Operator
    nodes: np.ndarray
    elements: np.ndarray
    n: int
    b: np.ndarray
    prescribed: np.ndarray
    free: np.ndarray
    a_free: sp.csr_matrix
    lift: np.ndarray
    inv_diag: np.ndarray | None

    @property
    def dirichlet_idx(self) -> np.ndarray:
        """Ids of the pinned nodes: every node that is not an unknown."""
        return np.delete(np.arange(self.n), self.free)

    @property
    def dirichlet_val(self) -> np.ndarray:
        """Their prescribed values."""
        return self.prescribed[self.dirichlet_idx]

    @functools.cached_property
    def _whole(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        mat, lumped, dt, _ = self.operator.setup
        return _couple(self.elements, _element_pair(mat, lumped), dt, self.n)

    @property
    def a(self) -> sp.csr_matrix:
        return self._whole[1]

    @property
    def mass(self) -> sp.csr_matrix:
        return self._whole[0]

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
    if op.setup[1]:
        # a lumped row's CSR sum: +0.0, its explicit zeros, then m * T
        b[nodes] = 0.0 + op.mass * values[nodes]
    else:
        b[nodes] = op.mass @ values[nodes]
    return b


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
    the rows of the newly active leaves' corners are written. Active nodes
    in ``extra_dirichlet`` are sliced out of the carried free block. The
    result is bit-identical to a whole-mesh assembly.
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
    for li in latent_leaves:
        li = int(li)
        if not 0 <= li < len(mesh):
            raise FemError(f"latent leaf {li} outside [0, {len(mesh)})")
        if not mesh.active[li]:
            raise FemError(f"latent leaf {li} is not active")

    extra = {}
    for nid, value in (extra_dirichlet or {}).items():
        nid, value = int(nid), float(value)
        if not 0 <= nid < m:
            raise FemError(f"extra_dirichlet node {nid} outside [0, {m})")
        if not math.isfinite(value):
            raise FemError(f"extra_dirichlet value for node {nid} must be finite, got {value}")
        extra[nid] = value

    conn = leaf_nodes[act]
    op = _carry(previous.operator if previous is not None else None,
                mesh, act, conn, (mat, lumped_mass, dt, bcs.t_bed))
    nodes, free = op.nodes, op.free
    # Pinned values, later assignments winning: ambient padding, bed plate, 0 at
    # the unknowns, the caller's.
    prescribed = np.full(m, bcs.t_ambient)
    prescribed[nodes] = bcs.t_bed
    prescribed[free] = 0.0
    a_free, lift, diag = op.a_free, op.lift, op.diag
    if extra:
        pins = np.array(sorted(extra))
        prescribed[pins] = [extra[nid] for nid in pins.tolist()]
        held = pins[np.isin(pins, nodes)]
        if len(held):
            a_free, lift, diag, free = _hold(op, conn, free, held, prescribed)

    b = _rhs(op, nodes, m, state.values)
    if mat.latent_source != 0.0 and latent_leaves:
        # Active leaves are unit voxels: each corner gets an eighth of the source.
        F = np.zeros(m)
        for li in latent_leaves:
            F[leaf_nodes[li]] += mat.latent_source / 8.0
        b = b + dt * F
    return LinearSystem(
        operator=op,
        nodes=nodes,
        elements=conn,
        n=m,
        b=b,
        prescribed=prescribed,
        free=free,
        a_free=a_free,
        lift=lift,
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
        if not math.isfinite(r_norm):
            raise SolverError(f"PCG residual is not finite at iteration {it}", residuals)
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
    carry their prescriptions exactly, copied from ``system.prescribed``.
    ``x0``, when given, is a full nodal vector; PCG starts from its free
    entries.
    """
    if x0 is not None and len(x0) != system.n:
        raise FemError(f"x0 has {len(x0)} values for a system on {system.n} nodes")
    x = system.prescribed.copy()
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


def activate_voxel(mesh: OctreeMesh, state: ThermalState, voxel, bcs: BoundarySpec) -> int:
    """Mark a freshly printed voxel's leaf active and set its 8 nodes to the deposit value.

    The leaf is marked through ``mesh.classify``, so it must already be at
    the voxel level; ``state`` must follow ``mesh``'s current node table.
    The mesh never writes a table in place, so a state that holds the
    table itself follows it; only another array is compared key by key.
    Returns the voxel's leaf index.
    """
    keys = mesh.snapshot().node_keys
    if state.node_keys is not keys and not np.array_equal(state.node_keys, keys):
        raise FemError("state is not on the mesh's nodes; transfer the solution after refining")
    (leaf,) = mesh.classify([voxel])
    state.values[mesh.leaf_nodes[leaf]] = bcs.t_deposit
    return int(leaf)


def transfer_solution(state: ThermalState, new_mesh: OctreeMesh, bcs: BoundarySpec) -> ThermalState:
    """Carry nodal values onto a refined mesh: the nodes it added start at ambient.

    Each value is copied bit-exactly to its node's id in the mesh's current
    table, found by key (``OctreeMesh.node_ids``). A split only adds nodes,
    and only inside inactive leaves, so every new node is either inactive
    padding that the next solve pins to ambient or a corner of the voxel
    that ``activate_voxel`` overwrites.
    """
    ids = new_mesh.node_ids(state.node_keys)
    if ids is None or len(state.values) != len(state.node_keys):
        raise FemError("state does not match its node keys, or they are not all nodes of the mesh")
    keys = new_mesh.snapshot().node_keys
    new_values = np.full(len(keys), bcs.t_ambient)
    new_values[ids] = state.values
    return ThermalState(mesh=new_mesh, values=new_values, node_keys=keys, time=state.time)
