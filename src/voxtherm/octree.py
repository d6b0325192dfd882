"""Linearized, 2:1-balanced octree over the voxel lattice.

Leaves are axis-aligned cubes stored as flat arrays (anchor, level) kept
strictly sorted by the Morton code of the anchor, so point location is a
binary search and a split is a splice (the 8 children occupy exactly the
parent's Morton range). Anchors are integer triples in finest-lattice
(voxel) units; the root spans ``2**max_level`` voxels per axis. Leaves are
made only by splits: a new mesh is the root leaf split ``base_level`` times,
and a split puts the children in Morton rank, so no step ever sorts. A split
writes each child's key from its parent's, ``parent | rank << 3 *
(max_level - child_level)``, so keys are never re-encoded; ``morton_encode``
serves lookups (and ``validate``'s check that every key is its anchor's).

The tree is kept 2:1 balanced across faces, edges and corners by one
local rule. A level-l cell exists only once its parent is split, and a
split parent needs every level-(l-1) cell touching it to exist, or a leaf
two levels coarser would touch one of its children. So refining to a voxel
splits only the voxel's *halo*: per level one box of cells, the parents of
the box below grown by one cell on each side; its cells are the box's corner
plus a cached offset table per box shape. Leaves are never coarsened.
Leaves carrying printed voxels are "active"; everything else is inactive
padding around the growing part. ``classify`` is atomic: it checks every
printed voxel before it marks any leaf.

Nodes are the distinct leaf corners, keyed by ``(x << 42) | (y << 21) | z``;
corners are at most ``2**19``, so key order is lexicographic (x, y, z) order.
The node table (keys, coordinates, each leaf's 8 node ids) is built by one
sort of all leaf corners the first time it is read. From then on each split
grows it in place: the children's corners that are new are inserted at their
key positions and older node ids move up by the count of insertions below
them (``merge``, the one sorted merge; the solve's carried ids use it too).
A field or operator on an older table moves to the current one by key
(``node_ids``). A mesh whose table was never read (a ``mesh-info`` replay)
builds it once, at the end.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from ._checks import is_integer, plain

__all__ = ["MeshError", "OctreeMesh", "MeshSnapshot", "morton_encode"]

# Child anchor offsets, x fastest: local child index equals the Morton rank.
CHILD_OFFSETS = np.array(
    [
        [0, 0, 0],
        [1, 0, 0],
        [0, 1, 0],
        [1, 1, 0],
        [0, 0, 1],
        [1, 0, 1],
        [0, 1, 1],
        [1, 1, 1],
    ],
    dtype=np.int64,
)

_LEVEL_BITS = 6  # level field packed into the low bits of the composite key
MAX_LEVEL = 19  # deepest root; a voxel lattice spans at most 2**MAX_LEVEL per axis
_NODE_BITS = 21  # bits per axis in a packed node key; holds 2**MAX_LEVEL inclusive


class MeshError(ValueError):
    """Octree structural or consistency failure."""


def _cell(cell) -> tuple[int, int, int]:
    """``cell`` as 3 Python ints; a bool is not an integer, a numpy integer is."""
    try:
        x, y, z = cell
    except (TypeError, ValueError):
        x = y = z = None
    if not all(is_integer(c) for c in (x, y, z)):
        raise MeshError(f"cell {plain(cell)!r} is not 3 integers")
    return int(x), int(y), int(z)


def morton_encode(coords, max_level: int) -> np.ndarray:
    """Interleave (x, y, z) lattice coordinates, x in the lowest bit."""
    c = np.asarray(coords, dtype=np.uint64)
    x, y, z = c[..., 0], c[..., 1], c[..., 2]
    key = np.zeros(x.shape, dtype=np.uint64)
    for b in range(max_level):
        bit = np.uint64(b)
        key |= ((x >> bit) & np.uint64(1)) << np.uint64(3 * b)
        key |= ((y >> bit) & np.uint64(1)) << np.uint64(3 * b + 1)
        key |= ((z >> bit) & np.uint64(1)) << np.uint64(3 * b + 2)
    return key


def merge(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def _pack(corners: np.ndarray) -> np.ndarray:
    """Node keys of integer lattice points (..., 3)."""
    return (corners[..., 0] << 2 * _NODE_BITS) | (corners[..., 1] << _NODE_BITS) | corners[..., 2]


def _unpack(keys: np.ndarray) -> np.ndarray:
    """Lattice points (n, 3) of node keys."""
    low = (1 << _NODE_BITS) - 1
    return np.column_stack([keys >> 2 * _NODE_BITS, (keys >> _NODE_BITS) & low, keys & low])


@functools.cache
def _box_offsets(shape: tuple[int, int, int]) -> np.ndarray:
    """Read-only (n, 3) offsets of every cell of a box of ``shape`` cells, z fastest.

    A halo box has at most 5 cells per axis, so the cache holds at most 125 tables.
    """
    axes = np.meshgrid(*(np.arange(n, dtype=np.int64) for n in shape), indexing="ij")
    offsets = np.stack(axes, axis=-1).reshape(-1, 3)
    offsets.flags.writeable = False
    return offsets


def _corners(anchors: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(n, 8, 3) corners of the cubes at ``anchors`` with edges ``sizes``, x fastest."""
    return anchors[:, None, :] + CHILD_OFFSETS[None, :, :] * sizes[:, None, None]


class _NodeTable(NamedTuple):
    """The node table of the current mesh version."""

    keys: np.ndarray
    coords: np.ndarray
    leaf_nodes: np.ndarray


class MeshSnapshot(NamedTuple):
    """Immutable view of the mesh geometry and its node table at one version."""

    max_level: int
    anchors: np.ndarray
    levels: np.ndarray
    node_keys: np.ndarray
    node_coords: np.ndarray
    leaf_nodes: np.ndarray


class OctreeMesh:
    """Mutable linearized octree; single writer, no coarsening."""

    def __init__(self, max_level: int, base_level: int = 2):
        for name, level in (("max_level", max_level), ("base_level", base_level)):
            if not is_integer(level):
                raise MeshError(f"{name} must be an integer, got {plain(level)!r}")
        if max_level < 0 or max_level > MAX_LEVEL:
            raise MeshError(f"max_level must be in [0, {MAX_LEVEL}], got {max_level}")
        if not (0 <= base_level <= max_level):
            raise MeshError(
                f"base_level must be in [0, max_level={max_level}], got {base_level}"
            )
        self.max_level = int(max_level)
        self.base_level = int(base_level)
        self.root_extent = 1 << self.max_level
        self.anchors = np.zeros((1, 3), dtype=np.int64)  # the root leaf
        self.levels = np.zeros(1, dtype=np.int64)
        self.keys = np.zeros(1, dtype=np.uint64)
        self.active = np.zeros(1, dtype=bool)
        self._node_cache: _NodeTable | None = None
        self.version = 0
        for _ in range(base_level):
            self._split(np.ones(len(self.levels), dtype=bool))
        self.version = 0

    @classmethod
    def from_grid(cls, grid, base_level: int = 2) -> "OctreeMesh":
        """The grid's tight power-of-two cube, ``base_level`` capped at its depth."""
        depth = grid.octree_level
        return cls(max_level=depth, base_level=min(base_level, depth))

    # --- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.levels)

    def leaf_sizes(self) -> np.ndarray:
        return (self.root_extent >> self.levels).astype(np.int64)

    def find_leaf(self, cell) -> int:
        """Index of the leaf containing a finest-lattice cell."""
        c = _cell(cell)
        if not all(0 <= x < self.root_extent for x in c):
            raise MeshError(f"cell {c} outside root cube")
        return int(self._find_leaves(np.array(c, dtype=np.int64)))

    def _find_leaves(self, cells: np.ndarray) -> np.ndarray:
        keys = morton_encode(cells, self.max_level)
        return np.searchsorted(self.keys, keys, side="right") - 1

    # --- mutation -----------------------------------------------------------

    def _split(self, mask: np.ndarray) -> None:
        """Replace each flagged leaf by its 8 children, preserving sort order."""
        if self.active[mask].any():
            raise MeshError("attempted to split an active (voxel-level) leaf")
        if np.any(self.levels[mask] >= self.max_level):
            raise MeshError("attempted to split below the voxel level")
        reps = np.where(mask, 8, 1)
        parent = np.repeat(np.arange(len(self.levels)), reps)
        starts = np.concatenate(([0], np.cumsum(reps)))[:-1]
        local = np.arange(len(parent)) - starts[parent]

        anchors = self.anchors[parent]
        levels = self.levels[parent]
        keys = self.keys[parent]
        is_child = mask[parent]
        kids = local[is_child]
        kid_levels = levels[is_child] + 1
        levels[is_child] = kid_levels
        anchors[is_child] += CHILD_OFFSETS[kids] * (self.root_extent >> kid_levels)[:, None]
        # the child's Morton digit at its own level; the parent key has zeros there
        shift = np.uint64(3) * (self.max_level - kid_levels).astype(np.uint64)
        keys[is_child] |= kids.astype(np.uint64) << shift

        self.anchors = anchors
        self.levels = levels
        self.active = self.active[parent]
        self.keys = keys
        self.version += 1
        if self._node_cache is not None:
            self._node_cache = self._grown(self._node_cache, parent, is_child)

    def _require(self, cell, level: int) -> bool:
        """Split leaves until the level-``level`` cell holding ``cell`` exists.

        The cells needed at each level form one box: the cell itself at
        ``level``, then per coarser level the parents of the box below grown
        by one cell on each side, clipped to the root. Splitting the boxes
        coarsest first costs at most one ``_split`` per level.
        """
        lo = hi = np.asarray(cell, dtype=np.int64) >> (self.max_level - level)
        boxes = []
        for lvl in range(level, self.base_level, -1):
            boxes.append((lvl, lo, hi))
            lo = np.maximum((lo >> 1) - 1, 0)
            hi = np.minimum((hi >> 1) + 1, (1 << (lvl - 1)) - 1)
        changed = False
        for lvl, lo, hi in reversed(boxes):
            cells = (lo + _box_offsets(tuple((hi - lo + 1).tolist()))) << (self.max_level - lvl)
            holders = self._find_leaves(cells)
            mask = np.zeros(len(self.levels), dtype=bool)
            mask[holders[self.levels[holders] < lvl]] = True
            if mask.any():
                self._split(mask)
                changed = True
        return changed

    def enforce_balance(self) -> bool:
        """Split coarse leaves until no two touching leaves differ by 2+ levels.

        Needed only after bare ``_split`` calls; refinement keeps balance.
        """
        changed = False
        # _split replaces the arrays, so this walks the leaves as they were
        for anchor, level in zip(self.anchors, self.levels):
            changed |= self._require(anchor, int(level))
        return changed

    def refine_to_voxel(self, voxel) -> bool:
        """Split the leaf holding ``voxel`` down to the voxel level, with its halo.

        Returns whether the mesh changed; idempotent.
        """
        if self.levels[self.find_leaf(voxel)] >= self.max_level:
            return False
        return self._require(voxel, self.max_level)

    def classify(self, printed) -> np.ndarray:
        """Mark leaves holding printed voxels active; return each voxel's leaf, in input order.

        Active leaves are never split, so marking is idempotent. A printed
        voxel whose leaf is coarser than the voxel level is a consistency
        error (refine first).
        """
        leaves = []
        for v in printed:
            t = _cell(v)
            idx = self.find_leaf(t)
            if self.levels[idx] != self.max_level:
                raise MeshError(
                    f"printed voxel {t} sits in a level-{int(self.levels[idx])} leaf; "
                    f"expected level {self.max_level}"
                )
            leaves.append(idx)
        leaves = np.array(leaves, dtype=np.int64)
        self.active[leaves] = True  # every voxel checked first, so a failure marks none
        return leaves

    # --- nodes --------------------------------------------------------------

    def _nodes(self) -> _NodeTable:
        """The node table of this mesh version; built from scratch only when none is kept."""
        if self._node_cache is None:
            self._node_cache = self._build_nodes()
        return self._node_cache

    def _build_nodes(self) -> _NodeTable:
        """The node table by one sort of every leaf corner."""
        corners = _corners(self.anchors, self.leaf_sizes()).reshape(-1, 3)
        keys, first, inverse = np.unique(_pack(corners), return_index=True, return_inverse=True)
        return _NodeTable(keys, corners[first], inverse.reshape(-1, 8))

    def _grown(self, table: _NodeTable, parent: np.ndarray, is_child: np.ndarray) -> _NodeTable:
        """``table`` after the split that made leaf i of the new arrays from old leaf ``parent[i]``.

        New nodes are the children's corners not in the table yet; every
        older node id moves up by the count of new nodes inserted below it.
        Only the children's rows of ``leaf_nodes`` are looked up.
        """
        kids = np.flatnonzero(is_child)
        corners = _pack(_corners(self.anchors[kids], self.root_extent >> self.levels[kids]))
        cand, inverse = np.unique(corners.ravel(), return_inverse=True)
        keys, old_to_new, cand_ids = merge(table.keys, cand)
        leaf_nodes = old_to_new.take(table.leaf_nodes.take(parent, axis=0))
        leaf_nodes[kids] = cand_ids[inverse].reshape(-1, 8)
        return _NodeTable(keys, _unpack(keys), leaf_nodes)

    def node_ids(self, node_keys: np.ndarray) -> np.ndarray | None:
        """Ids in the current node table of the nodes keyed ``node_keys``.

        Splits only add nodes, so every node of an earlier table of this mesh
        is a node of the current one. None when a key is not a node.
        """
        keys = self._nodes().keys
        ids = np.searchsorted(keys, node_keys)
        if not np.array_equal(keys.take(ids, mode="clip"), node_keys):
            return None
        return ids

    @property
    def node_coords(self) -> np.ndarray:
        """(m, 3) unique corner nodes of all leaves, in node-key order."""
        return self._nodes().coords

    @property
    def leaf_nodes(self) -> np.ndarray:
        """(n, 8) node indices per leaf, x-fastest corner order."""
        return self._nodes().leaf_nodes

    def active_node_mask(self) -> np.ndarray:
        """(m,) True at every corner node of an active leaf."""
        table = self._nodes()
        mask = np.zeros(len(table.keys), dtype=bool)
        mask[table.leaf_nodes[self.active]] = True
        return mask

    # --- snapshots, checks --------------------------------------------------

    def snapshot(self) -> MeshSnapshot:
        table = self._nodes()
        return MeshSnapshot(
            max_level=self.max_level,
            anchors=self.anchors,
            levels=self.levels,
            node_keys=table.keys,
            node_coords=table.coords,
            leaf_nodes=table.leaf_nodes,
        )

    def dump(self) -> str:
        """One line per leaf: ``morton_key level ai aj ak active``."""
        keys = (self.keys << np.uint64(_LEVEL_BITS)) | self.levels.astype(np.uint64)
        rows = zip(keys.tolist(), self.levels.tolist(), self.anchors.tolist(),
                   self.active.astype(np.int64).tolist())
        return "".join(f"{k} {lvl} {x} {y} {z} {a}\n" for k, lvl, (x, y, z), a in rows)

    def validate(self) -> None:
        """Exact structural invariants: alignment, keys, sortedness, tiling, levels."""
        sizes = self.leaf_sizes()
        if np.any(self.anchors % sizes[:, None] != 0):
            raise MeshError("anchor not aligned to its level lattice")
        if np.any((self.levels < 0) | (self.levels > self.max_level)):
            raise MeshError("leaf level out of range")
        if not np.array_equal(self.keys, morton_encode(self.anchors, self.max_level)):
            raise MeshError("leaf key is not the Morton code of its anchor")
        if np.any(self.keys[1:] <= self.keys[:-1]):
            raise MeshError("leaves not strictly Morton-sorted")
        spans = (np.uint64(1) << (np.uint64(3) * (self.max_level - self.levels).astype(np.uint64)))
        ends = self.keys + spans
        if int(self.keys[0]) != 0 or int(ends[-1]) != 8**self.max_level:
            raise MeshError("leaf Morton ranges do not span the root cube")
        if np.any(self.keys[1:] != ends[:-1]):
            raise MeshError("gap or overlap in leaf Morton ranges")
        if np.any(self.active & (self.levels != self.max_level)):
            raise MeshError("active leaf not at voxel level")
