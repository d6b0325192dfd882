"""Octree structure against brute-force reference implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxtherm.octree import MAX_LEVEL, MeshError, OctreeMesh, merge, morton_encode

# --- oracles -----------------------------------------------------------------


def boxes_touch(a1, s1, a2, s2):
    return all(a1[d] <= a2[d] + s2 and a2[d] <= a1[d] + s1 for d in range(3))


def all_pairs_balanced(mesh) -> bool:
    """Full 2:1 balance across faces, edges and corners, checked pairwise."""
    a = mesh.anchors
    s = mesh.leaf_sizes()
    lo = a[:, None, :]
    hi = (a + s[:, None])[:, None, :]
    lo2 = a[None, :, :]
    hi2 = (a + s[:, None])[None, :, :]
    touch = np.all((lo <= hi2) & (lo2 <= hi), axis=2)
    np.fill_diagonal(touch, False)
    dl = np.abs(mesh.levels[:, None] - mesh.levels[None, :])
    return not bool(np.any(touch & (dl >= 2)))


class RefOctree:
    """Naive set-of-boxes octree: recursive splits, pairwise balance closure."""

    def __init__(self, max_level, base_level):
        self.L = max_level
        root = 1 << max_level
        size = root >> base_level
        self.leaves = {
            (x * size, y * size, z * size, base_level)
            for x in range(1 << base_level)
            for y in range(1 << base_level)
            for z in range(1 << base_level)
        }
        self.root = root

    def _size(self, leaf):
        return self.root >> leaf[3]

    def containing(self, v):
        for leaf in self.leaves:
            s = self._size(leaf)
            if all(leaf[d] <= v[d] < leaf[d] + s for d in range(3)):
                return leaf
        raise AssertionError(f"no leaf contains {v}")

    def split(self, leaf):
        self.leaves.remove(leaf)
        half = self._size(leaf) // 2
        for dz in (0, 1):
            for dy in (0, 1):
                for dx in (0, 1):
                    self.leaves.add(
                        (leaf[0] + dx * half, leaf[1] + dy * half, leaf[2] + dz * half, leaf[3] + 1)
                    )

    def balance(self):
        while True:
            worst = None
            for p in self.leaves:
                for q in self.leaves:
                    if p is q or p == q:
                        continue
                    if q[3] - p[3] >= 2 and boxes_touch(p[:3], self._size(p), q[:3], self._size(q)):
                        worst = p
                        break
                if worst:
                    break
            if worst is None:
                return
            self.split(worst)

    def refine(self, v):
        while True:
            c = self.containing(v)
            if c[3] >= self.L:
                return
            self.split(c)
            self.balance()

    def leaf_set(self):
        return set(self.leaves)


# All 26 face/edge/corner direction vectors.
DIRS26 = np.array(
    [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
     if (dx, dy, dz) != (0, 0, 0)],
    dtype=np.int64,
)


def ghost_balance(mesh):
    """Global fixed point: ghost all 26 neighbours of every leaf, split holders 2+ coarser."""
    while True:
        sizes = mesh.leaf_sizes()
        ghosts = (mesh.anchors[:, None, :] + DIRS26[None, :, :] * sizes[:, None, None]).reshape(-1, 3)
        valid = np.all((ghosts >= 0) & (ghosts < mesh.root_extent), axis=1)
        holders = np.full(len(ghosts), -1, dtype=np.int64)
        holders[valid] = mesh._find_leaves(ghosts[valid])
        own = np.repeat(mesh.levels, 26)
        viol = valid & (mesh.levels[np.clip(holders, 0, None)] <= own - 2)
        if not viol.any():
            return
        mask = np.zeros(len(mesh), dtype=bool)
        mask[holders[viol]] = True
        mesh._split(mask)


def split_leaf_at(mesh, cell):
    """Bare split of the leaf holding ``cell``; no balance."""
    mask = np.zeros(len(mesh), dtype=bool)
    mask[mesh.find_leaf(cell)] = True
    mesh._split(mask)


def ghost_refine(mesh, voxel):
    """Split the enclosing leaf one level at a time, ghost-balancing after each split."""
    while mesh.levels[mesh.find_leaf(voxel)] < mesh.max_level:
        split_leaf_at(mesh, voxel)
        ghost_balance(mesh)


def mesh_leaf_set(mesh):
    return {
        (int(a[0]), int(a[1]), int(a[2]), int(l))
        for a, l in zip(mesh.anchors, mesh.levels)
    }


# --- construction and refinement ----------------------------------------------


def test_morton_encoding_basics():
    assert int(morton_encode((0, 0, 0), 3)) == 0
    assert int(morton_encode((1, 0, 0), 3)) == 1
    assert int(morton_encode((0, 1, 0), 3)) == 2
    assert int(morton_encode((0, 0, 1), 3)) == 4
    assert int(morton_encode((1, 1, 1), 3)) == 7
    assert int(morton_encode((2, 0, 0), 3)) == 8


def test_base_level_construction():
    mesh = OctreeMesh(max_level=4, base_level=2)
    assert len(mesh) == 64
    assert np.all(mesh.levels == 2)
    mesh.validate()


def test_levels_must_be_integers():
    """A fractional, bool or text level fails as a MeshError naming its
    argument: 2.5 would build a depth-2 tree and True a depth-1 one."""
    cases = [
        ({"max_level": 2.5}, "max_level must be an integer, got 2.5"),
        ({"max_level": True}, "max_level must be an integer, got True"),
        ({"max_level": "3"}, "max_level must be an integer, got '3'"),
        ({"max_level": np.float64(3.0)}, "max_level must be an integer, got 3.0"),
        ({"max_level": 3, "base_level": 1.5}, "base_level must be an integer, got 1.5"),
        ({"max_level": 3, "base_level": np.bool_(True)}, "base_level must be an integer, got True"),
        ({"max_level": 20}, r"max_level must be in \[0, 19\], got 20"),
        ({"max_level": 2, "base_level": 3}, r"base_level must be in \[0, max_level=2\], got 3"),
    ]
    for kwargs, message in cases:
        with pytest.raises(MeshError, match=rf"^{message}$"):
            OctreeMesh(**kwargs)
    mesh = OctreeMesh(max_level=np.int64(3), base_level=np.uint8(1))
    assert (mesh.max_level, mesh.base_level, len(mesh)) == (3, 1, 8)


def oracle_morton_key(anchor, max_level):
    """Morton key of one anchor by bit interleaving in Python ints, x lowest."""
    key = 0
    for b in range(max_level):
        for axis in range(3):
            key |= ((int(anchor[axis]) >> b) & 1) << (3 * b + axis)
    return key


@pytest.mark.parametrize("max_level", range(5))
def test_new_mesh_is_the_morton_sorted_base_lattice(max_level):
    """Splitting the root ``base_level`` times gives the base lattice in
    Morton order, dtypes and shapes included, at version 0."""
    for base in range(max_level + 1):
        mesh = OctreeMesh(max_level=max_level, base_level=base)
        size = (1 << max_level) >> base
        ax = np.arange(1 << base, dtype=np.int64) * size
        lattice = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1).reshape(-1, 3)
        keys = np.array([oracle_morton_key(a, max_level) for a in lattice], dtype=np.uint64)
        order = np.argsort(keys)
        expect = {"anchors": lattice[order], "levels": np.full(len(lattice), base, dtype=np.int64),
                  "keys": keys[order], "active": np.zeros(len(lattice), dtype=bool)}
        for name, want in expect.items():
            got = getattr(mesh, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        assert mesh.version == 0
        mesh.validate()


def test_split_keys_are_the_anchors_morton_codes_down_to_the_deepest_level():
    """Children's keys come from their parent's; at every depth of the deepest
    root they equal the Python-int Morton code of their anchors."""
    rng = np.random.default_rng(24)
    for _ in range(4):
        mesh = OctreeMesh(max_level=MAX_LEVEL, base_level=0)
        cell = tuple(int(c) for c in rng.integers(0, 1 << MAX_LEVEL, size=3))
        for level in range(MAX_LEVEL):
            split_leaf_at(mesh, cell)
            want = [oracle_morton_key(a, MAX_LEVEL) for a in mesh.anchors]
            assert mesh.keys.tolist() == want, level
        assert mesh.levels[mesh.find_leaf(cell)] == MAX_LEVEL
        mesh.validate()


def test_validate_checks_every_key_against_its_anchor():
    """Swapped anchors of two same-level leaves keep the keys sorted and tiling;
    only the key check sees them."""
    mesh = OctreeMesh(max_level=3, base_level=1)
    mesh.refine_to_voxel((5, 2, 7))
    mesh.validate()
    pair = np.flatnonzero(mesh.levels == 1)[:2]
    mesh.anchors[pair] = mesh.anchors[pair[::-1]]
    with pytest.raises(MeshError, match="^leaf key is not the Morton code of its anchor$"):
        mesh.validate()


def test_refine_root_only_one_level():
    mesh = OctreeMesh(max_level=1, base_level=0)
    assert len(mesh) == 1
    assert mesh.refine_to_voxel((0, 0, 0))
    assert len(mesh) == 8
    assert np.all(mesh.levels == 1)
    mesh.validate()


def test_refine_root_only_two_levels_gives_15_leaves():
    mesh = OctreeMesh(max_level=2, base_level=0)
    mesh.refine_to_voxel((0, 0, 0))
    assert len(mesh) == 15
    assert int(np.sum(mesh.levels == 1)) == 7
    assert int(np.sum(mesh.levels == 2)) == 8
    mesh.validate()
    assert all_pairs_balanced(mesh)
    ref = RefOctree(2, 0)
    ref.refine((0, 0, 0))
    assert mesh_leaf_set(mesh) == ref.leaf_set()


def test_refine_is_idempotent():
    mesh = OctreeMesh(max_level=3, base_level=1)
    assert mesh.refine_to_voxel((5, 2, 7))
    before = mesh_leaf_set(mesh)
    assert not mesh.refine_to_voxel((5, 2, 7))
    assert mesh_leaf_set(mesh) == before


def test_random_sequences_match_reference():
    rng = np.random.default_rng(7)
    for trial in range(12):
        L = int(rng.integers(2, 4))
        base = int(rng.integers(0, 2))
        mesh = OctreeMesh(max_level=L, base_level=base)
        ref = RefOctree(L, base)
        for _ in range(int(rng.integers(1, 6))):
            v = tuple(int(x) for x in rng.integers(0, 1 << L, size=3))
            mesh.refine_to_voxel(v)
            ref.refine(v)
            mesh.validate()
            assert all_pairs_balanced(mesh)
            assert mesh_leaf_set(mesh) == ref.leaf_set()


def test_enforce_balance_repairs_manual_splits():
    mesh = OctreeMesh(max_level=3, base_level=0)
    # split down to a unit leaf at (3,3,3) without balancing: it ends up
    # corner-adjacent to untouched level-1 leaves (difference 2)
    for _ in range(3):
        idx = mesh.find_leaf((3, 3, 3))
        mask = np.zeros(len(mesh), dtype=bool)
        mask[idx] = True
        mesh._split(mask)
    assert not all_pairs_balanced(mesh)
    assert mesh.enforce_balance()
    assert all_pairs_balanced(mesh)
    mesh.validate()
    assert not mesh.enforce_balance()  # fixpoint


def test_refinement_splits_at_most_once_per_level():
    rng = np.random.default_rng(4)
    for _ in range(40):
        L = int(rng.integers(3, 6))
        base = int(rng.integers(0, L + 1))
        mesh = OctreeMesh(max_level=L, base_level=base)
        for _ in range(20):
            v = tuple(int(x) for x in rng.integers(0, 1 << L, size=3))
            before = mesh.version
            mesh.refine_to_voxel(v)
            assert mesh.version - before <= L - base


def test_refinement_matches_ghost_fixed_point_oracle():
    rng = np.random.default_rng(11)
    for _ in range(6):
        L = int(rng.integers(4, 7))
        base = int(rng.integers(0, 3))
        mesh = OctreeMesh(max_level=L, base_level=base)
        ref = OctreeMesh(max_level=L, base_level=base)
        centre = rng.integers(0, 1 << L, size=3)
        for _ in range(15):
            v = tuple(int(x) for x in np.clip(centre + rng.integers(-3, 4, size=3), 0, (1 << L) - 1))
            mesh.refine_to_voxel(v)
            ghost_refine(ref, v)
            assert mesh.dump() == ref.dump()
        mesh.validate()


def test_enforce_balance_matches_ghost_oracle_on_manual_splits():
    rng = np.random.default_rng(12)
    for _ in range(10):
        L = int(rng.integers(3, 6))
        base = int(rng.integers(0, 2))
        mesh = OctreeMesh(max_level=L, base_level=base)
        for _ in range(int(rng.integers(1, 5))):
            cell = tuple(int(x) for x in rng.integers(0, 1 << L, size=3))
            for _ in range(int(rng.integers(0, L - base + 1))):
                if mesh.levels[mesh.find_leaf(cell)] < L:
                    split_leaf_at(mesh, cell)
        ref = OctreeMesh(max_level=L, base_level=base)
        ref.anchors, ref.levels, ref.keys = mesh.anchors, mesh.levels, mesh.keys
        ref.active = mesh.active.copy()
        mesh.enforce_balance()
        ghost_balance(ref)
        assert mesh.dump() == ref.dump()
        mesh.validate()
        assert not mesh.enforce_balance()


def test_find_leaf_and_octant_ranges():
    mesh = OctreeMesh(max_level=2, base_level=0)
    mesh.refine_to_voxel((0, 0, 0))
    idx = mesh.find_leaf((3, 3, 3))
    lo = mesh.anchors[idx]
    size = mesh.leaf_sizes()[idx]
    assert all(lo[d] <= 3 < lo[d] + size for d in range(3))
    assert size == 1 << (2 - mesh.levels[idx])
    with pytest.raises(MeshError):
        mesh.find_leaf((4, 0, 0))


def test_classify_marks_and_validates_levels():
    mesh = OctreeMesh(max_level=3, base_level=1)
    with pytest.raises(MeshError):
        mesh.classify([(0, 0, 0)])  # leaf still coarse
    mesh.refine_to_voxel((0, 0, 0))
    active = mesh.classify([(0, 0, 0)])
    assert len(active) == 1
    assert mesh.active[active[0]]
    assert active[0] == mesh.find_leaf((0, 0, 0))
    mesh.validate()
    # classify is monotone: re-adding is a no-op
    assert len(mesh.classify([(0, 0, 0)])) == 1
    assert mesh.active.sum() == 1
    # several voxels: each one's leaf, in input order, repeats included
    printed = [(7, 7, 7), (0, 0, 0), (3, 4, 2), (7, 0, 5), (3, 4, 2)]
    for v in printed:
        mesh.refine_to_voxel(v)
    leaves = mesh.classify(printed)
    np.testing.assert_array_equal(leaves, [mesh.find_leaf(v) for v in printed])
    assert list(np.flatnonzero(mesh.active)) == sorted(set(leaves.tolist()))
    mesh.validate()


def test_classify_checks_every_voxel_before_it_marks_one():
    """A batch with one coarse voxel raises and leaves ``active`` as it was."""
    mesh = OctreeMesh(max_level=3, base_level=1)
    mesh.refine_to_voxel((0, 0, 0))
    mesh.refine_to_voxel((5, 5, 5))
    mesh.classify([(5, 5, 5)])
    before = mesh.active.copy()
    for batch in ([(0, 0, 0), (7, 0, 7)], [(0, 0, 0), (1, 0, 0), (7, 0, 7), (5, 5, 5)]):
        with pytest.raises(MeshError, match=r"printed voxel \(7, 0, 7\) sits in a level-2 leaf"):
            mesh.classify(batch)
        np.testing.assert_array_equal(mesh.active, before)
    empty = mesh.classify([])
    assert empty.shape == (0,) and empty.dtype == np.int64


NOT_CELLS = [
    (1.5, 0, 0), (1.7, 0.2, 0.9), (True, 0, 0), (np.True_, 0, 0), ("a", 0, 0), (1, 0),
    (1, 0, 0, 0), (float("nan"), 0, 0), (np.float64(1.0), 0, 0), np.array([1.0, 0.0, 0.0]),
    np.int64(1), "abc", None, 7,
]


@pytest.mark.parametrize("cell", NOT_CELLS, ids=repr)
def test_a_cell_that_is_not_3_integers_fails_before_any_split_or_mark(cell):
    mesh = OctreeMesh(max_level=2, base_level=0)
    mesh.refine_to_voxel((0, 0, 0))
    before = mesh.dump()
    calls = (mesh.find_leaf, mesh.refine_to_voxel, lambda c: mesh.classify([(0, 0, 0), c]))
    for call in calls:
        with pytest.raises(MeshError, match="is not 3 integers$") as err:
            call(cell)
        assert str(err.value).startswith("cell ") and "np." not in str(err.value)
        assert mesh.dump() == before


def test_numpy_integer_cells_pass():
    mesh = OctreeMesh(max_level=2, base_level=0)
    cells = (np.array([1, 0, 0]), (np.int32(1), np.uint8(0), np.int64(0)), [1, 0, 0])
    assert [mesh.refine_to_voxel(c) for c in cells] == [True, False, False]
    assert {mesh.find_leaf(c) for c in cells} == {mesh.find_leaf((1, 0, 0))}
    mesh.classify([np.array([1, 0, 0])])
    assert mesh.active.sum() == 1
    with pytest.raises(MeshError, match=r"^cell \(4, 0, 0\) outside root cube$"):
        mesh.find_leaf(np.array([4, 0, 0]))
    with pytest.raises(MeshError, match="outside root cube"):
        mesh.find_leaf((2**70, 0, 0))


_scalar = st.one_of(st.integers(), st.integers(-2, 9), st.floats(), st.booleans(),
                    st.text(max_size=2), st.none(),
                    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(-2, 9).map(np.int64),
                    st.floats().map(np.float64), st.booleans().map(np.bool_),
                    st.text(max_size=2).map(np.str_))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(_scalar, max_size=4), st.tuples(_scalar, _scalar, _scalar), _scalar))
def test_any_short_cell_finds_a_leaf_or_raises_mesh_error(cell):
    """ROADMAP's boundary model for cells: a leaf, a bool, or a named MeshError
    with no numpy repr; the mesh stays valid either way."""
    mesh = OctreeMesh(max_level=3, base_level=1)
    for call in (mesh.find_leaf, mesh.refine_to_voxel, lambda c: mesh.classify([c])):
        try:
            call(cell)
        except MeshError as err:
            assert str(err).startswith("cell ") or "printed voxel" in str(err)
            assert "np." not in str(err)
        mesh.validate()


def test_split_refuses_active_and_bottom_leaves():
    mesh = OctreeMesh(max_level=1, base_level=1)
    mesh.classify([(0, 0, 0)])
    mask = np.zeros(len(mesh), dtype=bool)
    mask[mesh.find_leaf((0, 0, 0))] = True
    with pytest.raises(MeshError):
        mesh._split(mask)


# --- nodes ---------------------------------------------------------------------


def test_node_table_counts():
    mesh = OctreeMesh(max_level=1, base_level=0)
    assert len(mesh.node_coords) == 8
    mesh.refine_to_voxel((0, 0, 0))
    assert len(mesh.node_coords) == 27
    assert mesh.leaf_nodes.shape == (8, 8)


def test_leaf_nodes_match_geometry():
    mesh = OctreeMesh(max_level=2, base_level=0)
    mesh.refine_to_voxel((1, 2, 3))
    coords = mesh.node_coords
    sizes = mesh.leaf_sizes()
    from voxtherm.octree import CHILD_OFFSETS

    for i in range(len(mesh)):
        expect = mesh.anchors[i][None, :] + CHILD_OFFSETS * sizes[i]
        assert np.array_equal(coords[mesh.leaf_nodes[i]], expect)


def oracle_node_table(mesh):
    """Node table by a lexicographic row sort of all leaf corners."""
    from voxtherm.octree import CHILD_OFFSETS

    sizes = mesh.leaf_sizes()
    corners = mesh.anchors[:, None, :] + CHILD_OFFSETS[None, :, :] * sizes[:, None, None]
    coords, inverse = np.unique(corners.reshape(-1, 3), axis=0, return_inverse=True)
    leaf_nodes = inverse.reshape(-1, 8)
    mask = np.zeros(len(coords), dtype=bool)
    if mesh.active.any():
        mask[np.unique(leaf_nodes[mesh.active])] = True
    return coords, leaf_nodes, mask


def test_node_table_matches_row_sort_oracle_on_random_sequences():
    rng = np.random.default_rng(20261018)
    for _ in range(25):
        max_level = int(rng.integers(1, 5))
        mesh = OctreeMesh(max_level=max_level, base_level=int(rng.integers(0, max_level + 1)))
        for _ in range(int(rng.integers(1, 10))):
            v = tuple(int(c) for c in rng.integers(0, 1 << max_level, size=3))
            mesh.refine_to_voxel(v)
            if rng.random() < 0.7:
                mesh.classify([v])
            coords, leaf_nodes, mask = oracle_node_table(mesh)
            assert np.array_equal(mesh.node_coords, coords)
            assert np.array_equal(mesh.leaf_nodes, leaf_nodes)
            assert np.array_equal(mesh.active_node_mask(), mask)
            keys = mesh.snapshot().node_keys
            assert len(keys) == len(coords)
            assert np.all(keys[1:] > keys[:-1])


def test_grown_node_table_equals_a_rebuild_after_every_refine():
    """With the table read after every refine, each split grows it in place;
    keys, coordinates and leaf rows equal a from-scratch build, dtypes and
    shapes included, and every node of the previous table keeps its key at
    the id ``node_ids`` gives it."""
    rng = np.random.default_rng(20261019)
    for _ in range(40):
        max_level = int(rng.integers(1, 6))
        mesh = OctreeMesh(max_level=max_level, base_level=int(rng.integers(0, max_level + 1)))
        before = mesh.snapshot()
        for _ in range(int(rng.integers(1, 12))):
            v = tuple(int(c) for c in rng.integers(0, 1 << max_level, size=3))
            mesh.refine_to_voxel(v)
            if rng.random() < 0.5:
                mesh.classify([v])
            after = mesh.snapshot()
            fresh = mesh._build_nodes()
            for grown, built in [(after.node_keys, fresh.keys), (after.node_coords, fresh.coords),
                                 (after.leaf_nodes, fresh.leaf_nodes)]:
                assert grown.dtype == built.dtype and grown.shape == built.shape
                np.testing.assert_array_equal(grown, built)
            # the earlier table is unchanged, never written in place, and its
            # keys are exactly the current ones outside the nodes the refine added
            ids = mesh.node_ids(before.node_keys)
            np.testing.assert_array_equal(after.node_keys[ids], before.node_keys)
            np.testing.assert_array_equal(
                np.delete(np.arange(len(after.node_keys)), ids),
                np.flatnonzero(~np.isin(after.node_keys, before.node_keys)))
            before = after


def test_merge_matches_union1d_on_random_sorted_id_sets():
    """The merged ids are the union; each old id and each row sits at the
    position a search of the union finds for it."""
    rng = np.random.default_rng(20261020)
    for trial in range(300):
        top = int(rng.integers(1, 60))
        ids = np.unique(rng.integers(0, top, size=int(rng.integers(0, 30)))).astype(np.int64)
        rows = np.unique(rng.integers(0, top, size=int(rng.integers(0, 30)))).astype(np.int64)
        if trial % 10 == 0:
            rows = ids[rng.random(len(ids)) < 0.5]  # every row already an id
        merged, old_to_new, row_ids = merge(ids, rows)
        union = np.union1d(ids, rows)
        assert merged.dtype == ids.dtype
        np.testing.assert_array_equal(merged, union)
        np.testing.assert_array_equal(old_to_new, np.searchsorted(union, ids))
        np.testing.assert_array_equal(row_ids, np.searchsorted(union, rows))


def test_node_ids_map_older_tables_by_key_and_reject_other_meshes():
    mesh = OctreeMesh(max_level=4, base_level=1)
    first = mesh.snapshot().node_keys
    mesh.refine_to_voxel((0, 0, 0))  # several splits, no read in between
    mesh.refine_to_voxel((15, 15, 15))
    keys = mesh.snapshot().node_keys
    assert len(keys) > len(first)
    np.testing.assert_array_equal(keys[mesh.node_ids(first)], first)
    np.testing.assert_array_equal(mesh.node_ids(keys.copy()), np.arange(len(keys)))
    other = OctreeMesh(max_level=4, base_level=1)
    other.refine_to_voxel((7, 7, 7))
    assert mesh.node_ids(other.snapshot().node_keys) is None


def test_driver_print_builds_the_node_table_once(monkeypatch):
    """The whole-mesh sort runs for the initial state only; every refine after
    it grows the table. A mesh-info style replay builds it once, at the end."""
    from voxtherm.driver import SimConfig, run
    from voxtherm.schedule import VoxelGrid, gen_test_schedule

    build = OctreeMesh._build_nodes
    builds = []

    def counted(mesh):
        builds.append(mesh.version)
        return build(mesh)

    monkeypatch.setattr(OctreeMesh, "_build_nodes", counted)
    schedule = gen_test_schedule("sphere", VoxelGrid(dims=(8, 8, 8)), radius=3, center=(4, 4, 3))
    _, report = run(schedule, SimConfig(base_level=1))
    assert report.records[0].leaves < report.records[-1].leaves  # it refines
    assert builds == [0]
    builds.clear()
    mesh = OctreeMesh.from_grid(schedule.grid, base_level=1)
    for v in schedule.order:
        mesh.refine_to_voxel(v)
    mesh.classify(schedule.order)
    assert mesh.version > 0 and not builds
    assert len(mesh.node_coords) == len(build(mesh).keys) and builds == [mesh.version]


def test_node_keys_hold_the_deepest_lattice():
    """Unit voxels at both corners of a max_level-19 root: every key field is full."""
    top = (1 << 19) - 1
    mesh = OctreeMesh(max_level=19, base_level=0)
    mesh.refine_to_voxel((top, top, top))
    mesh.refine_to_voxel((0, 0, 0))
    mesh.classify([(top, top, top), (0, 0, 0)])
    coords, leaf_nodes, mask = oracle_node_table(mesh)
    assert coords.max() == 1 << 19
    assert np.array_equal(mesh.node_coords, coords)
    assert np.array_equal(mesh.leaf_nodes, leaf_nodes)
    assert np.array_equal(mesh.active_node_mask(), mask)
    keys = mesh.snapshot().node_keys
    assert np.all(keys[1:] > keys[:-1])


# --- snapshots, dumps, embedding -----------------------------------------------


def test_from_grid_levels():
    from voxtherm.schedule import VoxelGrid

    assert OctreeMesh.from_grid(VoxelGrid(dims=(4, 4, 2))).max_level == 2
    assert OctreeMesh.from_grid(VoxelGrid(dims=(16, 16, 16))).max_level == 4
    assert OctreeMesh.from_grid(VoxelGrid(dims=(32, 5, 1))).max_level == 5
    with pytest.raises(MeshError):
        OctreeMesh(max_level=2, base_level=3)


def test_from_grid_caps_the_base_level_at_a_derived_depth():
    from voxtherm.schedule import VoxelGrid

    for dims, depth in (((1, 1, 1), 0), ((2, 2, 1), 1), ((3, 1, 1), 2), ((8, 8, 8), 3)):
        mesh = OctreeMesh.from_grid(VoxelGrid(dims=dims))
        assert (mesh.max_level, mesh.base_level) == (depth, min(2, depth))


def test_dump_format_and_stability():
    mesh = OctreeMesh(max_level=2, base_level=0)
    mesh.refine_to_voxel((0, 0, 0))
    mesh.classify([(0, 0, 0)])
    lines = mesh.dump().strip().splitlines()
    assert len(lines) == 15
    fields = [ln.split() for ln in lines]
    assert all(len(f) == 6 for f in fields)
    keys = [int(f[0]) for f in fields]
    assert keys == sorted(keys)
    # first leaf is the active voxel at the origin
    assert fields[0] == ["2", "2", "0", "0", "0", "1"]
    assert mesh.dump() == mesh.dump()


def loop_dump(mesh):
    """The dump written one leaf at a time, as an independent reference."""
    lines = []
    for i in range(len(mesh.levels)):
        lvl = int(mesh.levels[i])
        key = (int(mesh.keys[i]) << 6) | lvl
        a = mesh.anchors[i]
        lines.append(f"{key} {lvl} {int(a[0])} {int(a[1])} {int(a[2])} {int(mesh.active[i])}")
    return "\n".join(lines) + "\n"


def test_dump_equals_a_per_leaf_loop_on_random_meshes():
    rng = np.random.default_rng(20261021)
    for _ in range(30):
        max_level = int(rng.integers(0, 6))
        mesh = OctreeMesh(max_level=max_level, base_level=int(rng.integers(0, max_level + 1)))
        for _ in range(int(rng.integers(0, 8))):
            v = tuple(int(c) for c in rng.integers(0, 1 << max_level, size=3))
            mesh.refine_to_voxel(v)
            if rng.random() < 0.6:
                mesh.classify([v])
        assert mesh.dump() == loop_dump(mesh)
    top = (1 << 19) - 1  # the widest keys: every Morton bit of a level-19 root set
    mesh = OctreeMesh(max_level=19, base_level=0)
    mesh.refine_to_voxel((top, top, top))
    mesh.classify([(top, top, top)])
    assert mesh.dump() == loop_dump(mesh)
    assert mesh.dump().splitlines()[-1] == f"{((8**19 - 1) << 6) | 19} 19 {top} {top} {top} 1"


def test_snapshot_is_stable_across_later_mutation():
    mesh = OctreeMesh(max_level=3, base_level=1)
    mesh.refine_to_voxel((0, 0, 0))
    snap = mesh.snapshot()
    n_before = len(snap.levels)
    mesh.refine_to_voxel((7, 7, 7))
    assert len(snap.levels) == n_before
    assert len(mesh.levels) > n_before
