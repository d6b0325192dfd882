"""Thermal FEM kernels: element integrals, assembly, PCG, transfer.

Reference values come from independent implementations kept in this file:
a 5-point Gauss quadrature over [0,1]^3 with its own shape functions and a
dense elimination + LU solve of the assembled system.
"""

import numpy as np
import pytest

from voxtherm import fem
from voxtherm.fem import (
    BoundarySpec,
    FemError,
    MaterialParams,
    SolverError,
    activate_voxel,
    assemble,
    element_matrices,
    initial_state,
    lump,
    nondimensionalize,
    solve,
    transfer_solution,
)
from voxtherm.octree import OctreeMesh

# corner c covers bits (x, y, z) with x fastest
CORNERS = [((c >> 0) & 1, (c >> 1) & 1, (c >> 2) & 1) for c in range(8)]


def oracle_element_matrices(h, mat):
    """Mass/conductivity by 5-point Gauss-Legendre on the unit reference cube."""
    pts, wts = np.polynomial.legendre.leggauss(5)
    t1 = 0.5 * (pts + 1.0)
    w1 = 0.5 * wts
    M = np.zeros((8, 8))
    K = np.zeros((8, 8))
    for i, ti in enumerate(t1):
        for j, tj in enumerate(t1):
            for k, tk in enumerate(t1):
                w = w1[i] * w1[j] * w1[k] * h**3
                t = (ti, tj, tk)
                N = np.array(
                    [
                        np.prod([t[d] if c[d] else 1.0 - t[d] for d in range(3)])
                        for c in CORNERS
                    ]
                )
                G = np.zeros((8, 3))
                for ci, c in enumerate(CORNERS):
                    for d in range(3):
                        g = (1.0 if c[d] else -1.0) / h
                        for e in range(3):
                            if e != d:
                                g *= t[e] if c[e] else 1.0 - t[e]
                        G[ci, d] = g
                M += w * np.outer(N, N)
                K += w * (G @ G.T)
    return mat.rho * mat.cp * M, mat.kappa * K


def oracle_dense_solve(system):
    """Eliminate Dirichlet rows densely, then LU-solve."""
    A = system.a.toarray()
    g = np.zeros(system.n)
    g[system.dirichlet_idx] = system.dirichlet_val
    free = np.setdiff1d(np.arange(system.n), system.dirichlet_idx)
    x = g.copy()
    x[free] = np.linalg.solve(A[np.ix_(free, free)], (system.b - A @ g)[free])
    return x


def node_at(mesh, coord):
    hits = np.flatnonzero((mesh.node_coords == np.asarray(coord)).all(axis=1))
    assert len(hits) == 1
    return int(hits[0])


def column_mesh(n=4, active_z=3):
    """All-unit 4^3 mesh with an active 1x1 column of height active_z."""
    mesh = OctreeMesh(max_level=2, base_level=2)
    mesh.classify([(0, 0, z) for z in range(active_z)])
    return mesh


# --- element matrices -------------------------------------------------------


@pytest.mark.parametrize("h", [1.0, 0.5, 2.0])
def test_element_matrices_match_quadrature_oracle(h):
    mat = MaterialParams(kappa=2.3, rho=1.7, cp=0.9)
    M, K = element_matrices(h, mat)
    Mo, Ko = oracle_element_matrices(h, mat)
    np.testing.assert_allclose(M, Mo, rtol=0, atol=1e-12)
    np.testing.assert_allclose(K, Ko, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(M, M.T)
    np.testing.assert_array_equal(K, K.T)


def test_unit_cube_frozen_entries():
    M, K = element_matrices(1.0, MaterialParams(kappa=1.0, rho=1.0, cp=1.0))
    # conductivity: 1/3 diagonal, 0 across edges, -1/12 across diagonals
    assert K[0, 0] == pytest.approx(1 / 3, abs=1e-14)
    assert K[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert K[0, 3] == pytest.approx(-1 / 12, abs=1e-14)
    assert K[0, 7] == pytest.approx(-1 / 12, abs=1e-14)
    np.testing.assert_allclose(K.sum(axis=1), 0.0, atol=1e-14)
    # mass: 8:4:2:1 pattern over 216
    assert M[0, 0] == pytest.approx(8 / 216, abs=1e-15)
    assert M[0, 1] == pytest.approx(4 / 216, abs=1e-15)
    assert M[0, 3] == pytest.approx(2 / 216, abs=1e-15)
    assert M[0, 7] == pytest.approx(1 / 216, abs=1e-15)
    assert M.sum() == pytest.approx(1.0, abs=1e-14)


def test_element_matrix_scaling_with_edge_and_material():
    mat1 = MaterialParams(kappa=1.0, rho=1.0, cp=1.0)
    mat2 = MaterialParams(kappa=3.0, rho=2.0, cp=5.0)
    M1, K1 = element_matrices(1.0, mat1)
    M2, K2 = element_matrices(0.25, mat2)
    np.testing.assert_allclose(M2, 2.0 * 5.0 * 0.25**3 * M1, rtol=1e-13)
    np.testing.assert_allclose(K2, 3.0 * 0.25 * K1, rtol=1e-13)


def test_lump_preserves_total_mass():
    M, _ = element_matrices(0.5, MaterialParams(kappa=1.0, rho=2.0, cp=3.0))
    L = lump(M)
    assert L.sum() == pytest.approx(M.sum(), rel=1e-15)
    np.testing.assert_array_equal(L, np.diag(np.diag(L)))
    assert np.all(np.diag(L) > 0)


def test_element_matrices_reject_bad_edge():
    with pytest.raises(FemError):
        element_matrices(0.0, MaterialParams())


# --- material and scaling ----------------------------------------------------


def test_material_params_alpha_and_validation():
    assert MaterialParams(kappa=2.0, rho=4.0, cp=0.5).alpha == pytest.approx(1.0)
    with pytest.raises(FemError):
        MaterialParams(kappa=-1.0)
    with pytest.raises(FemError):
        MaterialParams(rho=0.0)
    with pytest.raises(FemError, match="kappa must be finite"):
        MaterialParams(kappa=float("nan"))
    with pytest.raises(FemError, match="latent_source must be finite"):
        MaterialParams(latent_source=float("inf"))
    with pytest.raises(FemError, match="t_bed must be finite"):
        BoundarySpec(t_bed=float("nan"))


def test_nondimensionalize_unit_inputs():
    mat, scale = nondimensionalize(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert mat.kappa == pytest.approx(1.0)
    assert mat.alpha == pytest.approx(1.0)
    assert scale.length == 1.0


def test_nondimensionalize_formula_and_round_trip():
    mat, scale = nondimensionalize(
        kappa=50.0, rho=2700.0, cp=900.0, length=0.1, time=10.0,
        delta_t=180.0, t_ref=20.0,
    )
    assert mat.kappa == pytest.approx(50.0 * 10.0 / (2700.0 * 900.0 * 0.01))
    rng = np.random.default_rng(3)
    t = rng.uniform(-50, 400, size=17)
    np.testing.assert_allclose(
        scale.temperature_from_dimensionless(scale.temperature_to_dimensionless(t)),
        t,
        rtol=1e-14,
    )
    assert scale.length_from_dimensionless(scale.length_to_dimensionless(0.37)) == (
        pytest.approx(0.37, rel=1e-15)
    )
    assert scale.time_to_dimensionless(25.0) == pytest.approx(2.5)


def test_nondimensionalize_rejects_nonpositive():
    with pytest.raises(FemError):
        nondimensionalize(1.0, 1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(FemError):
        nondimensionalize(1.0, 1.0, 1.0, 1.0, 1.0, -5.0)


# --- assembly and solve --------------------------------------------------------


def test_assemble_returns_none_without_active_elements():
    mesh = OctreeMesh(max_level=2, base_level=2)
    state = initial_state(mesh, BoundarySpec())
    assert assemble(mesh, state, MaterialParams(), BoundarySpec(), 1.0) is None


def test_assemble_rejects_bad_dt_and_stale_state():
    mesh = column_mesh()
    state = initial_state(mesh, BoundarySpec())
    with pytest.raises(FemError):
        assemble(mesh, state, MaterialParams(), BoundarySpec(), 0.0)
    with pytest.raises(FemError, match="transfer"):
        assemble(
            mesh, fem.ThermalState(mesh=mesh, values=np.zeros(3)),
            MaterialParams(), BoundarySpec(), 1.0,
        )


def test_column_solution_matches_dense_oracle():
    mesh = column_mesh()
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    for z in range(3):
        activate_voxel(mesh, state, (0, 0, z), bcs)
    mat = MaterialParams(kappa=0.05)
    system = assemble(mesh, state, mat, bcs, dt=0.5)
    assert system is not None
    assert abs(system.a - system.a.T).max() == 0.0
    x, iters = solve(system)
    assert iters > 0
    np.testing.assert_allclose(x, oracle_dense_solve(system), rtol=0, atol=1e-11)
    # prescriptions are carried exactly
    np.testing.assert_array_equal(x[system.dirichlet_idx], system.dirichlet_val)


def test_warm_start_with_exact_solution_converges_immediately():
    mesh = column_mesh()
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    for z in range(3):
        activate_voxel(mesh, state, (0, 0, z), bcs)
    system = assemble(mesh, state, MaterialParams(kappa=0.05), bcs, dt=0.5)
    x, _ = solve(system)
    _, iters = solve(system, x0=x)
    assert iters == 0


def test_repeat_assembly_is_deterministic():
    def run():
        mesh = column_mesh()
        bcs = BoundarySpec()
        state = initial_state(mesh, bcs)
        for z in range(3):
            activate_voxel(mesh, state, (0, 0, z), bcs)
        system = assemble(mesh, state, MaterialParams(kappa=0.05), bcs, dt=0.5)
        x, _ = solve(system, x0=state.values)
        return x

    np.testing.assert_array_equal(run(), run())


def test_with_rhs_matches_fresh_assembly():
    mesh = column_mesh()
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    for z in range(3):
        activate_voxel(mesh, state, (0, 0, z), bcs)
    mat = MaterialParams(kappa=0.05)
    system = assemble(mesh, state, mat, bcs, dt=0.5)
    state.values, _ = solve(system, x0=state.values)
    fresh = assemble(mesh, state, mat, bcs, dt=0.5)
    refreshed = system.with_rhs(state.values)
    np.testing.assert_array_equal(refreshed.b, fresh.b)
    x1, _ = solve(fresh, x0=state.values)
    x2, _ = solve(refreshed, x0=state.values)
    np.testing.assert_array_equal(x1, x2)


def test_zero_rhs_solves_to_zero_in_zero_iterations():
    mesh = column_mesh()
    bcs = BoundarySpec(t_bed=0.0, t_deposit=0.0, t_ambient=0.0)
    state = initial_state(mesh, bcs)
    for z in range(3):
        activate_voxel(mesh, state, (0, 0, z), bcs)
    system = assemble(mesh, state, MaterialParams(), bcs, dt=1.0)
    x, iters = solve(system)
    assert iters == 0
    np.testing.assert_array_equal(x, np.zeros(system.n))


def test_solver_failure_raises_with_residual_history():
    mesh = column_mesh()
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    for z in range(3):
        activate_voxel(mesh, state, (0, 0, z), bcs)
    system = assemble(mesh, state, MaterialParams(kappa=0.05), bcs, dt=0.5)
    with pytest.raises(SolverError) as err:
        solve(system, max_iter=1)
    assert len(err.value.residuals) >= 1


def test_all_dirichlet_element_reproduces_prescriptions():
    mesh = OctreeMesh(max_level=2, base_level=2)
    bcs = BoundarySpec(t_bed=1.0, t_ambient=0.0)
    state = initial_state(mesh, bcs)
    mesh.classify([(0, 0, 0)])
    activate_voxel(mesh, state, (0, 0, 0), bcs)
    top = {
        node_at(mesh, (i, j, 1)): 1.7 for i in (0, 1) for j in (0, 1)
    }
    system = assemble(mesh, state, MaterialParams(), bcs, dt=1.0, extra_dirichlet=top)
    x, iters = solve(system)
    assert iters == 0  # no free unknowns remain
    for nid, val in top.items():
        assert x[nid] == val
    assert x[node_at(mesh, (0, 0, 0))] == 1.0
    assert x[node_at(mesh, (4, 4, 4))] == 0.0


def test_latent_source_adds_equal_nodal_loads():
    mesh = OctreeMesh(max_level=2, base_level=2)
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    leaf = mesh.find_leaf((1, 1, 1))
    mesh.classify([(1, 1, 1)])
    activate_voxel(mesh, state, (1, 1, 1), bcs)
    mat = MaterialParams(latent_source=0.8)
    plain = assemble(mesh, state, MaterialParams(), bcs, dt=0.5)
    loaded = assemble(mesh, state, mat, bcs, dt=0.5, latent_leaves=(leaf,))
    extra = np.zeros(plain.n)
    extra[mesh.leaf_nodes[leaf]] = 0.5 * 0.8 / 8.0
    np.testing.assert_allclose(loaded.b, plain.b + extra, atol=1e-15)


# --- physics sanity -------------------------------------------------------------


def test_single_element_relaxes_to_bed_monotonically():
    mesh = OctreeMesh(max_level=2, base_level=2)
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    mesh.classify([(0, 0, 0)])
    activate_voxel(mesh, state, (0, 0, 0), bcs)
    mat = MaterialParams(kappa=0.5)
    top = node_at(mesh, (0, 0, 1))
    history = [state.values[top]]
    system = assemble(mesh, state, mat, bcs, dt=5.0)
    for _ in range(60):
        state.values, _ = solve(system, x0=state.values)
        system = system.with_rhs(state.values)
        history.append(state.values[top])
        active_vals = state.active_values()
        assert active_vals.min() >= 1.0 - 1e-12
        assert active_vals.max() <= 2.0 + 1e-12
    assert all(b <= a + 1e-14 for a, b in zip(history, history[1:]))
    assert history[-1] == pytest.approx(1.0, abs=1e-8)


def test_steady_column_has_linear_profile():
    mesh = column_mesh(active_z=4)
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    for z in range(4):
        activate_voxel(mesh, state, (0, 0, z), bcs)
    top = {node_at(mesh, (i, j, 4)): 2.0 for i in (0, 1) for j in (0, 1)}
    system = assemble(
        mesh, state, MaterialParams(kappa=1.0), bcs, dt=1e12, extra_dirichlet=top
    )
    x, _ = solve(system)
    coords = mesh.node_coords
    for nid in np.flatnonzero(mesh.active_node_mask()):
        expected = 1.0 + 0.25 * coords[nid, 2]
        assert x[nid] == pytest.approx(expected, abs=1e-8)


def test_airborne_block_conserves_thermal_energy():
    mesh = OctreeMesh(max_level=3, base_level=3)
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    block = [(x, y, z) for x in (1, 2) for y in (1, 2) for z in (1, 2)]
    mesh.classify(block)
    rng = np.random.default_rng(11)
    active = np.flatnonzero(mesh.active_node_mask())
    state.values[active] = rng.uniform(0.5, 1.5, size=len(active))
    system = assemble(mesh, state, MaterialParams(kappa=0.3), bcs, dt=0.7)
    e0 = float(np.sum(system.mass @ state.values))
    for _ in range(50):
        state.values, _ = solve(system, x0=state.values)
        system = system.with_rhs(state.values)
        e = float(np.sum(system.mass @ state.values))
        assert e == pytest.approx(e0, abs=1e-9)


def test_assemble_rejects_coarse_active_leaf():
    mesh = OctreeMesh(max_level=2, base_level=1)
    mesh.refine_to_voxel((0, 0, 0))
    mesh.classify([(0, 0, 0)])
    coarse = mesh.find_leaf((2, 0, 0))
    assert mesh.levels[coarse] == 1
    mesh.active[coarse] = True
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    with pytest.raises(FemError, match="coarser than the voxel level"):
        assemble(mesh, state, MaterialParams(), bcs, dt=1.0)


# --- activation -----------------------------------------------------------------


def test_activate_voxel_sets_deposit_temperature():
    mesh = OctreeMesh(max_level=2, base_level=2)
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    mesh.classify([(2, 3, 1)])
    activate_voxel(mesh, state, (2, 3, 1), bcs)
    leaf = mesh.find_leaf((2, 3, 1))
    np.testing.assert_array_equal(state.values[mesh.leaf_nodes[leaf]], 2.0)
    assert (2, 3, 1) in state.deposited


def test_activate_voxel_rejects_duplicates_and_unclassified():
    mesh = OctreeMesh(max_level=2, base_level=2)
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    with pytest.raises(FemError, match="not classified"):
        activate_voxel(mesh, state, (0, 0, 0), bcs)
    mesh.classify([(0, 0, 0)])
    activate_voxel(mesh, state, (0, 0, 0), bcs)
    with pytest.raises(FemError, match="already"):
        activate_voxel(mesh, state, (0, 0, 0), bcs)


# --- transfer -------------------------------------------------------------------


def coord_set(coords):
    return {tuple(c) for c in coords.tolist()}


def test_refinement_activates_no_new_node_but_the_voxel_corners():
    """The fact transfer rests on: new nodes are padding or the new voxel's corners."""
    rng = np.random.default_rng(20260814)
    for _ in range(40):
        max_level = int(rng.integers(3, 5))
        mesh = OctreeMesh(max_level=max_level, base_level=int(rng.integers(0, 4)))
        for _ in range(int(rng.integers(4, 13))):
            v = tuple(int(c) for c in rng.integers(0, 1 << max_level, size=3))
            old = coord_set(mesh.node_coords)
            mesh.refine_to_voxel(v)
            mesh.classify([v])
            coords = mesh.node_coords
            corners = coord_set(coords[mesh.leaf_nodes[mesh.find_leaf(v)]])
            new_active = coord_set(coords[mesh.active_node_mask()]) - old
            assert new_active <= corners, (v, new_active - corners)


def oracle_transfer(snapshot, values, pt, t_ambient):
    """Value at pt from every old leaf whose closed box contains pt.

    A leaf that has pt as a corner gives its nodal value there; a leaf that
    holds pt elsewhere (pt is a node the split added) gives ambient.
    """
    root = 1 << snapshot.max_level
    out = []
    for li in range(len(snapshot.levels)):
        a = snapshot.anchors[li]
        s = root >> snapshot.levels[li]
        if all(a[d] <= pt[d] <= a[d] + s for d in range(3)):
            corners = snapshot.node_coords[snapshot.leaf_nodes[li]]
            hit = np.flatnonzero((corners == np.asarray(pt)).all(axis=1))
            out.append(values[snapshot.leaf_nodes[li][hit[0]]] if len(hit) else t_ambient)
    return out


def test_transfer_matches_containment_oracle_on_random_field():
    mesh = OctreeMesh(max_level=2, base_level=1)
    rng = np.random.default_rng(5)
    bcs = BoundarySpec(t_ambient=-0.5)
    state = initial_state(mesh, bcs)
    state.values = rng.random(len(mesh.node_coords))
    old = mesh.snapshot()
    old_values = state.values.copy()
    assert mesh.refine_to_voxel((0, 0, 0))
    new_state = transfer_solution(old, state, mesh, bcs)
    for nid, coord in enumerate(mesh.node_coords.tolist()):
        candidates = oracle_transfer(old, old_values, coord, bcs.t_ambient)
        assert candidates, coord
        # conforming old mesh: every containing leaf agrees
        assert len(set(candidates)) == 1, (coord, candidates)
        assert new_state.values[nid] == candidates[0]


def test_transfer_after_successive_refinements():
    mesh = OctreeMesh(max_level=3, base_level=1)
    rng = np.random.default_rng(9)
    bcs = BoundarySpec(t_ambient=-0.25)
    state = initial_state(mesh, bcs)
    state.values = rng.random(len(mesh.node_coords))
    for voxel in [(0, 0, 0), (7, 7, 7), (3, 4, 2)]:
        old = mesh.snapshot()
        old_values = {tuple(c): v for c, v in zip(old.node_coords.tolist(), state.values)}
        assert mesh.refine_to_voxel(voxel)
        new_state = transfer_solution(old, state, mesh, bcs)
        assert len(new_state.values) == len(mesh.node_coords) > len(old.node_coords)
        for coord, value in zip(mesh.node_coords.tolist(), new_state.values):
            assert value == old_values.get(tuple(coord), bcs.t_ambient)
        assert new_state.time == state.time
        state = new_state


def test_transfer_rejects_mismatched_state():
    mesh = OctreeMesh(max_level=2, base_level=1)
    old = mesh.snapshot()
    bad = fem.ThermalState(mesh=mesh, values=np.zeros(2))
    with pytest.raises(FemError):
        transfer_solution(old, bad, mesh, BoundarySpec())
