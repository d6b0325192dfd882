"""Thermal FEM kernels: element integrals, assembly, PCG, transfer.

Reference values come from independent implementations kept in this file:
a 5-point Gauss quadrature over [0,1]^3 with its own shape functions and a
dense elimination + LU solve of the assembled system.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

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
from voxtherm.octree import MeshError, OctreeMesh

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
    g[system.dirichlet_idx] = system.prescribed[system.dirichlet_idx]
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
    with pytest.raises(FemError, match=r"^kappa must be a number, got '1'$"):
        MaterialParams(kappa="1")
    with pytest.raises(FemError, match=r"^rho must be a number, got True$"):
        MaterialParams(rho=True)
    with pytest.raises(FemError, match=r"^t_bed must be a number, got '1'$"):
        BoundarySpec(t_bed="1")


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
            mesh, fem.ThermalState(mesh=mesh, values=np.zeros(3),
                                   node_keys=mesh.snapshot().node_keys[:3]),
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
    np.testing.assert_array_equal(x[system.dirichlet_idx], system.prescribed[system.dirichlet_idx])


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


@pytest.mark.parametrize("lumped", [True, False])
def test_rhs_equals_the_mass_matvec_signed_zeros_included(lumped):
    """``b`` is ``mass @ T`` bit for bit; a lumped row's explicit zeros turn a
    -0.0 product into +0.0."""
    mesh = column_mesh()
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    system = assemble(mesh, state, MaterialParams(), bcs, dt=0.5, lumped_mass=lumped)
    values = np.random.default_rng(5).uniform(-1.0, 1.0, size=system.n)
    values[system.nodes[::2]] = -0.0
    b = system.with_rhs(values).b
    assert b.tobytes() == (system.mass @ values).tobytes()
    if lumped:
        assert not np.signbit(b[system.nodes[::2]]).any()


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


def test_solve_rejects_x0_of_the_wrong_length():
    mesh = column_mesh()
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    for z in range(3):
        activate_voxel(mesh, state, (0, 0, z), bcs)
    system = assemble(mesh, state, MaterialParams(kappa=0.05), bcs, dt=0.5)
    n = system.n
    for size in (n + 50, 10):
        with pytest.raises(FemError, match=f"x0 has {size} values for a system on {n} nodes"):
            solve(system, x0=np.zeros(size))


def test_solve_and_assemble_check_their_scalar_arguments():
    """A bad dt, tol or max_iter fails at the entry point as a FemError that
    names it, not inside PCG."""
    mesh = column_mesh()
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    for z in range(3):
        activate_voxel(mesh, state, (0, 0, z), bcs)
    for dt in (math.nan, math.inf, -math.inf, "1", True):
        with pytest.raises(FemError, match=r"^dt must be a finite number, got "):
            assemble(mesh, state, MaterialParams(), bcs, dt)
    system = assemble(mesh, state, MaterialParams(kappa=0.05), bcs, dt=0.5)
    for tol in (math.nan, -1.0, 0.0, math.inf, "1e-3", None, True):
        with pytest.raises(FemError, match=r"^tol must be a positive finite number, got "):
            solve(system, tol=tol)
    for max_iter in (-1, 2.5, 2.0, True, "3"):
        with pytest.raises(FemError, match=r"^max_iter must be a non-negative integer, got "):
            solve(system, max_iter=max_iter)
    x, _ = solve(system, tol=np.float64(1e-10), max_iter=np.int64(500))
    np.testing.assert_array_equal(x, solve(system, tol=1e-10)[0])


def test_assemble_checks_latent_leaves_and_extra_dirichlet_types():
    """A fractional or bool leaf or node id would be truncated to another one,
    and a text value parsed as a temperature; each fails as a FemError that
    names its argument."""
    mesh = column_mesh()
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    for z in range(3):
        leaf = activate_voxel(mesh, state, (0, 0, z), bcs)
    nid = node_at(mesh, (0, 0, 3))
    mat = MaterialParams(latent_source=1.0)
    for bad in (leaf + 0.5, float(leaf), True, "0", None):
        with pytest.raises(FemError, match=r"^latent_leaves must hold leaf ids, got "):
            assemble(mesh, state, mat, bcs, dt=1.0, latent_leaves=(bad,))
    for key in (nid + 0.7, float(nid), True, np.bool_(True), str(nid)):
        with pytest.raises(FemError, match=r"^extra_dirichlet keys must be node ids, got "):
            assemble(mesh, state, mat, bcs, dt=1.0, extra_dirichlet={key: 1.0})
    for value in ("1.5", None, True):
        with pytest.raises(FemError, match=rf"^extra_dirichlet value for node {nid} must be "
                                           r"a number, got "):
            assemble(mesh, state, mat, bcs, dt=1.0, extra_dirichlet={nid: value})
    system = assemble(mesh, state, mat, bcs, dt=1.0, latent_leaves=(leaf,),
                      extra_dirichlet={nid: 1.5})
    same = assemble(mesh, state, mat, bcs, dt=1.0, latent_leaves=(np.int64(leaf),),
                    extra_dirichlet={np.int32(nid): np.float32(1.5)})
    np.testing.assert_array_equal(same.b, system.b)
    np.testing.assert_array_equal(same.prescribed, system.prescribed)


def test_non_finite_residual_stops_pcg_at_once():
    """A NaN in x0 at an unknown fails at the first residual, with its history;
    one at a pinned node is never read."""
    mesh = column_mesh()
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    for z in range(3):
        activate_voxel(mesh, state, (0, 0, z), bcs)
    system = assemble(mesh, state, MaterialParams(kappa=0.05), bcs, dt=0.5)
    _, iters = solve(system, x0=state.values)
    x0 = state.values.copy()
    x0[system.dirichlet_idx[0]] = math.nan
    assert solve(system, x0=x0)[1] == iters
    x0[system.free[0]] = math.nan
    with pytest.raises(SolverError, match="not finite at iteration 0") as err:
        solve(system, x0=x0)
    assert len(err.value.residuals) == 1 and math.isnan(err.value.residuals[0])


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


def test_assemble_rejects_bad_extra_dirichlet():
    mesh = column_mesh()
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    m = len(mesh.node_coords)
    nid = node_at(mesh, (0, 0, 3))
    for extra, match in [
        ({-1: 2.0}, "node -1 outside"),
        ({m: 2.0}, f"node {m} outside"),
        ({nid: math.nan}, f"node {nid} must be finite"),
        ({nid: math.inf}, f"node {nid} must be finite"),
    ]:
        with pytest.raises(FemError, match=match):
            assemble(mesh, state, MaterialParams(), bcs, dt=1.0, extra_dirichlet=extra)


def test_assemble_rejects_latent_leaf_out_of_range():
    """-1 would wrap to the last leaf, which is active here and would take the load."""
    mesh = column_mesh()
    mesh.classify([(3, 3, 3)])
    assert mesh.active[-1]
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    n = len(mesh)
    for leaf in (-1, n):
        with pytest.raises(FemError, match=rf"latent leaf {leaf} outside \[0, {n}\)"):
            assemble(mesh, state, MaterialParams(latent_source=1.0), bcs, dt=1.0,
                     latent_leaves=(leaf,))


def test_assemble_rejects_inactive_latent_leaf():
    mesh = column_mesh()
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    idle = mesh.find_leaf((3, 3, 3))
    with pytest.raises(FemError, match=f"latent leaf {idle} is not active"):
        assemble(
            mesh, state, MaterialParams(latent_source=1.0), bcs, dt=1.0, latent_leaves=(idle,)
        )


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


def test_with_rhs_drops_the_latent_load():
    """Latent heat enters only the first step's b; refreshed steps carry none."""
    mesh = OctreeMesh(max_level=2, base_level=2)
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    leaf = mesh.find_leaf((1, 1, 1))
    mesh.classify([(1, 1, 1)])
    activate_voxel(mesh, state, (1, 1, 1), bcs)
    plain = assemble(mesh, state, MaterialParams(), bcs, dt=0.5)
    loaded = assemble(
        mesh, state, MaterialParams(latent_source=0.8), bcs, dt=0.5, latent_leaves=(leaf,)
    )
    assert loaded.b.tobytes() != plain.b.tobytes()
    values = np.random.default_rng(4).uniform(1.0, 2.0, size=plain.n)
    assert loaded.with_rhs(values).b.tobytes() == plain.with_rhs(values).b.tobytes()


# --- the carried operator ---------------------------------------------------------


def coo_operator(conn, n, mat, dt, lumped):
    """M and M + dt K of the voxel elements ``conn`` on ``n`` nodes by one
    coo -> csr pass, with the element matrices from ``element_matrices``."""
    rows = np.repeat(conn[:, :, None], 8, axis=2).ravel()
    cols = np.repeat(conn[:, None, :], 8, axis=1).ravel()
    Me, Ke = element_matrices(1.0, mat)
    if lumped:
        Me = lump(Me)
    M = sp.coo_matrix((np.tile(Me.ravel(), len(conn)), (rows, cols)), shape=(n, n)).tocsr()
    K = sp.coo_matrix((np.tile(Ke.ravel(), len(conn)), (rows, cols)), shape=(n, n)).tocsr()
    return M, (M + dt * K).tocsr()


def whole_table_operator(mesh, mat, dt, lumped):
    """``coo_operator`` over every active element, on the full node table: the
    assembly before the operator was held on active nodes."""
    conn = mesh.leaf_nodes[np.flatnonzero(mesh.active)]
    return coo_operator(conn, len(mesh.node_coords), mat, dt, lumped)


def assert_same_bits(x, y):
    np.testing.assert_array_equal(x.indptr, y.indptr)
    np.testing.assert_array_equal(x.indices, y.indices)
    assert x.data.tobytes() == y.data.tobytes()


def reduced_oracle(mesh, state, mat, bcs, dt, lumped, leaf, extra):
    """The solved system by slicing ``whole_table_operator``: the free block,
    the Dirichlet lift, the Jacobi inverse diagonal, the first step's ``b``
    and the free node ids."""
    M, A = whole_table_operator(mesh, mat, dt, lumped)
    coords = mesh.node_coords
    active = mesh.active_node_mask()
    bed = active & (coords[:, 2] == 0)
    pinned = ~active | bed
    prescribed = np.where(bed, bcs.t_bed, bcs.t_ambient)
    for nid, value in (extra or {}).items():
        pinned[nid] = True
        prescribed[nid] = value
    free = np.flatnonzero(~pinned)
    a_free = A[free][:, free]
    lift = (A @ np.where(pinned, prescribed, 0.0))[free]
    F = np.zeros(len(coords))
    F[mesh.leaf_nodes[leaf]] += mat.latent_source / 8.0
    b = M @ state.values + dt * F
    return a_free, lift, 1.0 / a_free.diagonal(), b, free


def random_pins(rng, mesh, bcs, leaf):
    """Extra pins on an active bed node (at a value other than ``t_bed``), an
    inactive node and an active node above the bed other than the deposit's."""
    coords = mesh.node_coords
    active = mesh.active_node_mask()
    above = active & (coords[:, 2] > 0)
    above[mesh.leaf_nodes[leaf]] = False
    pins = {int(rng.choice(np.flatnonzero(~active))): 0.4}
    for pool, value in [(active & (coords[:, 2] == 0), bcs.t_bed + 0.3), (above, 1.7)]:
        if pool.any():
            pins[int(rng.choice(np.flatnonzero(pool)))] = value
    return pins


@pytest.mark.parametrize("mode", ["initial", "held", "pinned"])
@pytest.mark.parametrize("lumped", [True, False])
def test_carried_operator_matches_whole_mesh_assembly(mode, lumped):
    """After every deposit of random prints, the system carried from the last
    deposit (only the new voxel's rows written) equals a fresh whole-mesh
    assembly bit for bit: its free block, lift, inverse diagonal and first
    right-hand side are slices of the whole-table operator, its ``a`` and
    ``mass`` views equal that operator, and so does its solve. ``held`` pins
    the deposit's corners; ``pinned`` pins a bed node off ``t_bed``, an
    inactive node and an active node above the bed."""
    rng = np.random.default_rng(20261018 + lumped + 2 * ["initial", "held", "pinned"].index(mode))
    bcs = BoundarySpec()
    mat = MaterialParams(kappa=0.2, latent_source=0.3)
    dt = 0.7
    deposits = 0
    for _ in range(6):
        max_level = int(rng.integers(3, 5))
        mesh = OctreeMesh(max_level=max_level, base_level=int(rng.integers(0, 3)))
        state = initial_state(mesh, bcs)
        # a random part in a small box, so voxels share faces, edges and corners
        lo = rng.integers(0, (1 << max_level) - 3, size=3)
        lo[2] = int(rng.integers(0, 2))  # on the bed, or one layer above it
        box = [tuple(int(c) for c in lo + d) for d in np.ndindex(4, 3, 3)]
        order = [box[i] for i in rng.permutation(len(box))[: int(rng.integers(6, 20))]]
        carried = None
        for voxel in order:
            if mesh.refine_to_voxel(voxel):
                state = transfer_solution(state, mesh, bcs)
            leaf = activate_voxel(mesh, state, voxel, bcs)
            extra = None
            if mode == "held":
                extra = {int(nid): bcs.t_deposit for nid in mesh.leaf_nodes[leaf]}
            elif mode == "pinned":
                extra = random_pins(rng, mesh, bcs, leaf)
            kwargs = dict(lumped_mass=lumped, latent_leaves=(leaf,), extra_dirichlet=extra)
            fresh = assemble(mesh, state, mat, bcs, dt, **kwargs)
            carried = assemble(mesh, state, mat, bcs, dt, previous=carried, **kwargs)
            a_free, lift, inv_diag, b, free = reduced_oracle(
                mesh, state, mat, bcs, dt, lumped, leaf, extra)
            for system in (carried, fresh):
                assert_same_bits(system.a_free, a_free)
                assert system.lift.tobytes() == lift.tobytes()
                assert system.inv_diag.tobytes() == inv_diag.tobytes()
                assert system.b.tobytes() == b.tobytes()
                np.testing.assert_array_equal(system.free, free)
            assert_same_bits(carried.a, fresh.a)
            assert_same_bits(carried.mass, fresh.mass)
            M, A = whole_table_operator(mesh, mat, dt, lumped)
            assert_same_bits(fresh.a, A)
            assert_same_bits(fresh.mass, M)
            x1, it1 = solve(fresh, x0=state.values)
            x2, it2 = solve(carried, x0=state.values)
            assert x1.tobytes() == x2.tobytes() and it1 == it2
            state.values = x2
            deposits += 1
    assert deposits > 50


def patch_rows(mesh, rows, mat, dt, lumped):
    """Rows ``rows`` of M and A by the 27-element patch rebuild, kept as the
    reference: ``coo_operator`` on every active element touching them, in
    leaf order, numbered locally in node order. Returns per row the (columns,
    values) of M and of A, columns as node ids."""
    act = np.flatnonzero(mesh.active)
    touched = np.zeros(len(mesh.node_coords), dtype=bool)
    touched[rows] = True
    near = act[touched[mesh.leaf_nodes[act]].any(axis=1)]
    local, conn = np.unique(mesh.leaf_nodes[near], return_inverse=True)
    M, A = coo_operator(conn.reshape(-1, 8), len(local), mat, dt, lumped)
    out = []
    for k in np.searchsorted(local, rows):
        m, a = slice(M.indptr[k], M.indptr[k + 1]), slice(A.indptr[k], A.indptr[k + 1])
        out.append((local[M.indices[m]], M.data[m], local[A.indices[a]], A.data[a]))
    return out


def assert_table_rows(mesh, rows, mat, dt, lumped):
    """The table rows ``rows`` gather on ``mesh`` equal ``patch_rows``, bit for
    bit, and so do their diagonals; returns their table indices."""
    table = fem._stencil_table(mat, lumped, dt)
    conn = mesh.leaf_nodes[np.flatnonzero(mesh.active)]
    idx, blocks = fem._lookup(table, conn, rows, mesh.node_coords)
    M, A = fem._gather(table.m, idx, blocks), fem._gather(table.a, idx, blocks)
    for k, (m_cols, m_vals, a_cols, a_vals) in enumerate(
            patch_rows(mesh, rows, mat, dt, lumped)):
        m_row, a_row = slice(*M.ptr[k:k + 2]), slice(*A.ptr[k:k + 2])
        np.testing.assert_array_equal(M.cols[m_row], m_cols)
        np.testing.assert_array_equal(A.cols[a_row], a_cols)
        assert M.vals[m_row].tobytes() == m_vals.tobytes()
        assert A.vals[a_row].tobytes() == a_vals.tobytes()
        assert table.m_diag[idx[k]] == m_vals[m_cols == rows[k]][0]
        assert table.a_diag[idx[k]] == a_vals[a_cols == rows[k]][0]
    return idx


@pytest.mark.parametrize("lumped", [True, False])
def test_table_rows_match_the_patch_rebuild(lumped):
    """On random prints, every deposit's corner rows gathered from the stencil
    table equal the rows the 27-element patch builds, bit for bit."""
    rng = np.random.default_rng(20261019 + lumped)
    bcs = BoundarySpec()
    mat = MaterialParams(kappa=0.3)
    dt = 0.9
    for _ in range(5):
        max_level = int(rng.integers(3, 5))
        mesh = OctreeMesh(max_level=max_level, base_level=int(rng.integers(0, 3)))
        state = initial_state(mesh, bcs)
        lo = rng.integers(0, (1 << max_level) - 3, size=3)
        lo[2] = int(rng.integers(0, 2))
        box = [tuple(int(c) for c in lo + d) for d in np.ndindex(4, 4, 3)]
        order = [box[i] for i in rng.permutation(len(box))[: int(rng.integers(10, 30))]]
        system = None
        for voxel in order:
            if mesh.refine_to_voxel(voxel):
                state = transfer_solution(state, mesh, bcs)
            leaf = activate_voxel(mesh, state, voxel, bcs)
            system = assemble(mesh, state, mat, bcs, dt, lumped_mass=lumped, previous=system)
            assert_table_rows(mesh, np.unique(mesh.leaf_nodes[leaf]), mat, dt, lumped)


@pytest.mark.parametrize("lumped", [True, False])
def test_stencil_table_holds_every_voxel_set_of_each_axis_priority(lumped):
    """Around an interior node whose coordinates have 0, 1 and 2 trailing zero
    bits, in each of the 6 axis orders, every one of the 255 sets of active
    voxels gathers rows that equal the patch rebuild bit for bit. The 6 nodes
    order their 8 voxels 6 ways, so their full sets take 6 distinct rows."""
    mat, dt = MaterialParams(kappa=0.2), 0.7
    full_rows = set()
    for coords in itertools.permutations((1, 2, 4)):
        mesh = OctreeMesh(max_level=3, base_level=0)
        voxels = [tuple(int(c) for c in np.subtract(coords, o)) for o in fem.CHILD_OFFSETS]
        for voxel in voxels:
            mesh.refine_to_voxel(voxel)
        leaves = [mesh.find_leaf(v) for v in voxels]
        (node,) = np.flatnonzero((mesh.node_coords == coords).all(axis=1))
        for mask in range(1, 256):
            mesh.active[:] = False
            mesh.active[[leaf for j, leaf in enumerate(leaves) if mask >> j & 1]] = True
            (row,) = assert_table_rows(mesh, np.array([node]), mat, dt, lumped)
        full_rows.add(int(row))
    assert len(full_rows) == 6


def test_lookup_does_not_depend_on_the_element_order():
    """A node's table row and block come from its lattice point and its
    active voxels, so elements out of Morton order gather the same rows."""
    mesh = column_mesh()
    conn = mesh.leaf_nodes[np.flatnonzero(mesh.active)]
    table = fem._stencil_table(MaterialParams(), True, 1.0)
    rows = np.unique(conn)
    gathered = []
    for order in (conn, conn[::-1]):
        idx, blocks = fem._lookup(table, order, rows, mesh.node_coords)
        gathered.append(fem._gather(table.a, idx, blocks))
    for field in ("ptr", "cols", "vals"):
        np.testing.assert_array_equal(getattr(gathered[1], field), getattr(gathered[0], field))


def test_assemble_rejects_a_previous_system_it_cannot_carry():
    mesh = column_mesh()
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    mat = MaterialParams(kappa=0.05)
    system = assemble(mesh, state, mat, bcs, dt=0.5)
    for other, dt, lumped in [(mat, 0.25, True), (MaterialParams(kappa=0.1), 0.5, True),
                              (mat, 0.5, False)]:
        with pytest.raises(FemError, match="another material, mass or dt"):
            assemble(mesh, state, other, bcs, dt, lumped_mass=lumped, previous=system)
    with pytest.raises(FemError, match="another bed temperature"):
        assemble(mesh, state, mat, BoundarySpec(t_bed=1.5), dt=0.5, previous=system)
    smaller = column_mesh(active_z=2)
    with pytest.raises(FemError, match="no longer active"):
        assemble(smaller, initial_state(smaller, bcs), mat, bcs, dt=0.5, previous=system)


@pytest.mark.parametrize("lumped", [True, False])
def test_previous_system_of_another_mesh_is_carried_by_key(lumped):
    """A system assembled on another mesh, refined where this one is not, is
    carried by matching its active nodes' keys: its node table has keys this
    mesh lacks, so no id shift maps it. The next deposit's system equals a
    fresh assembly bit for bit."""
    bcs, mat = BoundarySpec(), MaterialParams(kappa=0.2)
    first, voxel = [(1, 1, 0), (2, 1, 0)], (2, 2, 0)
    meshes = [OctreeMesh(max_level=3, base_level=1) for _ in range(2)]
    meshes[0].refine_to_voxel((7, 7, 7))  # only the first mesh is refined up there
    systems = []
    for mesh in meshes:
        state = initial_state(mesh, bcs)
        for v in first:
            if mesh.refine_to_voxel(v):
                state = transfer_solution(state, mesh, bcs)
            activate_voxel(mesh, state, v, bcs)
        systems.append(assemble(mesh, state, mat, bcs, 0.5, lumped_mass=lumped))
    mesh = meshes[1]
    assert mesh.node_ids(systems[0].operator.table) is None
    if mesh.refine_to_voxel(voxel):
        state = transfer_solution(state, mesh, bcs)
    activate_voxel(mesh, state, voxel, bcs)
    fresh = assemble(mesh, state, mat, bcs, 0.5, lumped_mass=lumped)
    carried = assemble(mesh, state, mat, bcs, 0.5, lumped_mass=lumped, previous=systems[0])
    assert_same_bits(carried.a_free, fresh.a_free)
    assert carried.lift.tobytes() == fresh.lift.tobytes()
    assert carried.inv_diag.tobytes() == fresh.inv_diag.tobytes()
    assert carried.b.tobytes() == fresh.b.tobytes()
    np.testing.assert_array_equal(carried.free, fresh.free)
    np.testing.assert_array_equal(carried.nodes, fresh.nodes)


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
    leaf = activate_voxel(mesh, state, (2, 3, 1), bcs)
    assert leaf == mesh.find_leaf((2, 3, 1))
    np.testing.assert_array_equal(state.values[mesh.leaf_nodes[leaf]], 2.0)
    np.testing.assert_array_equal(np.flatnonzero(mesh.active), [leaf])  # it marks the leaf


def test_activate_voxel_rejects_an_unrefined_voxel():
    mesh = OctreeMesh(max_level=2, base_level=1)
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    with pytest.raises(MeshError, match="level-1 leaf"):
        activate_voxel(mesh, state, (0, 0, 0), bcs)
    assert not mesh.active.any()
    np.testing.assert_array_equal(state.values, bcs.t_ambient)


def test_activate_voxel_rejects_a_state_left_stale_by_a_refine():
    mesh = OctreeMesh(max_level=3, base_level=1)
    bcs = BoundarySpec()
    state = initial_state(mesh, bcs)
    assert mesh.refine_to_voxel((0, 0, 0))
    stale = state.values.copy()
    with pytest.raises(FemError, match="transfer the solution"):
        activate_voxel(mesh, state, (0, 0, 0), bcs)
    assert not mesh.active.any()
    assert state.values.tobytes() == stale.tobytes()
    state = transfer_solution(state, mesh, bcs)
    leaf = activate_voxel(mesh, state, (0, 0, 0), bcs)
    np.testing.assert_array_equal(state.values[mesh.leaf_nodes[leaf]], bcs.t_deposit)


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
    new_state = transfer_solution(state, mesh, bcs)
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
        new_state = transfer_solution(state, mesh, bcs)
        assert len(new_state.values) == len(mesh.node_coords) > len(old.node_coords)
        np.testing.assert_array_equal(new_state.node_keys, mesh.snapshot().node_keys)
        for coord, value in zip(mesh.node_coords.tolist(), new_state.values):
            assert value == old_values.get(tuple(coord), bcs.t_ambient)
        assert new_state.time == state.time
        state = new_state


def test_transfer_rejects_mismatched_state():
    mesh = OctreeMesh(max_level=2, base_level=1)
    bad = fem.ThermalState(mesh=mesh, values=np.zeros(2), node_keys=mesh.snapshot().node_keys)
    with pytest.raises(FemError):
        transfer_solution(bad, mesh, BoundarySpec())
    # a state on nodes the mesh does not have: a finer mesh's onto a coarser one
    fine = OctreeMesh(max_level=2, base_level=1)
    fine.refine_to_voxel((0, 0, 0))
    with pytest.raises(FemError, match="not all nodes of the mesh"):
        transfer_solution(initial_state(fine, BoundarySpec()), mesh, BoundarySpec())
