"""Spans around voxtherm's public module functions, installed from outside.

``Tracer.install()`` (or entering ``with tracer:``) swaps wrapped versions
of the public functions of each voxtherm module in place and ``uninstall()``
puts the originals back; no source file of the program changes. Spans nest through a stack, so each
span's self time is its duration minus the time its child spans cover.

The node table is built lazily, so its span is the first public accessor
(``node_coords``, ``leaf_nodes``, ``active_node_mask``, ``snapshot``) after
``mesh.version`` changes; later accessors are counted as cache hits.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np
from voxtherm import driver, fem, gcode, output, schedule
from voxtherm.octree import OctreeMesh

NODE_ACCESSORS = ("node_coords", "leaf_nodes", "active_node_mask", "snapshot")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._node_version = weakref.WeakKeyDictionary()
        self._saved: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        start = perf_counter()
        self.spans[-1][1] = start
        self._stack.append([len(self.spans) - 1, start, 0.0])

    def exit(self) -> None:
        end = perf_counter()
        idx, start, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - start
        self.total_s[span[0]] += dur
        self.self_s[span[0]] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def call(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    # --- instrumentation --------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        c = self.counts
        p = self._patch

        def parsed(tp):
            c["gcode.segments"] += len(tp.segments)

        def assembled(system):
            if system is None:
                return
            c["fem.assemble_calls"] += 1
            c["fem.free_dofs"] += system.n - len(system.dirichlet_idx) - len(system.constraints)
            c["fem.assembled_rows"] += system.n
            c["fem.active_rows"] += int(np.count_nonzero(np.diff(system.a.indptr)))
            c["fem.operator_nnz_final"] = system.a.nnz

        def solved(result):
            c["fem.solve_calls"] += 1
            c["fem.pcg_iters"] += int(result[1])

        p(gcode, "parse_gcode", self._spanned("gcode.parse", gcode.parse_gcode, parsed))
        p(schedule, "build_schedule", self._spanned("schedule.build", schedule.build_schedule))
        p(schedule, "apply_sparsity", self._spanned("schedule.sparsity", schedule.apply_sparsity))
        p(fem, "transfer_solution", self._spanned("fem.transfer", fem.transfer_solution))
        p(fem, "activate_voxel", self._spanned("fem.activate", fem.activate_voxel))
        p(fem, "assemble", self._spanned("fem.assemble", fem.assemble, assembled))
        p(fem, "solve", self._spanned("fem.solve", fem.solve, solved))
        p(fem.LinearSystem, "with_rhs", self._spanned("fem.with_rhs", fem.LinearSystem.with_rhs))
        p(driver, "run", self._spanned("driver.run", driver.run))
        p(output, "write_vtk", self._spanned("output.vtk", output.write_vtk))
        p(output, "write_report", self._spanned("output.report", output.write_report))

        refine = OctreeMesh.refine_to_voxel

        @functools.wraps(refine)
        def refine_to_voxel(mesh, voxel):
            before = mesh.version
            try:
                return self.call("octree.refine", refine, mesh, voxel)
            finally:
                c["octree.refine_calls"] += 1
                c["octree.splits"] += mesh.version - before

        p(OctreeMesh, "refine_to_voxel", refine_to_voxel)
        p(OctreeMesh, "enforce_balance", self._spanned("octree.balance", OctreeMesh.enforce_balance))
        p(OctreeMesh, "classify", self._spanned("octree.classify", OctreeMesh.classify))
        for attr in NODE_ACCESSORS:
            original = OctreeMesh.__dict__[attr]
            if isinstance(original, property):
                p(OctreeMesh, attr, property(self._node_accessor(original.fget)))
            else:
                p(OctreeMesh, attr, self._node_accessor(original))

    def _node_accessor(self, fn):
        @functools.wraps(fn)
        def accessor(mesh):
            if self._node_version.get(mesh) == mesh.version:
                self.counts["octree.node_hits"] += 1
                return fn(mesh)
            self.counts["octree.node_builds"] += 1
            self._node_version[mesh] = mesh.version
            return self.call("octree.nodes", fn, mesh)

        return accessor

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
