"""Mutation harness: does each check catch the fault it is meant to catch?

Usage::

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones

Each mutant in ``MUTANTS`` names a file, an exact source snippet, its
replacement and the tests expected to fail. For one mutant at a time the tool
copies the repository to a temporary directory, replaces the snippet there,
runs only the mutant's tests and prints ``killed`` (a test failed) or
``survived`` (every test passed). It exits 1 if a mutant survived or could
not be applied. ``tests/test_mutants.py`` checks, without running anything,
that every snippet still occurs exactly once in its file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest ids, at least one expected to fail


_OCTREE_ORACLES = (
    "tests/test_octree.py::test_random_sequences_match_reference",
    "tests/test_octree.py::test_refinement_matches_ghost_fixed_point_oracle",
)
_CHILD_KEYS = (
    "tests/test_octree.py::test_split_keys_are_the_anchors_morton_codes_down_to_the_deepest_level",
    *_OCTREE_ORACLES,
)
_STENCIL_TABLE = (
    "tests/test_fem.py::test_table_rows_match_the_patch_rebuild",
    "tests/test_fem.py::test_stencil_table_holds_every_voxel_set_of_each_axis_priority",
    "tests/test_fem.py::test_lookup_does_not_depend_on_the_element_order",
    "tests/test_fem.py::test_carried_operator_matches_whole_mesh_assembly",
)

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "flag kind accepts any truthy value",
        "src/voxtherm/_checks.py",
        'bool: (lambda v: isinstance(v, (bool, np.bool_)), "true or false"),',
        'bool: (lambda v: isinstance(v, (bool, np.bool_)) or bool(v), "true or false"),',
        (
            "tests/test_driver.py::test_config_field_types_checked",
            "tests/test_schedule.py::test_sparsity_policy_preserve_row_ends_is_a_flag",
        ),
    ),
    Mutant(
        "is_integer admits bool",
        "src/voxtherm/_checks.py",
        "return isinstance(value, numbers.Integral) and not isinstance(value, bool)",
        "return isinstance(value, numbers.Integral)",
        (
            "tests/test_driver.py::test_config_counts_must_be_integers",
            "tests/test_octree.py::test_levels_must_be_integers",
            "tests/test_fem.py::test_assemble_checks_latent_leaves_and_extra_dirichlet_types",
        ),
    ),
    Mutant(
        "plain returns its argument unchanged",
        "src/voxtherm/_checks.py",
        '    """``value`` with numpy scalars and arrays as Python ones, for messages."""\n',
        '    """``value`` with numpy scalars and arrays as Python ones, for messages."""\n'
        "    return value\n",
        (
            "tests/test_octree.py::test_a_cell_that_is_not_3_integers_fails_before_any_split_or_mark",
            "tests/test_octree.py::test_levels_must_be_integers",
            "tests/test_checks.py::test_any_field_values_construct_or_raise_the_modules_error",
        ),
    ),
    Mutant(
        "child key shifted by 3 * level",
        "src/voxtherm/octree.py",
        "shift = np.uint64(3) * (self.max_level - kid_levels).astype(np.uint64)",
        "shift = np.uint64(3) * kid_levels.astype(np.uint64)",
        _CHILD_KEYS,
    ),
    Mutant(
        "child key from the reversed corner order",
        "src/voxtherm/octree.py",
        "keys[is_child] |= kids.astype(np.uint64) << shift",
        "keys[is_child] |= (7 - kids).astype(np.uint64) << shift",
        _CHILD_KEYS,
    ),
    Mutant(
        "halo offsets not shifted to the level",
        "src/voxtherm/octree.py",
        "cells = (lo + _box_offsets(tuple((hi - lo + 1).tolist()))) << (self.max_level - lvl)",
        "cells = (lo << (self.max_level - lvl)) + _box_offsets(tuple((hi - lo + 1).tolist()))",
        _OCTREE_ORACLES,
    ),
    Mutant(
        "halo skips its coarsest level",
        "src/voxtherm/octree.py",
        "for lvl in range(level, self.base_level, -1):",
        "for lvl in range(level, self.base_level + 1, -1):",
        _OCTREE_ORACLES,
    ),
    Mutant(
        "base level left in lattice order",
        "src/voxtherm/octree.py",
        "            self._split(np.ones(len(self.levels), dtype=bool))\n        self.version = 0",
        "            self._split(np.ones(len(self.levels), dtype=bool))\n"
        "        self.anchors = self.anchors[np.lexsort(self.anchors.T[::-1])]\n"
        "        self.version = 0",
        (
            "tests/test_octree.py::test_new_mesh_is_the_morton_sorted_base_lattice",
            "tests/test_octree.py::test_base_level_construction",
        ),
    ),
    Mutant(
        "classify marks inside its loop",
        "src/voxtherm/octree.py",
        "            leaves.append(idx)\n",
        "            leaves.append(idx)\n            self.active[idx] = True\n",
        ("tests/test_octree.py::test_classify_checks_every_voxel_before_it_marks_one",),
    ),
    Mutant(
        "stencil axes tie-break reversed",
        "src/voxtherm/fem.py",
        "axes = np.argsort(-(4 * (p & -p) + [0, 1, 2]), axis=1)",
        "axes = np.argsort(-(4 * (p & -p) + [2, 1, 0]), axis=1)",
        _STENCIL_TABLE,
    ),
    Mutant(
        "stencil axes ranked without p & -p",
        "src/voxtherm/fem.py",
        "axes = np.argsort(-(4 * (p & -p) + [0, 1, 2]), axis=1)",
        "axes = np.argsort(-(4 * p + [0, 1, 2]), axis=1)",
        _STENCIL_TABLE,
    ),
    Mutant(
        "element kernel reads the mirrored corner",
        "src/voxtherm/fem.py",
        "M = sp.coo_matrix((Me[corners].ravel(), ij), shape=shape).tocsr()",
        "M = sp.coo_matrix((Me[7 - corners].ravel(), ij), shape=shape).tocsr()",
        _STENCIL_TABLE[:2] + _STENCIL_TABLE[3:],
    ),
    Mutant(
        "sparsity ranks rows without restarting per layer",
        "src/voxtherm/schedule.py",
        "for _, rows in groupby(sorted(ends), key=lambda row: row[0])",
        "for _, rows in groupby(sorted(ends), key=lambda row: 0)",
        (
            "tests/test_schedule.py::test_sparsity_band_leaves_outer_layers_unchanged",
            "tests/test_schedule.py::test_sparsity_properties_random_policies",
        ),
    ),
    Mutant(
        "sparsity drops row ends",
        "src/voxtherm/schedule.py",
        "or (policy.preserve_row_ends and pos in ends[v.k, v.j])",
        "or (False and pos in ends[v.k, v.j])",
        (
            "tests/test_schedule.py::test_sparsity_preserve_row_ends",
            "tests/test_schedule.py::test_sparsity_properties_random_policies",
            "tests/test_acceptance.py::test_criterion_7_sparsity_ordering",
        ),
    ),
    Mutant(
        "segment sampled once per voxel edge",
        "src/voxtherm/schedule.py",
        "n = max(1, math.ceil(2.0 * length / grid.voxel_size))",
        "n = max(1, math.ceil(length / grid.voxel_size))",
        (
            "tests/test_schedule.py::test_oblique_segments_never_return_to_a_voxel",
            "tests/test_schedule.py::test_random_staircase_toolpaths_match_dense_oracle",
            "tests/test_acceptance.py::test_criterion_2_voxelizer_oracle_equivalence",
        ),
    ),
    Mutant(
        "mass lumped to the consistent diagonal",
        "src/voxtherm/fem.py",
        "return np.diag(M.sum(axis=1))",
        "return np.diag(np.diag(M))",
        (
            "tests/test_fem.py::test_lump_preserves_total_mass",
            "tests/test_acceptance.py::test_criterion_6_conservation",
        ),
    ),
    Mutant(
        "bed lift added instead of subtracted",
        "src/voxtherm/fem.py",
        "b_red = system.b[free] - system.lift",
        "b_red = system.b[free] + system.lift",
        (
            "tests/test_fem.py::test_column_solution_matches_dense_oracle",
            "tests/test_fem.py::test_steady_column_has_linear_profile",
            "tests/test_acceptance.py::test_criterion_3_steady_state_exactness",
        ),
    ),
    Mutant(
        "transferred new nodes start at the deposit temperature",
        "src/voxtherm/fem.py",
        "new_values = np.full(len(keys), bcs.t_ambient)",
        "new_values = np.full(len(keys), bcs.t_deposit)",
        (
            "tests/test_fem.py::test_transfer_matches_containment_oracle_on_random_field",
            "tests/test_fem.py::test_transfer_after_successive_refinements",
        ),
    ),
    Mutant(
        "schedule validation skips the integer check",
        "src/voxtherm/schedule.py",
        "if not (isinstance(v, tuple) and len(v) == 3 and all(map(is_integer, v))):",
        "if False:",
        ("tests/test_schedule.py::test_any_short_voxel_list_validates_or_raises_schedule_error",),
    ),
    Mutant(
        "unread public function in schedule's __all__",
        "src/voxtherm/schedule.py",
        '    "load_schedule",\n]\n',
        '    "load_schedule",\n    "unread_helper",\n]\n\n\ndef unread_helper():\n    return None\n',
        ("tests/test_package.py::test_every_name_in_a_submodules_all_is_read",),
    ),
    Mutant(
        "stiffness one percent high",
        "src/voxtherm/fem.py",
        "return mat.rho * mat.cp * M, mat.kappa * K",
        "return mat.rho * mat.cp * M, 1.01 * mat.kappa * K",
        ("tests/test_acceptance.py::test_criterion_4_transient_convergence",),
    ),
    Mutant(
        "deposit activated above the deposit temperature",
        "src/voxtherm/fem.py",
        "state.values[mesh.leaf_nodes[leaf]] = bcs.t_deposit",
        "state.values[mesh.leaf_nodes[leaf]] = bcs.t_deposit + 1e-6",
        ("tests/test_acceptance.py::test_criterion_5_maximum_principle_regression",),
    ),
    Mutant(
        "60 % snapshot skipped",
        "src/voxtherm/driver.py",
        '                _emit(sinks, f"{pct:03d}", mesh, state)',
        '                if pct != 60:\n                    _emit(sinks, f"{pct:03d}", mesh, state)',
        ("tests/test_acceptance.py::test_criterion_8_end_to_end_run",),
    ),
    Mutant(
        "wall-clock time in the VTK header",
        "src/voxtherm/output.py",
        'f"voxtherm t={state.time!r}",',
        'f"voxtherm t={state.time!r} wall={__import__(\'time\').time()!r}",',
        ("tests/test_acceptance.py::test_criterion_9_determinism",),
    ),
)

_IGNORED = shutil.ignore_patterns(".git", ".perfbench-out", ".pytest_cache", ".hypothesis",
                                  "__pycache__")


def run(mutant: Mutant) -> str:
    """``killed``, ``survived`` or why the mutant's tests did not run."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORED)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.snippet) != 1:
            return f"not applied: snippet occurs {text.count(mutant.snippet)} times"
        target.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), OPENBLAS_NUM_THREADS="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests]
        try:
            done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"killed (timed out after {TIMEOUT_S} s)"
    summary = (done.stdout.strip().splitlines() or [""])[-1]
    if done.returncode == 0:
        return f"survived ({summary})"
    if done.returncode == 1:
        failed = re.search(r"(\d+) failed", summary)
        return f"killed ({failed.group(1) if failed else '?'} failed: {summary})"
    return f"error: pytest exited {done.returncode} ({summary})"


def main(argv: list[str]) -> int:
    names = {m.name for m in MUTANTS}
    unknown = [n for n in argv if n not in names]
    if unknown:
        print(f"unknown mutants {unknown}; one of {sorted(names)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    ok = True
    for mutant in chosen:
        verdict = run(mutant)
        ok &= verdict.startswith("killed")
        print(f"{mutant.name}: {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
