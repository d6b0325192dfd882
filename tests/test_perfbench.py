"""The benchmark's self-test and its byte gate, run as part of the suite.

``perfbench/tracer.py`` wraps voxtherm functions and methods by name, so a
rename in ``src/`` would silently break traced benchmark runs; running the
self-test here makes it fail the suite instead. The byte gate runs both
workloads once at the default seed: their outputs must match the committed
digests, and the traced print must keep its solver and mesh counts.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def perfbench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout + proc.stderr
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize(
    "workload,trace,expected",
    [
        ("replay_sphere32", 0, {}),
        (
            "sparse_sphere32",
            1,
            {
                "fem.pcg_iters": 9825,
                "octree.leaves_final": 3508,
                "octree.nodes_final": 4778,
                "fem.operator_nnz_final": 42406,
                "fem.free_dofs_mean": 1183.0970537261699,
                "fem.active_node_share": 0.4412976674690274,
            },
        ),
    ],
)
def test_perfbench_byte_gate(workload, trace, expected):
    metrics = perfbench(workload, trace)
    assert {name: metrics[name] for name in expected} == expected
