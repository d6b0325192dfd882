"""Process set-up shared by the benchmark's entry scripts.

Import this before numpy: BLAS/OpenMP pools read their thread caps when the
library loads. The benchmark runs voxtherm from the ``src/`` tree of the
checkout it sits in, never from an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class SourceMissing(RuntimeError):
    """The checkout holds no voxtherm source tree to benchmark."""


def prepare_process() -> None:
    """Cap thread pools at one thread and put the checkout's source first."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "voxtherm" / "__init__.py").is_file():
        raise SourceMissing(f"no voxtherm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import voxtherm

    if SRC not in Path(voxtherm.__file__).resolve().parents:
        raise SourceMissing(f"voxtherm imported from {voxtherm.__file__}, not {SRC}")


def git_commit() -> str:
    """Commit of the checkout read from ``.git`` directly, or ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
    }
