"""Source-tree setup and machine facts shared by every benchmark entry point.

The benchmark runs ``olaurent`` from ``src/`` without installing it, because
the package's hard numba dependency cannot be installed offline.  Call
:func:`prepare` before anything imports numpy, so the thread caps it sets
take effect.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def prepare() -> None:
    """Cap library threads at nproc and put ``src/`` first on the path.

    Exits with code 2 when the source tree is missing, so a checkout that
    holds only the benchmark fails fast instead of measuring an installed copy.
    """
    if not (SRC / "olaurent" / "__init__.py").is_file():
        print(f"perfbench: no olaurent source tree under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc()))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts() -> dict:
    """Facts printed next to every result; call after :func:`prepare`."""
    import mpmath
    import numpy as np

    import olaurent
    from olaurent import kernels

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "complex256": hasattr(np, "complex256"),
        "numba_imports": kernels.HAS_NUMBA,
        "kernel_backend": kernels.backend(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "olaurent": olaurent.__version__,
        "olaurent_path": str(Path(olaurent.__file__).resolve().parent.relative_to(ROOT)),
    }
