"""Import path and thread settings shared by the benchmark's entry points.

``setup`` must run before NumPy or ``fallsense`` is imported: it pins the
BLAS pools to one thread (the models' matrices are tiny, so extra threads
only add scheduling noise) and puts the checkout's ``src`` first on the
import path, so the benchmark always measures the tree it sits in.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
MODELS = BENCH_DIR / "models"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the package."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def setup() -> None:
    """Pin BLAS threads and import ``fallsense`` from this checkout.

    Exits with status 2 when the checkout holds no package source.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "fallsense" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import fallsense
    if Path(fallsense.__file__).resolve().parent != SRC / "fallsense":
        sys.stderr.write(
            f"perfbench: imported fallsense from {fallsense.__file__}, "
            f"not from {SRC}\n")
        raise SystemExit(2)
