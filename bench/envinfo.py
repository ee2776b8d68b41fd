"""BLAS thread pinning and the environment recorded with every result.

``pin_blas_threads`` must run before numpy is first imported: OpenBLAS
reads its thread count once, when numpy loads it. ``blas_threads`` then
asks that same library, through ctypes, how many threads it really uses.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Set the BLAS thread variables of this process (and its children)."""
    count = nproc()
    for var in THREAD_VARS:
        os.environ[var] = str(count)
    return count


def _numpy_openblas():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so*"))
    if not found:
        raise RuntimeError(f"no bundled OpenBLAS found in {libs}")
    # Loading the already-loaded file returns numpy's own library handle.
    lib = ctypes.CDLL(str(found[0]))
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_get_config64_.argtypes = []
    lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
    return lib


def blas_threads() -> tuple[int, str]:
    """(effective OpenBLAS thread count, OpenBLAS config string) of numpy."""
    lib = _numpy_openblas()
    return (int(lib.scipy_openblas_get_num_threads64_()),
            lib.scipy_openblas_get_config64_().decode())


def _git_sha(root: Path):
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def describe(root: Path, src: Path) -> dict:
    """Versions, CPU count and code identity to store beside a result."""
    import numpy
    import scipy

    threads, config = blas_threads()
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(src),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": threads,
        "nproc": nproc(),
        "machine": platform.machine(),
    }
