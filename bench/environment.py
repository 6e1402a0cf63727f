"""The environment a benchmark result was measured in."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def git_revision(root: Path):
    """HEAD of the repository at root, or None outside a git checkout.
    The search stops at root so an enclosing repository is not used."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             env=env, capture_output=True, text=True,
                             timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, in path order; identifies the
    code measured even where no git metadata is present."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_build():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None, None
    return deps.get("name"), deps.get("version")


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library
    itself; None when no OpenBLAS is mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in _THREAD_QUERIES:
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def describe(root: Path) -> dict:
    blas_name, blas_version = _blas_build()
    return {
        "git_revision": git_revision(root),
        "src_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
