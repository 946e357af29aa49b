"""Process set-up shared by the benchmark's scripts.

Importing this module pins every BLAS/OpenMP pool to one thread, so it
must be imported before anything loads numpy. It also locates the
``ttlstm`` sources of the checkout and records the environment a result
was measured in.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result may be reported."""


def import_ttlstm():
    """Import ``ttlstm`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "ttlstm" / "__init__.py").is_file():
        raise SetupError(f"no ttlstm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ttlstm

    if not Path(ttlstm.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"ttlstm was imported from {ttlstm.__file__}, not from {SRC}")
    return ttlstm


def _openblas():
    """The OpenBLAS library numpy loaded into this process, found through
    ``/proc/self/maps``, or ``None``."""
    import numpy  # noqa: F401  (loads BLAS)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        if path.endswith(".so") or ".so." in path:
            return ctypes.CDLL(path)
    return None


def _blas_call(lib, suffix: str, restype):
    for prefix in ("scipy_openblas_", "openblas_"):
        for tail in ("64_", ""):
            fn = getattr(lib, f"{prefix}{suffix}{tail}", None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def _proc_cpus() -> tuple[str, int]:
    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    allowed = 0
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("Cpus_allowed_list:"):
                for part in line.split(":", 1)[1].strip().split(","):
                    lo, _, hi = part.partition("-")
                    allowed += int(hi or lo) - int(lo) + 1
    return model, allowed


def environment() -> dict:
    """CPU, versions and the BLAS thread count actually in effect."""
    import numpy

    lib = _openblas()
    config = _blas_call(lib, "get_config", ctypes.c_char_p) if lib is not None else None
    threads = _blas_call(lib, "get_num_threads", ctypes.c_int) if lib is not None else None
    cpu, nproc = _proc_cpus()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": config.decode() if config else "not found",
        "blas_threads": threads,
    }
