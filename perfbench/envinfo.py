"""Print the environment a benchmark run measured, as one JSON object.

Run with damctl importable: python envinfo.py
"""

import ctypes
import glob
import json
import os
import platform
import sys


def blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main():
    sys.path.pop(0)
    import numpy
    import scipy
    import damctl.cli  # the full import; it also warms the bytecode cache
    from damctl import kernels

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    backend = getattr(kernels, "active_backend", None)
    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "backend": backend() if backend is not None else "numpy",
        "machine": platform.machine(),
    }
    print(json.dumps(info))


if __name__ == "__main__":
    main()
