"""The class of host the golden digests and float64 pins were recorded
on, and the class the tests run on.

Pinned bytes follow the kernels that OpenBLAS picks for the CPU and the
SIMD loops that numpy dispatches to. A failing pin adds ``note()`` to
its message, so a run on another class of host says so beside the
digest it missed.
"""

import ctypes

import numpy as np

RECORDED = "OpenBLAS core SkylakeX, numpy dispatch X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def openblas_core():
    """The core name of numpy's bundled OpenBLAS, read through the same
    library handle as ``pipeline._openblas_threads``."""
    try:
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return "unknown (not numpy's bundled OpenBLAS)"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def numpy_dispatch():
    """numpy's dispatch targets that this CPU enables, space-separated."""
    umath = np._core._multiarray_umath
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return " ".join(enabled) or "none beyond the baseline"


def running():
    return f"OpenBLAS core {openblas_core()}, numpy dispatch {numpy_dispatch()}"


def note():
    """The line a failing pin adds to its message."""
    return f"this host: {running()}; pins recorded on: {RECORDED}"
