"""One BLAS thread for a block of numpy and scipy work.

numpy's and scipy's wheels each bundle their own OpenBLAS, whose default
thread pools contend with each other on a small machine, and a different
thread count can change a solve's last bits. ``ONE_BLAS_THREAD`` holds
both to one thread while entered and restores the caller's counts.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np
import scipy


@functools.cache
def openblas_thread_controls() -> tuple:
    """(get, set) of the thread count of each OpenBLAS that numpy's and
    scipy's wheels bundle; a library or symbol that is not there is left
    out."""
    controls = []
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("libscipy_openblas*.so*")):
            handle, name = ctypes.CDLL(str(lib)), f"num_threads{suffix}"
            try:
                get = getattr(handle, f"scipy_openblas_get_{name}")
                set_ = getattr(handle, f"scipy_openblas_set_{name}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


class OneBlasThread(contextlib.ContextDecorator):
    """Holds each bundled OpenBLAS to one thread while entered, or while a
    function it decorates runs. The thread counts are process-wide, so
    entries may overlap across threads: the counts the first entry found
    come back when the last one exits, whether or not an exception is
    passing."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entered = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if not self._entered:
                self._saved = [(set_, get())
                               for get, set_ in openblas_thread_controls()]
                for set_, _ in self._saved:
                    set_(1)
            self._entered += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._entered -= 1
            if not self._entered:
                for set_, count in self._saved:
                    set_(count)


ONE_BLAS_THREAD = OneBlasThread()
