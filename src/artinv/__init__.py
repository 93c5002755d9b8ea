"""Two-stream acoustic-to-articulatory inversion.

A speech stream (multi-kernel 1-D convolution bank plus a multi-head
attention encoder) and a phoneme stream (stacked bidirectional LSTM) are
trained jointly to predict electromagnetic-articulography trajectories,
with a leave-one-speaker-out evaluation harness reporting RMSE (mm) and
Pearson correlation.
"""

import os
import sys


def openblas_function(name: str):
    """The ctypes function ``name`` exported by the scipy-openblas library
    that the loaded numpy carries (as threadpoolctl finds it), or None when
    there is no such library or export."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(sys.modules["numpy"].__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            return getattr(ctypes.CDLL(path), name)
        except (OSError, AttributeError):
            continue
    return None


def _pin_loaded_openblas() -> None:
    """Set to 1 the thread count of the OpenBLAS that numpy has already
    loaded; warn when this numpy carries no such library."""
    import ctypes
    import logging

    set_threads = openblas_function("scipy_openblas_set_num_threads64_")
    if set_threads is None:
        logging.getLogger(__name__).warning(
            "numpy was imported before artinv and its OpenBLAS thread count could not be set; "
            "set OPENBLAS_NUM_THREADS=1 before starting Python for byte-reproducible outputs")
        return
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)


# OpenBLAS splits a GEMM across threads in a way that changes its sums'
# rounding, so checkpoints and reports are byte-reproducible only at a fixed
# thread count.  It reads the count once, when numpy is first imported:
# unless the user chose one, pin it to 1 before anything imports numpy, or,
# when numpy came first, through the library numpy loaded.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if "numpy" in sys.modules:
        _pin_loaded_openblas()

__version__ = "0.1.0"
