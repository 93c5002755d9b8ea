"""Two-stream acoustic-to-articulatory inversion.

A speech stream (multi-kernel 1-D convolution bank plus a multi-head
attention encoder) and a phoneme stream (stacked bidirectional LSTM) are
trained jointly to predict electromagnetic-articulography trajectories,
with a leave-one-speaker-out evaluation harness reporting RMSE (mm) and
Pearson correlation.
"""

import os

# OpenBLAS splits a GEMM across threads in a way that changes its sums'
# rounding, so checkpoints and reports are byte-reproducible only at a fixed
# thread count.  It reads the count once, when numpy is first imported:
# unless the user chose one, pin it to 1 before anything imports numpy.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
