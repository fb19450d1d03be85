"""Run the test suite with single-threaded BLAS.

The model's products are small (about 960×16 @ 16×16), and two BLAS threads
contend on them: one thread runs the suite faster with the same results.
BLAS reads these variables when numpy loads it, and pytest imports this file
before any test module, so numpy is not yet loaded here. A value already set
in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
