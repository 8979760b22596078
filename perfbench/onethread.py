"""Pin numpy's BLAS to one thread.  Import before numpy.

The grid kernel's matrix-vector product goes to OpenBLAS, which by
default runs one spinning thread per visible core.  On a machine shared
with other work, a spinning thread that loses its core stalls the
product, and run-to-run times then measure the scheduler rather than
the program.  One BLAS thread keeps the benchmark a single client on a
single thread (the program's own ``threads`` setting is unaffected).
The setting is inherited by the set-up child interpreters.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
