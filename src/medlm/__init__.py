"""Desk-scale medical LM adaptation pipeline.

Continued pre-training, supervised fine-tuning and direct preference
optimization on a compact character-level transformer, with the data
construction and evaluation machinery to run the whole loop end to end.

Importing this package pins BLAS and OpenMP to one thread. A multi-threaded
BLAS splits a matmul's sums differently from a single-threaded one, so the
same seeded run would give different bits on machines (or environments)
with different thread counts. The pin only takes effect if it runs before
numpy is first imported: import medlm before numpy.

It also makes glibc keep freed memory for reuse. Each training step builds
and then frees an autodiff graph of tens of MB. By default glibc maps large
arrays afresh and hands the freed top of the heap back to the OS, so each
step faulted the same pages in again: a step of the pretrain
benchmark took about 1.5 times as long, with 40 times the page faults.
"""

import ctypes
import os

# Overwrite rather than setdefault: an inherited "=2" would bring the
# thread-count dependence back.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
del _var

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # from glibc's malloc.h
try:
    _libc = ctypes.CDLL(None)
    _libc.mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    _libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's maximum
    del _libc
except (AttributeError, OSError, TypeError):  # a C library without mallopt
    pass

__version__ = "0.1.0"
