"""The program's BLAS thread policy: one BLAS thread per process.

The program's parallelism is its processes (pool workers, service executor
threads each calling into their own solves), so a BLAS library that starts
one thread per CPU in every process only adds contention: on a 2-CPU host
the 93-vertex ``Dec_2`` dense eigensolve fell into a 124–136 ms slow mode
under default-width OpenBLAS, against about 1.1 ms with one thread.

OpenBLAS, OpenMP and MKL read their thread variables once, when the library
loads, so the rule must run before numpy is first imported.  This module
imports nothing but :mod:`os` for that reason.  Two places apply it:
``python -m repro`` (:mod:`repro.__main__`) for its own process, and
:mod:`repro.engine.pool` for each worker it spawns.  A value the user set
always passes through; library use (``import repro``) keeps the host's
width unless the caller sets the variables before importing numpy.
"""

from __future__ import annotations

import os

__all__ = ["BLAS_THREAD_ENV", "default_blas_threads"]

#: The thread-count variables of OpenBLAS, OpenMP and MKL.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_blas_threads() -> list[str]:
    """Set every unset :data:`BLAS_THREAD_ENV` variable to ``"1"``.

    Returns the names it set, so a caller can undo the change.
    """
    added = [name for name in BLAS_THREAD_ENV if name not in os.environ]
    os.environ.update(dict.fromkeys(added, "1"))
    return added
