"""Release OpenBLAS's idle worker threads after a threaded call.

After a call that ran on several threads, each OpenBLAS worker spins at
full load for about 0.1 s before it sleeps, doing no work.  ``release()``
joins the workers of every OpenBLAS that numpy and scipy ship, through
``blas_thread_shutdown_``, the function OpenBLAS's own fork handler calls;
the next threaded call starts them again, with the same thread count and
the same results.  It does nothing while a second Python thread is alive,
since that thread may be inside a call whose workers a shutdown would
join, and nothing where no such library is found (MKL, Accelerate, distro
builds).
"""

from __future__ import annotations

import ctypes
import threading
from functools import cache
from pathlib import Path


@cache
def _shutdowns() -> tuple:
    """``blas_thread_shutdown_`` of each OpenBLAS bundled in the numpy and
    scipy wheels (``numpy.libs/``, ``scipy.libs/``) that exports it."""
    import numpy
    import scipy
    found = []
    for mod in (numpy, scipy):
        for path in sorted(Path(mod.__file__).parent.parent.glob(f"{mod.__name__}.libs/*openblas*")):
            try:
                fn = getattr(ctypes.CDLL(str(path)), "blas_thread_shutdown_", None)
            except OSError:
                continue
            if fn is not None:
                found.append(fn)
    return tuple(found)


def release() -> None:
    """Join the idle OpenBLAS workers, when this is the only Python thread."""
    if threading.active_count() == 1:
        for shutdown in _shutdowns():
            shutdown()
