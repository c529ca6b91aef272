"""Spectral certification of a host graph: one eigensolve and its report.

``adjacency_spectrum`` returns a ``SpectralReport``: degree, regularity,
the full descending spectrum (dense solver) or only its certifying ends
(one iterative Lanczos run), and the second-eigenvalue parameter
``lambda = max(|lambda_2|, |lambda_n|)``.  The dense solve holds one
float64 n x n matrix (8n^2 bytes), filled from ``Graph.csr()`` and
overwritten by LAPACK; it makes no int8 matrix and no copy.  Both
solvers run multi-threaded OpenBLAS (LAPACK's tridiagonal reduction, and
ARPACK's ``dgemv``); its idle workers are released (``blas.release``)
right after the solve, so none spins on after it returns.  The
pipelines read ``d`` and ``lambda`` for their strict-mode hypotheses and
their parameters, and refuse an irregular host in strict mode; the
``spectral`` command prints the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import blas
from .errors import NotConvergedError, NotRegularError
from .graphs import Graph

DENSE_CUTOFF = 4096
DENSE_TOL = 1e-8
ITERATIVE_TOL = 1e-6


@dataclass
class SpectralReport:
    """Eigenvalue certificate for a (preferably regular) graph.

    ``spectrum`` holds the full descending spectrum when the dense solver ran,
    and None when only the three certifying eigenvalues were computed
    iteratively; ``lambda2`` and ``lambdan`` are always populated.
    """

    n: int
    d: int
    lam: float
    lambda2: float
    lambdan: float
    is_regular: bool
    tol: float
    spectrum: Optional[np.ndarray] = field(default=None, repr=False)

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "d": self.d,
            "lambda": self.lam,
            "lambda2": self.lambda2,
            "lambdan": self.lambdan,
            "tol": self.tol,
        }
        return json.dumps(payload, sort_keys=True)


def adjacency_operator(g: Graph) -> scipy.sparse.csr_matrix:
    """Sparse adjacency matrix for the iterative solver, made directly from
    the graph's cached CSR pair (rows already sorted and duplicate-free)."""
    indptr, indices = g.csr()
    return scipy.sparse.csr_matrix((np.ones(len(indices)), indices, indptr),
                                   shape=(g.n, g.n))


def adjacency_spectrum(g: Graph) -> SpectralReport:
    """Certify a graph: full dense eigensolve up to 4096 vertices, else one
    both-ends Lanczos run for the top two and bottom eigenvalues."""
    n = g.n
    if n == 0:
        raise NotRegularError("empty graph has no spectrum")
    degrees = g.degrees()
    is_regular = all(x == degrees[0] for x in degrees)
    d = degrees[0] if is_regular else int(round(2 * g.m / n))
    dense = n <= DENSE_CUTOFF
    tol = DENSE_TOL if dense else ITERATIVE_TOL
    if dense:
        # one n x n float64 buffer, filled from the CSR pair; its transpose
        # is the same symmetric matrix in Fortran order, so LAPACK works in
        # it in place, and 0/1 entries need no finiteness scan
        indptr, indices = g.csr()
        a = np.zeros((n, n))
        a[np.repeat(np.arange(n), np.diff(indptr)), indices] = 1.0
        spectrum = scipy.linalg.eigvalsh(a.T, overwrite_a=True, check_finite=False)[::-1].copy()
        # a single vertex has lambda_2 = lambda_1 = 0
        lambda2, lambdan = float(spectrum[min(1, n - 1)]), float(spectrum[-1])
    else:
        # fixed pseudorandom start vector keeps ARPACK deterministic without
        # seeding it with an exact eigenvector (the all-ones vector is one)
        v0 = np.random.default_rng(0x5EED).standard_normal(n)
        try:
            # k=3 at both ends: the bottom one and the top two, ascending
            low, second, _ = scipy.sparse.linalg.eigsh(
                adjacency_operator(g), k=3, which="BE", tol=tol, v0=v0,
                return_eigenvectors=False)
        except scipy.sparse.linalg.ArpackNoConvergence as err:
            raise NotConvergedError(str(err)) from err
        spectrum, lambda2, lambdan = None, float(second), float(low)
    # both solvers run threaded OpenBLAS: join its workers rather than
    # leave them spinning
    blas.release()
    lam = max(abs(lambda2), abs(lambdan))
    return SpectralReport(n, d, lam, lambda2, lambdan, is_regular, tol,
                          spectrum=spectrum)
