"""Spectral certification of a host graph: one eigensolve and its report.

``adjacency_spectrum`` returns a ``SpectralReport``: degree, regularity, the
full descending spectrum (dense solver) or only its certifying ends (one
iterative Lanczos run), and the second-eigenvalue parameter
``lambda = max(|lambda_2|, |lambda_n|)``.  The dense solve holds one float64
n x n matrix (8n^2 bytes), the ``Graph.block`` of all vertices against all
vertices, overwritten by LAPACK; it makes no int8 matrix and no copy.  Above
``DENSE_CUTOFF`` a regular host gets lambda_2 and lambda_n from one
three-term Lanczos recurrence kept orthogonal to the all-ones vector, its
top eigenvector: no restarts, no reorthogonalization, and no dot product
through BLAS, so it runs on one thread.  An irregular host, whose top
eigenvector is not the all-ones vector, goes to ARPACK instead.  LAPACK's
tridiagonal reduction and ARPACK's ``dgemv`` run multi-threaded OpenBLAS;
its idle workers are released (``blas.release``) right after the solve, so
none spins on after it returns.  The pipelines read ``d`` and ``lambda`` for
their strict-mode hypotheses and their parameters, and refuse an irregular
host in strict mode; the ``spectral`` command prints the report.
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
from .util import STRICT, uniforms

DENSE_CUTOFF = 4096
DENSE_TOL = 1e-8
ITERATIVE_TOL = 1e-6
# Lanczos steps allowed per vertex: in exact arithmetic the recurrence in the
# complement of the all-ones vector breaks down within n - 1 steps
LANCZOS_STEPS_PER_VERTEX = 1
# steps between convergence checks: LANCZOS_CHECK_EVERY, or step //
# LANCZOS_CHECK_SPREAD once that is larger (from step 550 on), so the O(k)
# checks of a k-step run cost O(k log k) in all
LANCZOS_CHECK_EVERY = 10
LANCZOS_CHECK_SPREAD = 50


@dataclass
class SpectralReport:
    """Eigenvalue certificate for a (preferably regular) graph.

    ``spectrum`` holds the full descending spectrum when the dense solver ran,
    and None when only the certifying ends lambda_2 and lambda_n were
    computed iteratively; ``lambda2`` and ``lambdan`` are always populated.
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


def check_regular(report: SpectralReport, mode: str) -> None:
    """Strict mode's first hypothesis: every pipeline's host is regular."""
    if mode == STRICT and not report.is_regular:
        raise NotRegularError(f"strict mode needs a regular host; the degrees of "
                              f"this n={report.n} host differ")


def adjacency_operator(g: Graph) -> scipy.sparse.csr_matrix:
    """Sparse adjacency matrix for the iterative solver, made directly from
    the graph's cached CSR pair (rows already sorted and duplicate-free)."""
    indptr, indices = g.csr()
    return scipy.sparse.csr_matrix((np.ones(len(indices)), indices, indptr),
                                   shape=(g.n, g.n))


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # einsum's own loop: BLAS ddot would run on OpenBLAS's threads
    return float(np.einsum("i,i->", x, y))


def _ritz_ends(alphas: list, betas: list) -> list:
    """(theta, residual) for the lowest and the highest eigenvalue theta of
    the Lanczos tridiagonal T_k: residual = beta_k |s_k|, with s_k the last
    entry of theta's unit eigenvector, is the norm of A y - theta y for its
    Ritz vector y."""
    diag, off = np.array(alphas), np.array(betas[:-1])
    ends = []
    for i in (0, len(alphas) - 1):
        theta, s = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(i, i))
        ends.append((float(theta[0]), betas[-1] * abs(float(s[-1, 0]))))
    return ends


def _deflated_lanczos(a: scipy.sparse.csr_matrix, d: int, tol: float) -> tuple[float, float]:
    """lambda_2 and lambda_n of a d-regular graph's adjacency operator ``a``.

    The all-ones vector is the d-eigenvector of a regular graph, so A maps
    its complement 1-perp to itself, where the spectrum is lambda_2 ..
    lambda_n.  The plain three-term recurrence is run there, from a fixed
    pseudorandom vector projected onto 1-perp; each ``A v`` has its mean
    taken off, so rounding cannot bring the d-eigenvector back.  Nothing is
    restarted or reorthogonalized: the extreme Ritz values converge despite
    the loss of orthogonality, which only leaves copies of them (Paige 1980).
    Every ``LANCZOS_CHECK_EVERY`` steps, and from step 550 on every
    ``step // LANCZOS_CHECK_SPREAD`` steps, both ends of T_k are tested with
    ARPACK's rule, residual beta_k |s_k| <= tol * max(eps^(2/3), |theta|).
    A breakdown (beta ~ 0: the Krylov space is invariant, as for strongly
    regular hosts after two steps) makes the Ritz values exact and ends the
    run at once.
    """
    n = a.shape[0]
    eps = np.finfo(float).eps
    v = uniforms(0x5EED, "lanczos-start", n) - 0.5
    v -= v.mean()
    v /= np.sqrt(_dot(v, v))
    prev = np.zeros(n)
    alphas, betas, beta = [], [], 0.0
    cap = max(1, int(LANCZOS_STEPS_PER_VERTEX * n))
    check = LANCZOS_CHECK_EVERY  # the step of the next check
    for step in range(1, cap + 1):
        w = a @ v
        w -= w.mean()
        alpha = _dot(w, v)
        w -= alpha * v
        w -= beta * prev
        beta = np.sqrt(_dot(w, w))
        alphas.append(alpha)
        betas.append(beta)
        breakdown = beta <= np.sqrt(eps) * d
        if breakdown or step == check:
            check = step + max(LANCZOS_CHECK_EVERY, step // LANCZOS_CHECK_SPREAD)
            ends = _ritz_ends(alphas, betas)
            if breakdown or all(residual <= tol * max(eps ** (2 / 3), abs(theta))
                                for theta, residual in ends):
                return ends[1][0], ends[0][0]
        w /= beta
        prev, v = v, w
    raise NotConvergedError(f"Lanczos ends not within tolerance {tol} after {cap} steps")


def adjacency_spectrum(g: Graph) -> SpectralReport:
    """Certify a graph: full dense eigensolve up to ``DENSE_CUTOFF`` vertices;
    above it, lambda_2 and lambda_n of a regular graph from one deflated
    Lanczos run (``_deflated_lanczos``), and of an irregular one from one
    both-ends ARPACK run for the top two and bottom eigenvalues."""
    n = g.n
    if n == 0:
        raise NotRegularError("empty graph has no spectrum")
    # the degrees build the CSR, so the dense block below reads CSR slices
    degrees = np.diff(g.csr()[0])
    is_regular = bool((degrees == degrees[0]).all())
    d = int(degrees[0]) if is_regular else int(round(2 * g.m / n))
    dense = n <= DENSE_CUTOFF
    tol = DENSE_TOL if dense else ITERATIVE_TOL
    spectrum = None
    if dense:
        # one n x n float64 buffer; its transpose is the same symmetric
        # matrix in Fortran order, so LAPACK works in it in place, and 0/1
        # entries need no finiteness scan
        a = g.block(range(n), range(n), dtype=np.float64)
        spectrum = scipy.linalg.eigvalsh(a.T, overwrite_a=True, check_finite=False)[::-1].copy()
        # a single vertex has lambda_2 = lambda_1 = 0
        lambda2, lambdan = float(spectrum[min(1, n - 1)]), float(spectrum[-1])
    elif is_regular:
        lambda2, lambdan = _deflated_lanczos(adjacency_operator(g), d, tol)
    else:
        # a fixed pseudorandom start vector keeps ARPACK deterministic
        v0 = uniforms(0x5EED, "lanczos-start", n) - 0.5
        try:
            # k=3 at both ends: the bottom one and the top two, ascending
            low, second, _ = scipy.sparse.linalg.eigsh(
                adjacency_operator(g), k=3, which="BE", tol=tol, v0=v0,
                return_eigenvectors=False)
        except scipy.sparse.linalg.ArpackNoConvergence as err:
            raise NotConvergedError(str(err)) from err
        lambda2, lambdan = float(second), float(low)
    # the dense and ARPACK solves run threaded OpenBLAS: join its workers
    # rather than leave them spinning
    blas.release()
    lam = max(abs(lambda2), abs(lambdan))
    return SpectralReport(n, d, lam, lambda2, lambdan, is_regular, tol,
                          spectrum=spectrum)
