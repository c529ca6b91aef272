"""Spectral certification of regular graphs and the bounds it buys.

The central object is the ``SpectralReport``: degree, full (or partial)
adjacency spectrum, and the second-eigenvalue parameter
``lambda = max(|lambda_2|, |lambda_n|)``.  On top of it sit testable oracles:
the mixing bound for edge counts between vertex sets, the cut lower bound,
a sampled refutation search for epsilon-regularity of a pair, and the
good-vertex count for regular pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    DegenerateCutError,
    NotConvergedError,
    NotRegularError,
    OverlapError,
    TooSmallError,
)
from .graphs import Graph, pair_density, vertex_ids
from .util import np_rng

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


@dataclass
class RegularityAudit:
    """Outcome of a sampled refutation search for pair regularity.

    ``witness`` is a sub-pair achieving the worst deviation when that
    deviation exceeds epsilon, else None; passing means only that no
    counterexample was found, not a proof.
    """

    epsilon: float
    base_density: float
    worst_deviation: float
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    samples: int

    @property
    def passed(self) -> bool:
        return self.worst_deviation <= self.epsilon


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
        spectrum = scipy.linalg.eigvalsh(g.adjacency_matrix().astype(np.float64))[::-1].copy()
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
    lam = max(abs(lambda2), abs(lambdan))
    return SpectralReport(n, d, lam, lambda2, lambdan, is_regular, tol,
                          spectrum=spectrum)


def complement_report(r: SpectralReport) -> tuple[SpectralReport, float]:
    """Spectral report of the complement graph, computed from the original
    report, together with the classical second-eigenvalue parameter
    -(lambda_n + 1) of the complement.

    Eigenvectors orthogonal to all-ones map lambda_i to -1 - lambda_i, so
    the complement's ends are -1 - lambda_n and -1 - lambda_2, and an
    iterative report suffices.  The parameter equals the complement's
    lambda_2 exactly, but can differ from its max-absolute-value lambda.
    """
    if not r.is_regular:
        raise NotRegularError("complement spectrum formula needs a regular graph")
    comp_d = r.n - 1 - r.d
    lambda2, lambdan = (-1.0 - r.lambdan, -1.0 - r.lambda2) if r.n >= 2 else (0.0, 0.0)
    comp_spectrum = None
    if r.spectrum is not None:
        comp_spectrum = np.sort(np.concatenate(([float(comp_d)], -1.0 - r.spectrum[1:])))[::-1]
    comp = SpectralReport(r.n, comp_d, max(abs(lambda2), abs(lambdan)), lambda2, lambdan,
                          True, r.tol, spectrum=comp_spectrum)
    return comp, -(r.lambdan + 1.0)


def _check_report(g: Graph, r: SpectralReport) -> None:
    if r.n != g.n:
        raise NotRegularError(f"report is for n={r.n}, graph has n={g.n}")


def ordered_edge_count(g: Graph, u_side: Sequence[int], v_side: Sequence[int]) -> int:
    """e(U,V) counting ordered adjacent pairs: edges inside the overlap of
    U and V contribute twice, matching the mixing-bound convention."""
    return int(g.neighbor_counts(v_side)[vertex_ids(g.n, set(u_side))].sum())


def mixing_discrepancy(g: Graph, r: SpectralReport, u_side: Sequence[int],
                       v_side: Sequence[int]) -> tuple[float, float, float, bool]:
    """Observed e(U,V) against the expected d|U||V|/n with the
    lambda*sqrt(|U||V|) tolerance; returns (observed, expected, bound, pass)."""
    _check_report(g, r)
    u_set, v_set = set(u_side), set(v_side)
    observed = float(ordered_edge_count(g, u_set, v_set))
    expected = r.d * len(u_set) * len(v_set) / g.n
    bound = r.lam * math.sqrt(len(u_set) * len(v_set))
    return observed, expected, bound, abs(observed - expected) <= bound + 1e-9


def cut_lower_bound(g: Graph, r: SpectralReport,
                    b_side: Sequence[int]) -> tuple[int, float, bool]:
    """Edges leaving B against the (d - lambda)|B||V-B|/n floor."""
    _check_report(g, r)
    b_set = set(b_side)
    if not b_set or len(b_set) >= g.n:
        raise DegenerateCutError("cut side must be a proper nonempty subset")
    c_set = [v for v in range(g.n) if v not in b_set]
    observed = ordered_edge_count(g, b_set, c_set)
    bound = (r.d - r.lam) * len(b_set) * len(c_set) / g.n
    return observed, bound, observed >= bound - 1e-9


def _degree_sorted(g: Graph, side: Sequence[int], other: Sequence[int]) -> list[int]:
    ids = vertex_ids(g.n, side)
    return ids[np.lexsort((ids, g.neighbor_counts(other)[ids]))].tolist()


def regular_pair_audit(g: Graph, a_side: Sequence[int], b_side: Sequence[int],
                       epsilon: float, sample_budget: int = 200,
                       seed: int = 0) -> RegularityAudit:
    """Search for a sub-pair whose density deviates from the base density by
    more than epsilon.

    Random sub-pairs of admissible size are drawn from the budget, and the
    degree-sorted halves and quarters of both sides are always tried, so the
    classical counterexamples are found without sampling luck.
    """
    a_list, b_list = sorted(set(a_side)), sorted(set(b_side))
    if set(a_list) & set(b_list):
        raise OverlapError("regularity audit sides must be disjoint")
    if len(a_list) < 1 / epsilon or len(b_list) < 1 / epsilon:
        raise TooSmallError(f"sides must have at least {1 / epsilon:.0f} vertices")
    base = pair_density(g, a_list, b_list)
    min_a = max(1, math.ceil(epsilon * len(a_list)))
    min_b = max(1, math.ceil(epsilon * len(b_list)))

    candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    a_sorted = _degree_sorted(g, a_list, b_list)
    b_sorted = _degree_sorted(g, b_list, a_list)
    fractions = (2, 4)
    a_extremes = []
    for f in fractions:
        size = max(min_a, len(a_sorted) // f)
        a_extremes += [tuple(sorted(a_sorted[:size])), tuple(sorted(a_sorted[-size:]))]
    b_extremes = []
    for f in fractions:
        size = max(min_b, len(b_sorted) // f)
        b_extremes += [tuple(sorted(b_sorted[:size])), tuple(sorted(b_sorted[-size:]))]
    for sa in a_extremes:
        for sb in b_extremes:
            candidates.append((sa, sb))

    rng = np_rng(seed, "regular-pair-audit")
    for _ in range(max(0, sample_budget)):
        ka = int(rng.integers(min_a, len(a_list) + 1))
        kb = int(rng.integers(min_b, len(b_list) + 1))
        sa = tuple(sorted(rng.choice(a_list, size=ka, replace=False).tolist()))
        sb = tuple(sorted(rng.choice(b_list, size=kb, replace=False).tolist()))
        candidates.append((sa, sb))

    worst = 0.0
    witness = None
    for sa, sb in candidates:
        deviation = abs(pair_density(g, sa, sb) - base)
        if deviation > worst:
            worst = deviation
            witness = (sa, sb)
    if worst <= epsilon:
        witness = None
    return RegularityAudit(epsilon=epsilon, base_density=base,
                           worst_deviation=worst, witness=witness,
                           samples=len(candidates))


def good_vertices(g: Graph, i_side: Sequence[int],
                  targets: Sequence[tuple[Sequence[int], Sequence[int]]],
                  epsilon: float) -> list[int]:
    """Vertices of I whose neighbor count into every chosen subset J' matches
    the pair density of (I, J) within epsilon, scaled by |J'|; every target
    is checked, whether or not a vertex of I reaches it."""
    i_ids = vertex_ids(g.n, sorted(set(i_side)))
    good = np.ones(len(i_ids), dtype=bool)
    for j_side, j_sub in targets:
        dens = pair_density(g, i_side, j_side)
        j_sub_set = set(j_sub)
        if len(j_sub_set) < epsilon * len(set(j_side)):
            raise TooSmallError("target subset below the epsilon fraction")
        hits = g.neighbor_counts(j_sub_set)[i_ids]
        lo = (dens - epsilon) * len(j_sub_set)
        hi = (dens + epsilon) * len(j_sub_set)
        good &= (lo - 1e-12 <= hits) & (hits <= hi + 1e-12)
    return i_ids[good].tolist()
