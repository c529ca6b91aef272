"""Balanced clique subdivisions: disjoint stars, a sampled leaf reservoir,
a robustness certificate for the expansion property behind fixed-length
routing, and vertex-disjoint connections of one exact length.

Stars come from ``expanders.pack_stars`` in id order as one ``list[Star]``,
which the reservoir's retry loop ``sample_reservoir`` reads and the pool
trim that caps the order deletes from.  Both report a shortfall to the
pipeline, which raises on it in strict mode and carries on with what it
got in best-effort mode.  The S' load bound beta = 2*alpha - 1 is derived
from the variant's alpha.  ``_route_all`` is the fixed-length routing
engine: it grows its level trees with the shared breadth-first kernel
``expanders.bfs_tree``, and walks them back with ``expanders.path_to``, in
a ``GraphView`` of the host minus what is taken; it reports the pairs it
could not route, and the pipeline raises on the first of them in strict
mode after routing.

Every connecting path is star edge + fixed-length path + star edge, so the
certificate is balanced: all paths share one total length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .certify import SUBDIVISION, EmbeddingCertificate
from .errors import (
    InsufficientStarsError,
    PreconditionFailedError,
    RoutingFailedError,
    SampleFailedError,
)
from .expanders import Star, bfs_tree, pack_stars, path_to
from .graphs import Graph, GraphView, vertex_ids
from .spectral import SpectralReport, check_regular
from .util import BEST_EFFORT, STRICT, check_eta, derive_seed, peel_to_complete, uniforms

VARIANT_FIXED = "d0-3"
VARIANT_POWER = "d0-power"
RESERVOIR_RETRIES = 10  # reservoir draws before best-effort keeps its best
WINDOW_EPS = 0.05  # strict spectral window: d <= eta * n ** (1/2 - WINDOW_EPS)


def pack_disjoint_stars(g: Graph, report: SpectralReport, eta: float,
                        t: int) -> list[Star]:
    """Greedily pack up to t vertex-disjoint stars with floor((1-eta/2)d)
    leaves each, centers in ascending id order; returns the stars found,
    which may be fewer than t.  Centers become branch vertices, leaves the
    attachment points for the fixed-length connections."""
    size = max(1, math.floor((1 - eta / 2) * report.d))
    return pack_stars(g, range(g.n), t, size, size)


def draw_reservoir(g: Graph, centers: Iterable[int], eta: float, seed: int) -> np.ndarray:
    """One Bernoulli(1 - eta/4) draw over the non-center vertices, in
    ascending id order, by ``uniforms(seed, "reservoir", ...)``, as a vertex mask."""
    blocked = np.zeros(g.n, dtype=bool)
    blocked[vertex_ids(g.n, centers)] = True
    pool = np.flatnonzero(~blocked)
    sample = np.zeros(g.n, dtype=bool)
    sample[pool[uniforms(seed, "reservoir", len(pool)) < (1 - eta / 4)]] = True
    return sample


def reservoir_conditions(g: Graph, stars: Sequence[Star], eta: float,
                         sample: np.ndarray) -> tuple[bool, bool, dict]:
    """Re-verify the two acceptance events in full for a sample mask:
    enough sampled leaves per star, and enough neighbors outside centers
    and sample for every vertex."""
    d = max(len(g.neighbors(stars[0].center)), 1) if stars else 1
    need_leaves = (1 - eta) * d
    leaf_ok = all(np.count_nonzero(sample[list(s.leaves)]) >= need_leaves for s in stars)
    need_outside = eta * eta * d / 8
    blocked = sample.copy()
    blocked[[s.center for s in stars]] = True
    outside = g.neighbor_counts(np.flatnonzero(~blocked))
    worst_outside = int(outside.min()) if g.n else math.inf
    outside_ok = bool((outside >= need_outside).all())
    return leaf_ok, outside_ok, {
        "need_leaves": need_leaves,
        "need_outside": need_outside,
        "worst_outside": worst_outside,
    }


def sample_reservoir(g: Graph, stars: Sequence[Star], eta: float,
                     seed: int) -> tuple[set[int], int, bool]:
    """Retry Bernoulli draws, up to RESERVOIR_RETRIES, until both acceptance
    events hold.

    Returns (sample, draws, accepted), the sample as a vertex set.  When no
    draw is accepted the sample is the draw that met the leaf event with
    the most sampled leaves, or, when none met it, one extra fallback draw.
    """
    centers = [s.center for s in stars]
    leaves = [leaf for s in stars for leaf in s.leaves]
    best_sample, best_count = None, -1
    for attempt in range(RESERVOIR_RETRIES):
        sample = draw_reservoir(g, centers, eta,
                                derive_seed(seed, f"reservoir-try:{attempt}"))
        leaf_ok, outside_ok, _ = reservoir_conditions(g, stars, eta, sample)
        if leaf_ok and outside_ok:
            return set(np.flatnonzero(sample).tolist()), attempt + 1, True
        count = np.count_nonzero(sample[leaves])
        if leaf_ok and count > best_count:
            best_sample, best_count = sample, count
    if best_sample is None:
        best_sample = draw_reservoir(g, centers, eta,
                                     derive_seed(seed, "reservoir-fallback"))
    return set(np.flatnonzero(best_sample).tolist()), RESERVOIR_RETRIES, False


@dataclass(frozen=True)
class PAlphaParams:
    """Inputs of the robust-expansion certificate and routing formulas."""

    n0: float
    d0: int
    alpha: float

    def __post_init__(self):
        if not (3 <= self.d0 < self.n0):
            raise PreconditionFailedError(f"need 3 <= d0 < n0, got {self.d0}, {self.n0}")


def p_alpha_certificate(n: int, d: int, lam: float,
                        params: PAlphaParams) -> tuple[bool, float]:
    """Evaluate 1 - alpha > n0(1 + 4 d0)/(2n) + (lambda/d)(1 + sqrt(2 d0));
    returns (pass, margin)."""
    rhs = (params.n0 * (1 + 4 * params.d0)) / (2 * n) \
        + (lam / d) * (1 + math.sqrt(2 * params.d0))
    margin = (1 - params.alpha) - rhs
    return margin > 0, margin


def fixed_path_length(n0: float, d0: int) -> int:
    """Exact connection length 2*ceil(log(n0/16)/log(d0-1)) + 3, guarding
    the ceiling against float error at integer ratios."""
    ratio = math.log(n0 / 16) / math.log(d0 - 1)
    nearest = round(ratio)
    if abs(ratio - nearest) < 1e-9:
        ceil_val = nearest
    else:
        ceil_val = math.ceil(ratio)
    return 2 * ceil_val + 3


def audit_sprime(g: Graph, s_prime: set[int], beta: float) -> tuple[bool, float]:
    """Check |N(x) & S'| <= beta * d(x) for every vertex; returns the pass
    flag and the worst load ratio."""
    deg = np.diff(g.csr()[0])
    live = deg > 0
    loads = g.neighbor_counts(s_prime)[live] / deg[live]
    worst = float(loads.max()) if loads.size else 0.0
    return worst <= beta, worst


def _route_all(g: Graph, pairs: Sequence[tuple[int, int]], s_prime: set[int],
               length: int) -> tuple[dict[tuple[int, int], list[int]], list[tuple[int, int]]]:
    """Vertex-disjoint paths of one exact length between the given pairs.

    Interior vertices avoid S' and all previously used vertices.  Both
    endpoints grow ``bfs_tree`` levels to the fixed depth in the host minus
    S' and the used vertices (the pair excepted), a's also minus b and b's
    minus a's tree, and the top levels are joined by the lexicographically
    first edge; each end walks back to its root by the least-parent rule of
    ``expanders.path_to``, the greatest-parent rule with ``reverse``.  One
    rollback (unroute the previous pair, route this one, re-route the
    other with ``reverse``) is attempted before giving up on a pair.
    ``length`` must be odd and at least 3.  Each path starts at the first
    vertex of its pair.  The pairs that still fail are returned, in the
    order they failed.
    """
    half_depth = (length - 3) // 2 + 1
    used: set[int] = set()
    routed: list[tuple[tuple[int, int], list[int]]] = []
    failed: list[tuple[int, int]] = []

    def route(pair: tuple[int, int], reverse: bool) -> Optional[list[int]]:
        a, b = pair
        free = GraphView(g).minus((s_prime | used) - {a, b})
        view_a = free.minus([b])
        levels_a = list(bfs_tree(view_a, [a], half_depth))
        if len(levels_a) <= half_depth:
            return None
        view_b = free.minus(set().union(*levels_a))
        levels_b = list(bfs_tree(view_b, [b], half_depth))
        if len(levels_b) <= half_depth:
            return None
        for x in sorted(levels_a[-1]):
            y = next((y for y in g.neighbors(x) if y in levels_b[-1]), None)
            if y is not None:
                return path_to(view_a, levels_a, x, reverse) + \
                    path_to(view_b, levels_b, y, reverse)[::-1]
        return None

    def settle(pair: tuple[int, int], path: Optional[list[int]]) -> None:
        if path is None:
            failed.append(pair)
        else:
            routed.append((pair, path))
            used.update(path)

    for pair in pairs:
        path = route(pair, reverse=False)
        if path is None and routed:
            # rollback: free the most recent path, route this pair first,
            # then redo the freed pair with reversed scan order
            prev_pair, prev_path = routed.pop()
            used.difference_update(prev_path)
            settle(pair, route(pair, reverse=False))
            settle(prev_pair, route(prev_pair, reverse=True))
        else:
            settle(pair, path)
    return dict(routed), failed


@dataclass
class SubdivisionDiagnostics:
    length: int
    length_formula: int
    n0: float
    d0: int
    p_alpha_pass: bool
    p_alpha_margin: float
    reservoir_attempts: int
    reservoir_strict: bool
    achieved_order: int
    failed_pairs: int


def variant_params(n: int, eta: float, variant: str) -> tuple[int, float, float]:
    """(d0, n0, alpha) for the chosen parameterization."""
    alpha = 1 - eta * eta / 16
    if variant == VARIANT_FIXED:
        d0 = 3
        n0 = eta * eta * n / 256
    elif variant == VARIANT_POWER:
        d0 = max(3, math.floor(n ** eta))
        n0 = (eta / 8) * n ** (1 - eta)
    else:
        raise PreconditionFailedError(f"unknown variant {variant!r}")
    return d0, n0, alpha


def build_balanced_subdivision(g: Graph, report: SpectralReport, eta: float,
                               seed: int = 0, mode: str = BEST_EFFORT,
                               variant: str = VARIANT_FIXED,
                               ) -> tuple[EmbeddingCertificate, SubdivisionDiagnostics]:
    """Balanced clique subdivision: stars give branch vertices and
    per-pair leaves; leaves of each pair are joined by vertex-disjoint
    paths of one exact length.

    Strict mode enforces the spectral window, the expansion certificate,
    and both reservoir events; best-effort proceeds with the best sample
    it saw and peels branch vertices whose pairs failed to route.
    """
    check_eta(eta)
    check_regular(report, mode)
    n, d, lam = g.n, report.d, report.lam
    d0, n0_formula, alpha = variant_params(n, eta, variant)
    # keep the routing depth usable on small hosts
    n0 = max(n0_formula, 16 * (d0 - 1))
    params = PAlphaParams(n0=n0, d0=d0, alpha=alpha)
    pa_pass, pa_margin = p_alpha_certificate(n, d, lam, params)
    length_formula = fixed_path_length(n0_formula, d0) if n0_formula > 16 else -1
    length = fixed_path_length(n0, d0)

    if mode == STRICT:
        if not (2048 * lam / (eta * eta) < d <= eta * n ** (0.5 - WINDOW_EPS)):
            raise PreconditionFailedError(
                f"spectral window fails: lambda={lam:.3f}, d={d}, n={n}")
        if not pa_pass:
            raise PreconditionFailedError(f"expansion certificate margin {pa_margin:.3g}")

    t_target = math.floor((1 - eta) * d)
    stars = pack_disjoint_stars(g, report, eta, t_target)
    if mode == STRICT and len(stars) < t_target:
        raise InsufficientStarsError(len(stars), t_target)

    sample, attempts, reservoir_strict = sample_reservoir(g, stars, eta, seed)
    if mode == STRICT and not reservoir_strict:
        raise SampleFailedError(RESERVOIR_RETRIES)

    pools = [sorted(set(s.leaves) & sample) for s in stars]
    while len(stars) > 1 and any(len(pool) < len(stars) - 1 for pool in pools):
        worst = min(range(len(stars)), key=lambda i: len(pools[i]))
        del pools[worst], stars[worst]
    centers = [s.center for s in stars]
    t = len(centers)
    # star i's leaf toward star j is pools[i][rank of j among the other stars]
    pair_keys = [(i, j) for i in range(t) for j in range(i + 1, t)]
    leaf_pairs = [(pools[i][j - 1], pools[j][i]) for (i, j) in pair_keys]
    s_prime = set(centers).union(*leaf_pairs)
    sp_ok, sp_load = audit_sprime(g, s_prime, beta=2 * alpha - 1)
    if mode == STRICT and not sp_ok:
        raise PreconditionFailedError(f"S' load {sp_load:.3f} exceeds beta")
    routed, failed = _route_all(g, leaf_pairs, s_prime, length)
    if mode == STRICT and failed:
        raise RoutingFailedError(failed[0])

    # star indices ascend with center ids, so every key below has a < b
    full = {(centers[i], centers[j]): [centers[i], *routed[pair], centers[j]]
            for (i, j), pair in zip(pair_keys, leaf_pairs) if pair in routed}
    branch = peel_to_complete(centers, full) if failed else centers
    # every routed path has exactly `length` edges, plus the two star edges
    cert = EmbeddingCertificate.from_paths(SUBDIVISION, branch, full,
                                           ell=length + 1 if len(branch) > 1 else None)
    diag = SubdivisionDiagnostics(
        length=length, length_formula=length_formula, n0=n0, d0=d0,
        p_alpha_pass=pa_pass, p_alpha_margin=pa_margin,
        reservoir_attempts=attempts, reservoir_strict=reservoir_strict,
        achieved_order=len(branch), failed_pairs=len(failed))
    return cert, diag
