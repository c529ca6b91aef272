"""Graph sources: random regular graphs, quadratic-residue graphs, files.

Random regular generation uses the stub-pairing model with the usual repair
loop (collided stubs go back into the pot and are reshuffled); for degrees
above n/2 the complement is generated instead.  Everything is a pure
function of its arguments and the seed.

Each round orders its k stubs by k raw 64-bit words of one PCG64 stream
(``util.raw_order``), seeded by ``derive_seed(seed, "random-regular:n:d")``,
with ties broken by position.  NumPy keeps a bit generator's raw stream
stable across releases (NEP 19), so the hosts depend on that stream and on
nothing in ``Generator`` or CPython's ``random``.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import BadModulusError, GenerationFailedError, ParityError
from .graphs import Graph, build_graph, format_edge_list, parse_edge_list
from .util import derive_seed, raw_order, read_ascii


def _pairing_attempt(n: int, d: int, bits: np.random.PCG64) -> np.ndarray | None:
    """One pairing-model attempt: the edges as an (m, 2) array, or None
    when stuck.

    Each round puts the stubs in ``raw_order`` and pairs them off.  A pair,
    ordered (min, max), is placed unless it is a loop, an edge already
    placed, or a repeat of an earlier pair of the round; the rejected pairs
    are the next round's stubs, in order.
    """
    # placed edges as sorted keys u * n + v, ending in a sentinel above any key
    placed = np.array([np.iinfo(np.int64).max])
    dtype = np.int32 if n * d < 2**31 else np.int64
    stubs = np.tile(np.arange(n, dtype=dtype), d)
    while len(stubs):
        pairs = stubs[raw_order(len(stubs), bits)].reshape(-1, 2)
        pairs.sort(axis=1)
        keys = pairs[:, 0].astype(np.int64) * n + pairs[:, 1]
        # each key's first occurrence: the least index in its run of the sort
        order = np.argsort(keys)
        ordered = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        first = np.zeros(len(keys), dtype=bool)
        first[np.minimum.reduceat(order, starts)] = True
        ok = first & (pairs[:, 0] != pairs[:, 1]) & (placed[np.searchsorted(placed, keys)] != keys)
        if not ok.any():
            # no progress is possible iff every pair of distinct leftovers collides
            left = np.unique(pairs).astype(np.int64)
            a, b = np.triu_indices(len(left), 1)
            cand = left[a] * n + left[b]
            if (placed[np.searchsorted(placed, cand)] == cand).all():
                return None
        new = np.sort(keys[ok])
        placed = np.insert(placed, np.searchsorted(placed, new), new)
        stubs = pairs[~ok].ravel()
    return np.column_stack(np.divmod(placed[:-1], n))


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Uniform-ish simple d-regular graph on n vertices, deterministic in seed."""
    if not (0 < d < n):
        raise ParityError(f"need 0 < d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ParityError(f"n*d must be even, got n={n}, d={d}")
    if d > n // 2:
        comp = random_regular(n, n - 1 - d, seed) if n - 1 - d > 0 else build_graph(n, [])
        return comp.complement()
    bits = np.random.PCG64(derive_seed(seed, f"random-regular:{n}:{d}"))
    budget = max(100, 100 * n // max(1, d))
    for _ in range(budget):
        edges = _pairing_attempt(n, d, bits)
        if edges is not None:
            return build_graph(n, edges)
    raise GenerationFailedError(f"no simple {d}-regular graph found in {budget} attempts")


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    # deterministic Miller-Rabin for 64-bit inputs
    d, r = q - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % q == 0:
            continue
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(r - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def paley(q: int) -> Graph:
    """Quadratic-residue graph on a prime q = 1 (mod 4): a ~ b iff a - b is
    a nonzero square mod q.  Degree (q-1)/2."""
    if not _is_prime(q) or q % 4 != 1:
        raise BadModulusError(f"q={q} is not a prime congruent to 1 mod 4")
    square = np.zeros(q, dtype=bool)
    square[np.arange(1, q, dtype=np.int64) ** 2 % q] = True
    a, b = np.triu_indices(q, 1)
    keep = square[(b - a) % q]
    edges = np.column_stack((a[keep], b[keep]))
    return build_graph(q, edges)


def load_graph(path: str | os.PathLike) -> Graph:
    """Read a graph from the canonical edge-list text format."""
    return parse_edge_list(read_ascii(path))


def save_graph(g: Graph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_edge_list(g))
