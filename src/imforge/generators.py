"""Graph sources: random regular graphs, quadratic-residue graphs, files.

Random regular generation uses the stub-pairing model with the usual repair
loop (collided stubs go back into the pot and are reshuffled); for degrees
above n/2 the complement is generated instead.  Everything is a pure
function of its arguments and the seed.

Each round's stub shuffle is the Fisher-Yates shuffle on MT19937 32-bit
words that ``random.Random.shuffle`` makes, computed in numpy: the words
come from a copy of the state of ``random.Random(derive_seed(...))``, and
the permutation is the one ``shuffle`` would make from them.  So the hosts
depend on CPython's ``random.Random(int)`` seeding only, not on its
``shuffle`` code.
"""

from __future__ import annotations

import os
import random

import numpy as np

from .errors import BadModulusError, GenerationFailedError, ParityError
from .graphs import Graph, build_graph, format_edge_list, parse_edge_list
from .util import read_ascii, stream_rng


class _Words:
    """The 32-bit Mersenne Twister words a ``random.Random`` would draw next,
    from a copy of its state, read ahead in blocks.

    ``peek(count)`` shows the next ``count`` words without using them and
    ``skip(count)`` uses them up, so words read ahead but not needed stay
    for the next shuffle.
    """

    _BLOCK = 1 << 14

    def __init__(self, rng: random.Random):
        state = rng.getstate()[1]  # 624 key words, then the position in them
        self._bits = np.random.MT19937(0)
        self._bits.state = {"bit_generator": "MT19937",
                            "state": {"key": np.array(state[:-1], dtype=np.uint32),
                                      "pos": state[-1]}}
        self._buf = np.empty(0, dtype=np.uint32)

    def peek(self, count: int) -> np.ndarray:
        short = count - len(self._buf)
        if short > 0:
            fresh = self._bits.random_raw(max(short, self._BLOCK)).astype(np.uint32)
            self._buf = np.concatenate([self._buf, fresh])
        return self._buf[:count]

    def skip(self, count: int) -> None:
        self._buf = self._buf[count:]


def _swap_targets(size: int, words: _Words, dtype) -> np.ndarray:
    """The j of each Fisher-Yates step i = size-1..1, as ``random.Random.shuffle``
    draws them: j = w >> (32 - k), k = (i+1).bit_length(), from the first
    word w with j <= i.  Entry 0 is unused.

    Bounds of one bit length are drawn a chunk of words at a time.  A word
    at offset t of a chunk whose first bound is b comes after at most t
    accepted words, so j >= b rejects it and j < b - t accepts it whatever
    came before; only the words in between are walked in order.  Bit
    lengths below 7, and all of a shuffle of at most 65 items, take a plain
    loop.
    """
    j = np.zeros(size, dtype=dtype)
    i = size - 1
    while i >= 64:
        k = (i + 1).bit_length()
        shift, last = 32 - k, (1 << (k - 1)) - 1
        while i >= last:
            left = i - last + 1  # steps with this bit length still to draw
            count = min(max(64, 1 << (k - 5)), 2 * left + 16)
            r = (words.peek(count) >> shift).astype(dtype)
            bound = i + 1
            ok = r < bound - np.arange(count, dtype=dtype)
            unsure = np.flatnonzero((r < bound) & ~ok)
            if unsure.size:
                before = np.cumsum(ok) - ok  # sure acceptances before each word
                extra = 0
                for t, a, v in zip(unsure.tolist(), before[unsure].tolist(), r[unsure].tolist()):
                    if v < bound - a - extra:
                        ok[t] = True
                        extra += 1
            taken = np.flatnonzero(ok)[:left]
            j[i:i - len(taken):-1] = r[taken]
            i -= len(taken)
            words.skip(int(taken[-1]) + 1 if len(taken) == left else count)
    ws, at = [], 0
    for i in range(i, 0, -1):
        shift = 32 - (i + 1).bit_length()
        while True:
            if at == len(ws):
                words.skip(at)
                ws, at = words.peek(128).tolist(), 0
            v = ws[at] >> shift
            at += 1
            if v <= i:
                break
        j[i] = v
    words.skip(at)
    return j


def _shuffle_order(size: int, words: _Words, dtype) -> np.ndarray:
    """The order x[order] that ``random.Random.shuffle`` leaves a sequence x
    of this size in, from the same words.

    Step i swaps positions i and j_i, and position i is final after it, so
    it ends with what sat at j_i just before step i.  That is root(i') for
    the first step i' > i with the same j, else the original x[j_i], where
    root(p), what sits at p just before step p, is root of the first step
    i'' > p with j = p, else x[p].  One sort groups the steps by j; pointer
    jumping resolves every root.  The array of j values becomes the order.
    """
    if size < 2:
        return np.arange(size, dtype=dtype)
    j = _swap_targets(size, words, dtype)
    # the steps sorted by j, then by i, packed as j << bits | i (size < 2**32,
    # as one word per draw is)
    bits = size.bit_length()
    keys = j[1:].astype(np.uint64) << bits
    keys |= np.arange(1, size, dtype=np.uint64)
    keys.sort()
    steps = (keys & ((1 << bits) - 1)).astype(dtype)
    target = (keys >> bits).astype(dtype)
    del keys
    head = np.empty(size - 1, dtype=bool)  # where a run of equal j starts
    head[0] = True
    np.not_equal(target[1:], target[:-1], out=head[1:])
    later = np.full(size, -1, dtype=dtype)  # the first step i' > i with j_i' = j_i
    later[steps[:-1]] = steps[1:]
    later[steps[:-1][head[1:]]] = -1
    first, at = steps[head], target[head]
    del steps, target, head
    # step p itself may have j = p; the step that fills p before it is the next one
    own = first == at
    first[own] = later[first[own]]
    root = np.arange(size, dtype=dtype)
    filled = first >= 0
    root[at[filled]] = first[filled]
    del first, at, own, filled
    live = np.flatnonzero(root != np.arange(size, dtype=dtype)).astype(dtype)
    while live.size:
        up = root[live]
        jumped = root[up]
        root[live] = jumped
        live = live[jumped != up]
    # j becomes the order: root(i') when a later step i' shares j_i, else j_i
    np.copyto(j, root[later], where=later >= 0)
    j[0] = root[0]
    return j


def _pairing_attempt(n: int, d: int, rng: _Words) -> np.ndarray | None:
    """One pairing-model attempt: the edges as an (m, 2) array, or None
    when stuck.

    Each round shuffles the stubs and pairs them off in order.  A pair,
    ordered (min, max), is placed unless it is a loop, an edge already
    placed, or a repeat of an earlier pair of the round; the rejected pairs
    are the next round's stubs, in order.
    """
    # placed edges as sorted keys u * n + v, ending in a sentinel above any key
    placed = np.array([np.iinfo(np.int64).max])
    dtype = np.int32 if n * d < 2**31 else np.int64
    stubs = np.tile(np.arange(n, dtype=dtype), d)
    while len(stubs):
        pairs = stubs[_shuffle_order(len(stubs), rng, dtype)].reshape(-1, 2)
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
    rng = _Words(stream_rng(seed, f"random-regular:{n}:{d}"))
    budget = max(100, 100 * n // max(1, d))
    for _ in range(budget):
        edges = _pairing_attempt(n, d, rng)
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
