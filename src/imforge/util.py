"""Seed derivation and the raw-word draws, plus the pipeline modes, the
eta domain check, the branch-set peel, and the ASCII file reader shared by
the loaders.

A single 64-bit root seed reproduces a whole run: every stochastic stage
derives its own stream seed by hashing the root together with a fixed label,
so adding a stage never perturbs the streams of existing ones.
Every certificate draw reads raw PCG64 words (``raw_order``, ``uniforms``),
which NumPy keeps stable across releases (NEP 19), or the nibble's
SplitMix64 counter; none calls a ``Generator`` method or CPython ``random``.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Container

import numpy as np

from .errors import DomainError, ParseError
from .graphs import normalize_edge

MASK64 = (1 << 64) - 1

# pipeline modes: strict raises on any failed hypothesis, best-effort peels
# to the largest branch set it connected completely
STRICT = "strict"
BEST_EFFORT = "best-effort"


def check_eta(eta: float) -> None:
    """Every pipeline's slack parameter lies strictly between 0 and 1."""
    if not 0 < eta < 1:
        raise DomainError(f"need 0 < eta < 1, got eta={eta}")


def derive_seed(root: int, label: str) -> int:
    """Derive a 64-bit stream seed from a root seed and a label."""
    digest = hashlib.sha256(f"{root & MASK64}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def np_rng(root: int, label: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(root, label))


def raw_order(k: int, bits: np.random.PCG64) -> np.ndarray:
    """Positions 0..k-1 sorted by the next k raw words of ``bits``, ties to
    the lower position: each word's low k.bit_length() bits are replaced by
    its position, so the keys are distinct and any sort gives one order."""
    low = np.uint64((1 << k.bit_length()) - 1)
    keys = bits.random_raw(k) & ~low
    keys |= np.arange(k, dtype=np.uint64)
    keys.sort()
    return keys & low


def uniforms(root: int, label: str, shape: int | tuple[int, ...]) -> np.ndarray:
    """Doubles in [0, 1), each the top 53 bits of one raw PCG64 word times
    2^-53: the values ``np_rng(root, label)`` gives for ``random(shape)``."""
    words = np.random.PCG64(derive_seed(root, label)).random_raw(shape)
    return (words >> np.uint64(11)) * 2.0 ** -53


def read_ascii(path: str | os.PathLike) -> str:
    """A graph or certificate file's text; a byte outside ASCII raises
    ``ParseError`` with its line number."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ParseError(line, f"non-ASCII byte 0x{data[err.start]:02x}") from None


def peel_to_complete(vertices: list[int], connected: Container[tuple[int, int]]) -> list[int]:
    """Largest-effort subset whose pairs are all in ``connected``.

    Greedy peeling: repeatedly drop the vertex with the most missing pairs
    (ties to the higher id, so low ids survive), until no pair is missing.
    ``connected`` holds pairs (a, b) with a < b, such as a path map's keys.
    """
    alive = list(vertices)
    while True:
        missing: dict[int, int] = {v: 0 for v in alive}
        bad = 0
        for i, u in enumerate(alive):
            for v in alive[i + 1:]:
                if normalize_edge(u, v) not in connected:
                    missing[u] += 1
                    missing[v] += 1
                    bad += 1
        if bad == 0:
            return alive
        worst = max(alive, key=lambda v: (missing[v], v))
        alive.remove(worst)
