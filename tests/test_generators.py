import hashlib
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from imforge import generators
from imforge.errors import BadModulusError, ParityError, ParseError
from imforge.generators import load_graph, paley, random_regular, save_graph
from imforge.graphs import format_edge_list
from imforge.spectral import adjacency_spectrum
from imforge.util import derive_seed, np_rng, raw_order, uniforms

from helpers import complete, cycle, degrees


def test_random_regular_10_3():
    g = random_regular(10, 3, seed=7)
    assert degrees(g) == [3] * 10
    assert g.m == 15


def test_random_regular_k4():
    assert random_regular(4, 3, seed=1) == complete(4)


def test_random_regular_parity():
    with pytest.raises(ParityError):
        random_regular(5, 3, seed=0)
    with pytest.raises(ParityError):
        random_regular(4, 4, seed=0)


def test_random_regular_deterministic():
    a = random_regular(60, 5, seed=42)
    b = random_regular(60, 5, seed=42)
    c = random_regular(60, 5, seed=43)
    assert a == b
    assert a != c


# Edge-list digests of the hosts whose rounds take their stubs in the
# order of raw PCG64 words; a change to the stream, the round order or the
# repair rule shows here.  (8, 3, 0) gets stuck once before an attempt
# succeeds; d > n/2 takes the complement path; (2000, 600, 7) orders 1.2M
# stubs, and the last four are the benchmark's hosts.
@pytest.mark.parametrize("n, d, seed, digest", [
    (50, 4, 0, "1af53b46ae004606"),
    (200, 7, 3, "dc536fdb01b9aa74"),
    (1000, 16, 2, "8742881e53d7082e"),
    (8, 3, 0, "bd93224cbe062086"),
    (14, 6, 0, "9e85891d9d08c7fb"),
    (100, 60, 5, "042df01cf6ed0be4"),
    (30, 27, 4, "27a0706443ec3c7b"),
    (2000, 600, 7, "afd9c89cfd0cea4d"),
    (5000, 60, 11, "5a2ca4ea74321624"),
    (4096, 16, 8, "183e35e49ddb76bf"),
    (20000, 16, 8, "721f19d3ab7a3a31"),
    (2048, 16, 8, "7ffed0fa2be6467c"),
])
def test_random_regular_hosts_pinned(n, d, seed, digest):
    g = random_regular(n, d, seed=seed)
    assert hashlib.sha256(format_edge_list(g).encode()).hexdigest()[:16] == digest


def reference_attempt(n, d, bits):
    """One pairing-model attempt in plain Python: the sorted edge list, or
    None when stuck.  A round of k stubs reads the next k raw words and
    takes the stubs in order of (word >> k.bit_length(), position)."""
    placed = set()
    stubs = [v for _ in range(d) for v in range(n)]
    while stubs:
        k = len(stubs)
        words = bits.random_raw(k).tolist()
        order = sorted(range(k), key=lambda i: (words[i] >> k.bit_length(), i))
        seen, new, left = set(), set(), []
        for i in range(0, k, 2):
            pair = tuple(sorted((stubs[order[i]], stubs[order[i + 1]])))
            if pair[0] != pair[1] and pair not in placed and pair not in seen:
                new.add(pair)
            else:
                left += pair
            seen.add(pair)
        if not new and all(p in placed for p in combinations(sorted(set(left)), 2)):
            return None
        placed |= new
        stubs = left
    return sorted(placed)


def reference_random_regular(n, d, seed):
    """The edges and the stuck flag of each attempt, or the complement of
    the (n, n - 1 - d) host's edges for d > n/2."""
    if d > n // 2:
        edges, attempts = reference_random_regular(n, n - 1 - d, seed)
        return sorted(set(combinations(range(n), 2)) - set(edges)), attempts
    bits = np.random.PCG64(derive_seed(seed, f"random-regular:{n}:{d}"))
    attempts = []
    while True:
        edges = reference_attempt(n, d, bits)
        attempts.append(edges is None)
        if edges is not None:
            return edges, attempts


# (8, 3, 0) and (2048, 16, 7) get stuck before they succeed; (14, 8, 0) and
# (100, 60, 5) take the complement path; (2048, 16, 8) is a benchmark host
@pytest.mark.parametrize("n, d, seed, stuck", [
    (8, 3, 0, [True, False]),
    (14, 8, 0, None),
    (100, 60, 5, None),
    (2048, 16, 8, [False]),
    (2048, 16, 7, [True, True, True, False]),
])
def test_random_regular_follows_the_raw_word_order(n, d, seed, stuck):
    edges, attempts = reference_random_regular(n, d, seed)
    assert random_regular(n, d, seed=seed).edges() == edges
    if stuck is not None:
        assert attempts == stuck


class FixedWords:
    def __init__(self, words):
        self.words = words

    def random_raw(self, k):
        assert k == len(self.words)
        return np.array(self.words, dtype=np.uint64)


def test_round_order_breaks_ties_by_position():
    # k = 4 drops the low 3 bits: words 0, 1 and 3 tie, so they keep their order
    top = 1 << 63
    order = raw_order(4, FixedWords([top | 7, top | 1, 5, top]))
    assert order.tolist() == [2, 0, 1, 3]


# seeds on both sides of 2**63, and the shapes of a reservoir and a k3 host
@pytest.mark.parametrize("root", [0, 21, 2 ** 63 - 1, 2 ** 63 + 12345])
@pytest.mark.parametrize("shape", [1, 300, (7, 130)])
def test_uniforms_are_the_top_53_bits_of_raw_words(root, shape):
    got = uniforms(root, "reservoir", shape)
    words = np.random.PCG64(derive_seed(root, "reservoir")).random_raw(shape)
    assert got.ravel().tolist() == [(w >> 11) * 2 ** -53 for w in words.ravel().tolist()]
    # the same bits as the Generator method the draws replaced
    assert np.array_equal(got, np_rng(root, "reservoir").random(shape))


@pytest.mark.parametrize("n, d, seed, limit_mib", [(20000, 16, 8, 15.6), (5000, 60, 11, 14.1)])
def test_random_regular_peak_memory(n, d, seed, limit_mib):
    """The stubs stay int32 and each round holds one uint64 key per stub.
    The limits are ceilings: the peaks of the former pure-Python shuffle
    (15.55 and 14.13 MiB), rounded to 0.1 MiB; the raw-word order peaks at
    14.96 and 13.97 MiB."""
    random_regular(n, d, seed=seed)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        random_regular(n, d, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= limit_mib


def test_random_regular_retries_stuck_attempts(monkeypatch):
    attempts = []
    pairing = generators._pairing_attempt

    def recorded(n, d, bits):
        attempts.append(pairing(n, d, bits))
        return attempts[-1]

    monkeypatch.setattr(generators, "_pairing_attempt", recorded)
    g = random_regular(8, 3, seed=0)
    assert [a is None for a in attempts] == [True, False]
    assert degrees(g) == [3] * 8


def test_random_regular_high_degree_via_complement():
    g = random_regular(12, 9, seed=3)
    assert degrees(g) == [9] * 12


def test_random_regular_spectral_gap():
    # random regular graphs have lambda around 2 sqrt(d-1); allow 1.5x slack
    for seed in range(5):
        g = random_regular(300, 8, seed=seed)
        r = adjacency_spectrum(g)
        assert r.lam < 1.5 * 2 * math.sqrt(7)


def test_paley_5_is_c5():
    assert paley(5) == cycle(5)


@pytest.mark.parametrize("q, digest", [
    (13, "b43e5bafcd1671e9"),
    (401, "44cbc459178be867"),
    (1009, "709110df9dad8ad6"),
])
def test_paley_pinned(q, digest):
    assert hashlib.sha256(format_edge_list(paley(q)).encode()).hexdigest()[:16] == digest


def test_paley_13_spectrum():
    g = paley(13)
    assert degrees(g) == [6] * 13
    r = adjacency_spectrum(g)
    assert abs(r.lam - (1 + math.sqrt(13)) / 2) < 1e-6


def test_paley_self_complementary_size():
    g = paley(13)
    assert g.m == 13 * 6 // 2
    assert g.complement().m == g.m


def test_paley_bad_modulus():
    with pytest.raises(BadModulusError):
        paley(7)
    with pytest.raises(BadModulusError):
        paley(9)  # not prime


def test_save_load_round_trip(tmp_path):
    g = random_regular(20, 3, seed=11)
    p = tmp_path / "g.txt"
    save_graph(g, p)
    assert load_graph(p) == g


def test_load_parse_error(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 1\n0 5\n")
    with pytest.raises(ParseError) as err:
        load_graph(p)
    assert err.value.line == 2


def test_paley_cospectral_with_complement():
    # self-complementarity up to isomorphism implies equal spectra
    g = paley(13)
    r = adjacency_spectrum(g)
    rc = adjacency_spectrum(g.complement())
    assert np.allclose(r.spectrum, rc.spectrum, atol=1e-8)
