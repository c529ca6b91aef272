import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from imforge import generators
from imforge.errors import BadModulusError, ParityError, ParseError
from imforge.generators import load_graph, paley, random_regular, save_graph
from imforge.graphs import format_edge_list
from imforge.spectral import adjacency_spectrum

from helpers import complete, cycle


def test_random_regular_10_3():
    g = random_regular(10, 3, seed=7)
    assert g.degrees() == [3] * 10
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


# Edge-list digests of hosts drawn when each round shuffled its stubs with
# random.Random.shuffle; the numpy shuffle must reproduce every host
# exactly.  (8, 3, 0) gets stuck twice before an attempt succeeds; d > n/2
# takes the complement path; (2000, 600, 7) shuffles 1.2M stubs, and the
# last four are the benchmark's hosts.
@pytest.mark.parametrize("n, d, seed, digest", [
    (50, 4, 0, "7ee898df0df7a9c9"),
    (200, 7, 3, "a336f8b72e2c9d24"),
    (1000, 16, 2, "817323200e5a94bd"),
    (8, 3, 0, "320ab60eb074b914"),
    (14, 6, 0, "35163d3efa373627"),
    (100, 60, 5, "4dd0b8ee82a0f5cc"),
    (30, 27, 4, "cbedb7b356c41f5c"),
    (2000, 600, 7, "174ea45c366d5ccc"),
    (5000, 60, 11, "c46347c5e9153cd0"),
    (4096, 16, 8, "4b72094b048531f0"),
    (20000, 16, 8, "1cb38127ed39d4d4"),
    (2048, 16, 8, "feeb9813b26695a8"),
])
def test_random_regular_hosts_pinned(n, d, seed, digest):
    g = random_regular(n, d, seed=seed)
    assert hashlib.sha256(format_edge_list(g).encode()).hexdigest()[:16] == digest


# every bound of one bit length, both sides of each power of two
SHUFFLE_SIZES = [*range(71), *(2**k + e for k in range(1, 19) for e in (-1, 0, 1))]


def numpy_shuffle(words, size, dtype=np.int32):
    return generators._shuffle_order(size, words, dtype).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_shuffle_matches_random_shuffle(seed):
    for size in SHUFFLE_SIZES:
        expected = list(range(size))
        random.Random(seed).shuffle(expected)
        assert numpy_shuffle(generators._Words(random.Random(seed)), size) == expected, size


@pytest.mark.parametrize("size, seed", [(300_000, 5), (1_200_000, 6), (1_200_000, 7)])
def test_shuffle_matches_random_shuffle_large(size, seed):
    expected = list(range(size))
    random.Random(seed).shuffle(expected)
    assert numpy_shuffle(generators._Words(random.Random(seed)), size) == expected


def test_shuffle_int64_orders():
    expected = list(range(5000))
    random.Random(3).shuffle(expected)
    assert numpy_shuffle(generators._Words(random.Random(3)), 5000, np.int64) == expected


@pytest.mark.parametrize("first, second", [(70, 3), (1000, 64), (2**16 + 1, 2**12), (0, 1)])
def test_shuffles_share_one_word_stream(first, second):
    """Back-to-back shuffles on one stream use exactly the words that two
    ``random.Random.shuffle`` calls use: read-ahead words are neither
    dropped nor used twice."""
    rng = random.Random(11)
    words = generators._Words(random.Random(11))
    for size in (first, second):
        expected = list(range(size))
        rng.shuffle(expected)
        assert numpy_shuffle(words, size) == expected
    assert words.peek(3).tolist() == [rng.getrandbits(32) for _ in range(3)]


def test_words_follow_getrandbits():
    rng = random.Random(2024)
    rng.random()  # start mid-block
    words = generators._Words(rng)
    got = np.concatenate([words.peek(700), words.peek(2000)[700:]]).tolist()
    assert got == [rng.getrandbits(32) for _ in range(2000)]


@pytest.mark.parametrize("n, d, seed, limit_mib", [(20000, 16, 8, 15.6), (5000, 60, 11, 14.1)])
def test_random_regular_peak_memory(n, d, seed, limit_mib):
    """The shuffle keeps its arrays int32 and draws words in chunks; the
    limits are the peaks of the pure-Python shuffle (15.55 and 14.13 MiB),
    rounded to 0.1 MiB."""
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

    def recorded(n, d, rng):
        attempts.append(pairing(n, d, rng))
        return attempts[-1]

    monkeypatch.setattr(generators, "_pairing_attempt", recorded)
    g = random_regular(8, 3, seed=0)
    assert [a is None for a in attempts] == [True, True, False]
    assert g.degrees() == [3] * 8


def test_random_regular_high_degree_via_complement():
    g = random_regular(12, 9, seed=3)
    assert g.degrees() == [9] * 12


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
    assert g.degrees() == [6] * 13
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
