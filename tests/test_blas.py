"""Releasing OpenBLAS's idle workers after the threaded calls.

The dense eigensolve and the length-4 gadget's products run OpenBLAS on
several threads, whose workers then spin for about 0.1 s.  After either
call the process must burn no more CPU than its wall time while it runs
pure Python.  The iterative eigensolve of a regular host uses no threaded
BLAS, so across it CPU time stays at wall time.  The release must not
change a result, and it must do nothing while another Python thread is
alive or where no OpenBLAS is found.
"""

import threading
from time import perf_counter, process_time

import numpy as np
import pytest

from imforge import blas
from imforge.gadgets import bipartite_k3_immersion
from imforge.generators import paley, random_regular
from imforge.graphs import build_graph
from imforge.spectral import adjacency_spectrum

needs_openblas = pytest.mark.skipif(not blas._shutdowns(),
                                    reason="no OpenBLAS with blas_thread_shutdown_ found")


def busy_cpu_ratio(seconds: float = 0.2) -> float:
    """Process CPU time over wall time across a pure-Python busy loop."""
    t0, c0 = perf_counter(), process_time()
    while perf_counter() - t0 < seconds:
        pass
    return (process_time() - c0) / (perf_counter() - t0)


def bipartite_host(n1, n2, density, seed):
    mask = np.random.default_rng(seed).random((n1, n2)) < density
    return build_graph(n1 + n2, np.argwhere(mask) + (0, n1))


def k3(g, n1, n2):
    return bipartite_k3_immersion(g, range(n1), range(n1, n1 + n2), p=4, seed=1).to_json()


def results():
    """Spectra (dense and iterative) and a k3 certificate."""
    out = [adjacency_spectrum(g) for g in (paley(401), random_regular(4200, 6, seed=2))]
    return ([r.to_json() for r in out], out[0].spectrum.tobytes(),
            k3(bipartite_host(128, 1024, 0.5, 3), 128, 1024))


@needs_openblas
def test_no_worker_spins_after_the_eigensolve():
    adjacency_spectrum(paley(401))
    assert busy_cpu_ratio() <= 1.15


def test_the_iterative_eigensolve_runs_on_one_thread():
    # the deflated Lanczos run makes no threaded BLAS call; ARPACK's
    # threaded dgemv read 1.5-1.8x CPU over wall on a 2-core x86-64 VM
    g = random_regular(20000, 16, 8)
    blas.release()
    t0, c0 = perf_counter(), process_time()
    adjacency_spectrum(g)
    assert process_time() - c0 <= 1.15 * (perf_counter() - t0)


@needs_openblas
def test_no_worker_spins_after_the_k3_products():
    k3(bipartite_host(128, 1024, 0.5, 3), 128, 1024)
    assert busy_cpu_ratio() <= 1.15


def test_release_waits_while_a_second_thread_is_alive(monkeypatch):
    expect = results()
    calls = []
    monkeypatch.setattr(blas, "_shutdowns", lambda: (lambda: calls.append(1),))
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert results() == expect
    finally:
        done.set()
        other.join()
    assert calls == []
    blas.release()
    assert calls == [1]


def test_release_without_a_library_changes_nothing(monkeypatch):
    expect = results()
    monkeypatch.setattr(blas, "_shutdowns", lambda: ())
    assert results() == expect


def test_no_library_is_found_where_none_loads(monkeypatch):
    def fail(path):
        raise OSError(path)

    monkeypatch.setattr(blas.ctypes, "CDLL", fail)
    assert blas._shutdowns.__wrapped__() == ()


def test_concurrent_spectra_match_sequential_ones():
    hosts = [paley(401), random_regular(800, 12, seed=4), random_regular(4200, 6, seed=2)]
    expect = [adjacency_spectrum(g) for g in hosts]
    got = [None] * len(hosts)
    start = threading.Barrier(len(hosts))

    def solve(i):
        start.wait()
        got[i] = adjacency_spectrum(hosts[i])

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(hosts))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for a, b in zip(got, expect):
        assert a.to_json() == b.to_json()
        assert (a.spectrum is None and b.spectrum is None) or np.array_equal(a.spectrum, b.spectrum)
