"""The benchmark's workloads: hosts generated in set-up, and the cells that
one pass runs over them.

A cell is one op: the spectrum of the host (for constructions that start
from a certified host), the construction, then ``certify.verify`` on the
emitted certificate.  Every op gets a fresh ``Graph`` shell around the
set-up host, so per-graph caches such as ``Graph.adjacency_matrix`` are
paid on every pass, as a command-line user pays them.

``DEFAULT_SEED`` reproduces the acceptance suite's host and pipeline seeds;
any other workload seed derives all of them from itself.  Hosts are scaled
so that one pass takes a few seconds on a 2-core machine; the sizes and the
reason for each workload are in README.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from imforge import gadgets, generators, graphs, immersion_dense, immersion_medium, subdivision
from imforge.util import np_rng

DEFAULT_SEED = 0


def pick_seed(seed: int, label: str, acceptance: int) -> int:
    """The acceptance seed under the default workload seed, else a seed
    derived from the workload seed and the label."""
    if seed == DEFAULT_SEED:
        return acceptance
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Host:
    """A generated host, kept as the parts a ``Graph`` is made of."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    edges: frozenset[tuple[int, int]]
    parts: Optional[tuple[range, ...]] = None

    @classmethod
    def of(cls, g: graphs.Graph, parts: Optional[tuple[range, ...]] = None) -> "Host":
        return cls(g.n, tuple(g.neighbors(v) for v in range(g.n)), g.edge_set(), parts)

    def graph(self) -> graphs.Graph:
        return graphs.Graph(self.n, self.adjacency, self.edges)


@dataclass(frozen=True)
class Cell:
    """One op.  ``kind`` names the construction; ``certified`` ops compute
    the host spectrum first; every output is a certificate and goes through
    ``certify.verify``."""

    name: str
    host: str
    kind: str
    certified: bool
    run: Callable[[graphs.Graph, Any], Any]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], dict[str, Host]]
    cells: Callable[[int, dict[str, Host]], list[Cell]]


def bipartite_host(n1: int, n2: int, density: float, seed: int) -> Host:
    """The criterion-9 random bipartite host."""
    rng = np_rng(seed, "acceptance-bipartite")
    mask = rng.random((n1, n2)) < density
    edges = [(i, n1 + j) for i, j in zip(*np.nonzero(mask))]
    return Host.of(graphs.build_graph(n1 + n2, edges), (range(n1), range(n1, n1 + n2)))


def _dense_setup(seed: int) -> dict[str, Host]:
    return {"paley401": Host.of(generators.paley(401)),
            "bip512": bipartite_host(512, 4096, 0.55, pick_seed(seed, "bip512", 21))}


def _dense_cells(seed: int, hosts: dict[str, Host]) -> list[Cell]:
    s_dense = pick_seed(seed, "dense", 7)
    s_k3 = pick_seed(seed, "k3", 2)
    bip = hosts["bip512"]
    a_side, b_side = bip.parts
    alpha = len(bip.edges) / (len(a_side) * len(b_side))
    p = int(min(alpha * len(a_side) / 16, alpha * alpha * len(b_side) / 192))

    def dense(eta: float) -> Cell:
        return Cell(f"paley401-eta{eta}", "paley401", "dense", True,
                    lambda g, r: immersion_dense.build_dense_immersion(
                        g, r, eta=eta, seed=s_dense)[0])

    k3 = Cell(f"bip512-k3-p{p}", "bip512", "k3", False,
              lambda g, r: gadgets.bipartite_k3_immersion(
                  g, a_side, b_side, p=p, seed=s_k3, mode="strict"))
    return [dense(0.4), dense(0.45), k3]


def _medium_setup(seed: int) -> dict[str, Host]:
    return {"rr5000x60": Host.of(generators.random_regular(
        5000, 60, seed=pick_seed(seed, "rr5000x60", 11)))}


def _medium_cells(seed: int, hosts: dict[str, Host]) -> list[Cell]:
    s = pick_seed(seed, "medium", 11)
    return [Cell("rr5000x60-crit7", "rr5000x60", "medium", True,
                 lambda g, r: immersion_medium.build_medium_immersion(
                     g, r, eta=0.45, seed=s, h_params=(8, 3, 6), target_order=8,
                     max_len=8)[0])]


def _sparse_setup(seed: int) -> dict[str, Host]:
    s = pick_seed(seed, "rr-sparse", 8)
    return {f"rr{n}x16": Host.of(generators.random_regular(n, 16, seed=s))
            for n in (2048, 20000)}


def _sparse_cells(seed: int, hosts: dict[str, Host]) -> list[Cell]:
    s = pick_seed(seed, "subdivide", 8)
    return [Cell(f"{name}-subdivide", name, "subdivide", True,
                 lambda g, r: subdivision.build_balanced_subdivision(
                     g, r, eta=0.5, seed=s)[0])
            for name in ("rr2048x16", "rr20000x16")]


def _both(a: Workload, b: Workload) -> Workload:
    """One workload that sets up and runs the cells of two."""
    return Workload(lambda seed: {**a.setup(seed), **b.setup(seed)},
                    lambda seed, hosts: a.cells(seed, hosts) + b.cells(seed, hosts))


# The medium and sparse cells share one workload so that each run measures
# longer within the benchmark's time budget; both run on sparse random
# regular hosts and never reach the nibble matcher.
WORKLOADS = {
    "dense": Workload(_dense_setup, _dense_cells),
    "medium-sparse": _both(Workload(_medium_setup, _medium_cells),
                           Workload(_sparse_setup, _sparse_cells)),
}
