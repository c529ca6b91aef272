"""Golden certificates: sha256 digests of certificates the pipelines emitted
before their star packing, reservoir sampling, routing entry and
certificate assembly were merged into one implementation each.

A refactor that changes the emitted bytes, even the same way on every run,
fails here; the determinism criterion only compares two runs of the same
code.  Strict mode raises on every one of these desk-scale hosts (the
paper's hypotheses fail there), so only best-effort certificates are
pinned.  Paley(101) has t = 0 and never reaches the nibble matcher, so both
dense methods give its three digests.  The Paley(401) ``dense`` digests pin
the ``paper`` method, whose red pairs the matcher links; they were
re-recorded when each batch of red pairs began to draw one SplitMix64
stream and keep the dominance guard per connected component.
``dense_greedy`` pins the default method, which links every non-adjacent
pair greedily.  The
medium and subdivide digests were re-recorded when random regular hosts
began to order their stubs by raw PCG64 words: their hosts changed, not
the pipelines.
"""

import hashlib
from functools import lru_cache

import pytest

from imforge.certify import verify
from imforge.gadgets import build_1_adjuster, chain_adjusters
from imforge.generators import paley, random_regular
from imforge.graphs import build_graph
from imforge.immersion_dense import build_dense_immersion
from imforge.immersion_medium import build_medium_immersion
from imforge.spectral import adjacency_spectrum
from imforge.subdivision import build_balanced_subdivision


@lru_cache(maxsize=None)
def host(name):
    paleys = {"paley101": 101, "paley401": 401}
    g = paley(paleys[name]) if name in paleys else random_regular(
        *{"rr600x24": (600, 24), "rr1000x30": (1000, 30)}[name], seed=1)
    return g, adjacency_spectrum(g)


def dense(g, r, eta):
    """The ``paper`` method, under which the dense digests were recorded."""
    return build_dense_immersion(g, r, eta=eta, seed=7, method="paper")


def dense_greedy(g, r, eta):
    return build_dense_immersion(g, r, eta=eta, seed=7)


def medium(g, r, eta):
    return build_medium_immersion(g, r, eta=eta, seed=3, h_params=(6, 2, 5),
                                  target_order=8, max_len=8)


def subdivide(g, r, eta):
    return build_balanced_subdivision(g, r, eta=eta, seed=3)


GOLDEN = [
    (dense, "paley101", 0.2, "118df59f1986a18b65d56a10a5ffb92a19b0be940613c6044cc0045f31aa7083"),
    (dense, "paley101", 0.4, "34f29464ca6aee2fd8a03edd78909f361d55a302f06273a5cae6b4ed94dc3995"),
    (dense, "paley101", 0.45, "6def4828bc334edba7b6193cd55ba5678ec2e376b47dcefb802f02e730611faa"),
    (dense, "paley401", 0.4, "9bf1a568fc30998f273194299310476d2df43c217cd84f5b565f9a3f75002c16"),
    (dense, "paley401", 0.45, "67294eb88c42a1d6a4bffa731817174b48c0413275a60ad772837bb3f774f9c4"),
    (dense_greedy, "paley101", 0.2, "118df59f1986a18b65d56a10a5ffb92a19b0be940613c6044cc0045f31aa7083"),
    (dense_greedy, "paley101", 0.4, "34f29464ca6aee2fd8a03edd78909f361d55a302f06273a5cae6b4ed94dc3995"),
    (dense_greedy, "paley101", 0.45, "6def4828bc334edba7b6193cd55ba5678ec2e376b47dcefb802f02e730611faa"),
    (dense_greedy, "paley401", 0.4, "6ec05c13ad8307986df86e72b19666a4db552551f2cc3a923575ce535f8706e8"),
    (dense_greedy, "paley401", 0.45, "dc1ecb957bc5ca765ef96d616b32f50f9115c45c4387f88b8afd8434b4d6f25d"),
    (medium, "rr600x24", 0.2, "b6bb42f650c8c1d4c0fc41949fcf0c55c2cf2809537cc91d7d5a2cbfd853262e"),
    (medium, "rr600x24", 0.4, "b6bb42f650c8c1d4c0fc41949fcf0c55c2cf2809537cc91d7d5a2cbfd853262e"),
    (medium, "rr600x24", 0.45, "b6bb42f650c8c1d4c0fc41949fcf0c55c2cf2809537cc91d7d5a2cbfd853262e"),
    (medium, "rr1000x30", 0.2, "718f16ea687d7414ff58490f130cb6160c7251fdff3eaed81f04dd2736aee53a"),
    (medium, "rr1000x30", 0.4, "718f16ea687d7414ff58490f130cb6160c7251fdff3eaed81f04dd2736aee53a"),
    (medium, "rr1000x30", 0.45, "718f16ea687d7414ff58490f130cb6160c7251fdff3eaed81f04dd2736aee53a"),
    (subdivide, "rr600x24", 0.2, "59b291aa60aeeeb822135eed008fb9e6cb80b1d475b669ac3a355eec1ab7571a"),
    (subdivide, "rr600x24", 0.4, "fb57dd0d6f6a0147cbce64e759b32c07f4c2a430bfd5eab8fa30a5ac832d6df9"),
    (subdivide, "rr600x24", 0.45, "6d55b4071cec5075acea59c36b918acf74204faf5c8c16ab66e605452585cc7b"),
    (subdivide, "rr1000x30", 0.2, "9ee8647ee7b156c9fc8643af6d8a4125b285c594514716eddb033b479455ad0e"),
    (subdivide, "rr1000x30", 0.4, "380d48b68fa549efb035438d29c2e2fdc9d5eda2c6d436deceaf8a50723eca69"),
    (subdivide, "rr1000x30", 0.45, "8822c1214dcf2db8faefa4132cf7574b372eed170afa7fbdecca8c9f2660e5ca"),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("build, name, eta, digest", GOLDEN,
                         ids=[f"{b.__name__}-{n}-{e}" for b, n, e, _ in GOLDEN])
def test_golden_certificate(build, name, eta, digest):
    g, r = host(name)
    cert, _ = build(g, r, eta)
    assert verify(g, cert).valid
    assert sha256(cert.to_json()) == digest


@pytest.mark.parametrize("eta", [0.4, 0.45])
def test_golden_paley401_reaches_the_nibble(eta):
    _, diag = dense(*host("paley401"), eta)
    assert not diag.degenerate_fallback and diag.t >= 1 and diag.reds_replaced_2path > 0


@pytest.mark.parametrize("eta", [0.4, 0.45])
def test_golden_paley401_greedy_makes_no_red_black_split(eta):
    _, diag = dense_greedy(*host("paley401"), eta)
    assert diag.t >= 1 and diag.reds_total is None and diag.reds_replaced_2path is None
    assert diag.stuck == 0


def test_golden_chained_adjuster():
    # two hexagons with pendant paths, joined by the edge 13-15: the chain's
    # connector runs inside both used ends (0-12-13 and 15-14-6)
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    edges += [(0, 12), (12, 13), (6, 14), (14, 15), (13, 15), (2, 16), (16, 17),
              (8, 18), (18, 19)]
    g = build_graph(20, edges)
    side = set(range(6, 12)) | {14, 15, 18, 19}
    first = build_1_adjuster(g, removed_vertices=side, d_size=3, m=2)
    second = build_1_adjuster(g, removed_vertices=set(range(20)) - side, d_size=3, m=2)
    chained = chain_adjusters(g, first, second, m=3)
    assert sha256(chained.to_json()) == \
        "dae88526d6371d535aedec30ef1e7fac0eaf95d6bdf2b5e2394b83fb29278b42"
