"""Batch driver: generate or load a graph, certify it spectrally, run a
construction pipeline, verify the emitted certificate, and write artifacts.

Every run is reproducible from its flags: one root seed derives every
stream, certificates serialize canonically, and the metrics CSV is
byte-stable apart from the wall-clock column.  The pipeline commands and
``sweep`` share one table, ``PIPELINES``, and one row function, so a run
gets the same ``run_id`` (a hash of its command and inputs) whichever
command ran it.  Every host comes from ``resolve_graph``, and every
construction command ends in ``write_run``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from . import generators
from .certify import EmbeddingCertificate, VerifyReport, verify
from .errors import ImforgeError
from .gadgets import bipartite_k3_immersion, k3_density_bound
from .graphs import Graph, build_graph, pair_density
from .immersion_dense import GREEDY, PAPER, build_dense_immersion
from .immersion_medium import build_medium_immersion
from .nibble import edge_disjoint_triangles
from .spectral import SpectralReport, adjacency_spectrum
from .subdivision import VARIANT_FIXED, VARIANT_POWER, build_balanced_subdivision
from .util import BEST_EFFORT, STRICT, derive_seed, read_ascii, uniforms

CSV_COLUMNS = ["command", "run_id", "n", "d", "lambda", "eta", "t", "M1", "M2",
               "reds_total", "reds_replaced_2path", "pairs_3path", "stuck",
               "achieved_order", "seconds"]


def run_id_for(command: str, inputs: dict) -> str:
    """Name a run by its command and inputs, never by its outputs."""
    blob = json.dumps({"command": command, **inputs}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def metrics_row(command: str, inputs: dict, columns: dict, started: float) -> dict:
    """One metrics row; the columns a command does not produce, and the
    None ones, stay empty."""
    return {"command": command, "run_id": run_id_for(command, inputs), **columns,
            "seconds": f"{time.time() - started:.3f}"}


def write_rows(fh, rows: list[dict], header: bool) -> None:
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, restval="")
    if header:
        writer.writeheader()
    writer.writerows(rows)


def write_metrics(path: Optional[str], rows: list[dict]) -> None:
    if not path:
        return
    exists = os.path.exists(path)
    with open(path, "a", newline="", encoding="ascii") as fh:
        write_rows(fh, rows, header=not exists)


def resolve_graph(args) -> Graph:
    """The host the one graph source given names: ``--graph``, ``--q``, or
    ``--n`` with ``--d``.  None or more than one is a usage error; an invalid
    value is the loader's or generator's error to report."""
    given = [args.graph is not None, args.q is not None,
             args.n is not None or args.d is not None]
    if sum(given) > 1:
        raise ImforgeError("give one graph source: --graph PATH, --q Q, or --n and --d")
    if args.graph is not None:
        return generators.load_graph(args.graph)
    if args.q is not None:
        return generators.paley(args.q)
    if args.n is not None and args.d is not None:
        return generators.random_regular(args.n, args.d,
                                         derive_seed(args.seed, "gen:random-regular"))
    raise ImforgeError("supply --graph PATH, --q Q, or both --n and --d")


def numbers(flag: str, text: str, kind: type) -> list:
    """A comma-separated flag value as numbers of one kind."""
    try:
        return [kind(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ImforgeError(f"{flag} takes comma-separated numbers, got {text!r}") from None


def emit(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_gen(args) -> int:
    g = resolve_graph(args)
    if args.out:
        generators.save_graph(g, args.out)
    else:
        sys.stdout.write(f"{g.n} {g.m}\n")
    return 0


def cmd_spectral(args) -> int:
    emit(args.out, adjacency_spectrum(resolve_graph(args)).to_json())
    return 0


@dataclass(frozen=True)
class Pipeline:
    """A construction command: its flags besides the shared graph, seed,
    mode and ``--eta`` flags, its builder, and the CSV columns its
    diagnostics fill besides ``achieved_order``."""

    help: str
    options: tuple[tuple[str, dict], ...]
    build: Callable[[Graph, SpectralReport, argparse.Namespace],
                    tuple[EmbeddingCertificate, Any]]
    columns: Callable[[Any], dict]

    def defaults(self) -> dict:
        return {flag[2:].replace("-", "_"): spec["default"] for flag, spec in self.options}


def _build_medium(g: Graph, report: SpectralReport, args) -> tuple[EmbeddingCertificate, Any]:
    h_params = (args.h1, args.h2, args.h3)
    if None in h_params:
        if h_params != (None, None, None):
            raise ImforgeError("--h1/--h2/--h3 must be given together")
        h_params = None
    return build_medium_immersion(
        g, report, eta=args.eta, seed=args.seed, mode=args.mode,
        h_params=h_params, target_order=args.target, max_len=args.max_len)


PIPELINES = {
    "immerse-medium": Pipeline(
        "unit-based clique immersion",
        (("--h1", {"type": int, "default": None}),
         ("--h2", {"type": int, "default": None}),
         ("--h3", {"type": int, "default": None}),
         ("--target", {"type": int, "default": None}),
         ("--max-len", {"type": int, "default": None})),
        _build_medium,
        lambda diag: {"t": diag.h_params[0], "stuck": diag.pairs_missing}),
    "immerse-dense": Pipeline(
        "partition-based clique immersion",
        (("--method", {"choices": [GREEDY, PAPER], "default": GREEDY}),),
        lambda g, report, args: build_dense_immersion(
            g, report, eta=args.eta, seed=args.seed, mode=args.mode, method=args.method),
        lambda diag: {"t": diag.t, "M1": diag.m1, "M2": diag.m2,
                      "reds_total": diag.reds_total,
                      "reds_replaced_2path": diag.reds_replaced_2path,
                      "pairs_3path": diag.pairs_3path, "stuck": diag.stuck}),
    "subdivide": Pipeline(
        "balanced clique subdivision",
        (("--variant", {"choices": [VARIANT_FIXED, VARIANT_POWER],
                         "default": VARIANT_FIXED}),),
        lambda g, report, args: build_balanced_subdivision(
            g, report, eta=args.eta, seed=args.seed, mode=args.mode,
            variant=args.variant),
        lambda diag: {"t": diag.achieved_order, "stuck": diag.failed_pairs}),
}


def pipeline_inputs(command: str, args) -> dict:
    """Everything a pipeline run depends on, as hashed into its run id."""
    names = ("graph", "q", "n", "d", "eta", "seed", "mode", *PIPELINES[command].defaults())
    return {name: getattr(args, name) for name in names}


def certified_host(args) -> tuple[Graph, SpectralReport]:
    g = resolve_graph(args)
    return g, adjacency_spectrum(g)


def run_pipeline(command: str, args, g: Graph, report: SpectralReport,
                 ) -> tuple[EmbeddingCertificate, VerifyReport, dict]:
    """Build and verify one pipeline run on a certified host; returns the
    certificate, the verify report, and the metrics row, whose ``seconds``
    cover the build and the verification."""
    started = time.time()
    cert, diag = PIPELINES[command].build(g, report, args)
    rep = verify(g, cert)
    columns = {"n": g.n, "d": report.d, "lambda": f"{report.lam:.6f}", "eta": args.eta,
               **PIPELINES[command].columns(diag), "achieved_order": diag.achieved_order}
    return cert, rep, metrics_row(command, pipeline_inputs(command, args), columns, started)


def write_run(args, cert: EmbeddingCertificate, rep: VerifyReport, row: dict) -> int:
    """Write the certificate, verify report and metrics row that ``--out``,
    ``--report`` and ``--metrics`` ask for; exit 0 when the certificate
    verifies, else 1."""
    if args.out:
        emit(args.out, cert.to_json())
    if args.report:
        emit(args.report, rep.to_json())
    write_metrics(args.metrics, [row])
    return 0 if rep.valid else 1


def cmd_pipeline(args) -> int:
    return write_run(args, *run_pipeline(args.command, args, *certified_host(args)))


def cmd_k3_bipartite(args) -> int:
    """The gadget never certifies its host, so its row leaves ``d`` and
    ``lambda`` empty and no spectrum is computed."""
    n1, n2 = args.n1, args.n2
    if n1 < 0 or n2 < 0:
        raise ImforgeError("--n1 and --n2 must be nonnegative")
    # a NaN density fails this test too
    if not 0 <= args.density <= 1:
        raise ImforgeError(f"need 0 <= density <= 1, got --density {args.density}")
    # random() < 1 everywhere, so density 1 gives the complete bipartite host
    mask = uniforms(args.seed, "k3-bipartite-host", (n1, n2)) < args.density
    g = build_graph(n1 + n2, np.argwhere(mask) + (0, n1))
    a_side, b_side = list(range(n1)), list(range(n1, n1 + n2))
    p = args.p
    if p is None:
        p = int(k3_density_bound(pair_density(g, a_side, b_side), n1, n2))
    started = time.time()
    cert = bipartite_k3_immersion(g, a_side, b_side, p=p, seed=args.seed,
                                  mode=args.mode)
    rep = verify(g, cert)
    inputs = {"n1": n1, "n2": n2, "density": args.density, "p": args.p,
              "seed": args.seed, "mode": args.mode}
    columns = {"n": g.n, "t": p, "achieved_order": len(cert.branch)}
    return write_run(args, cert, rep, metrics_row("k3-bipartite", inputs, columns, started))


def cmd_nibble(args) -> int:
    g = resolve_graph(args)
    sizes = numbers("--parts", args.parts, int)
    if len(sizes) != 3 or sum(sizes) > g.n:
        raise ImforgeError("--parts must be three sizes summing to at most n")
    if min(sizes) < 0:
        raise ImforgeError(f"--parts sizes must not be negative, got {args.parts!r}")
    bounds = [0, sizes[0], sizes[0] + sizes[1], sum(sizes)]
    parts = tuple(range(bounds[i], bounds[i + 1]) for i in range(3))
    triangles, uncovered, diag = edge_disjoint_triangles(g, parts, seed=args.seed)
    payload = {"triangles": [list(t) for t in triangles],
               "uncovered": [list(e) for e in uncovered],
               "diagnostics": {k: v for k, v in diag.items()}}
    emit(args.out, json.dumps(payload, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    g = generators.load_graph(args.graph)
    rep = verify(g, EmbeddingCertificate.from_json(read_ascii(args.cert)))
    emit(args.report, rep.to_json())
    return 0 if rep.valid else 1


def cmd_sweep(args) -> int:
    """Run every eta on one certified host; the host and its spectrum do
    not depend on eta.  A failed cell still gets its row, and the sweep
    then exits 2."""
    command = args.command_name
    etas = numbers("--eta-grid", args.eta_grid, float)
    if not etas:
        raise ImforgeError(f"--eta-grid holds no eta, got {args.eta_grid!r}")
    host, host_error = None, None
    try:
        host = certified_host(args)
    except ImforgeError as err:
        host_error = err
    rows: list[dict] = []
    code = 0
    for eta in etas:
        # the swept pipeline's own flags keep their defaults
        cell = argparse.Namespace(**{**PIPELINES[command].defaults(), **vars(args),
                                     "eta": eta})
        started = time.time()
        try:
            if host_error is not None:
                raise host_error
            rows.append(run_pipeline(command, cell, *host)[2])
        except ImforgeError as err:
            print(f"error: eta={eta}: {err}", file=sys.stderr)
            rows.append(metrics_row(command, pipeline_inputs(command, cell),
                                    {"eta": eta, "achieved_order": 0}, started))
            code = 2
    if args.metrics:
        write_metrics(args.metrics, rows)
    else:
        write_rows(sys.stdout, rows, header=True)
    return code


RUN_FLAGS = {
    "--mode": {"choices": [STRICT, BEST_EFFORT], "default": BEST_EFFORT},
    "--out": {"default": None, "help": "certificate/output path"},
    "--report": {"default": None, "help": "verify-report JSON path"},
    "--metrics": {"default": None, "help": "metrics CSV path (appended)"},
}


def _add_run_flags(sub, *names):
    for name in names:
        sub.add_argument(name, **RUN_FLAGS[name])


def _add_common(sub, *run_flags):
    """``--seed``, the graph-source flags, and the named ``RUN_FLAGS``:
    each command gets only the flags it reads."""
    sub.add_argument("--seed", type=int, default=0)
    _add_run_flags(sub, *run_flags)
    sub.add_argument("--graph", default=None, help="edge-list file")
    sub.add_argument("--q", type=int, default=None, help="quadratic-residue modulus")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--d", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imforge",
        description="clique immersions and balanced subdivisions in "
                    "certified regular graphs")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="write a graph file in canonical form")
    _add_common(gen, "--out")
    gen.set_defaults(func=cmd_gen)

    spec = subs.add_parser("spectral", help="spectral report for a graph")
    _add_common(spec, "--out")
    spec.set_defaults(func=cmd_spectral)

    for name, pipe in PIPELINES.items():
        cmd = subs.add_parser(name, help=pipe.help)
        _add_common(cmd, *RUN_FLAGS)
        cmd.add_argument("--eta", type=float, required=True)
        for flag, kwargs in pipe.options:
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(func=cmd_pipeline)

    k3 = subs.add_parser("k3-bipartite", help="length-4 clique immersion in a "
                                              "bipartite host")
    k3.add_argument("--n1", type=int, required=True)
    k3.add_argument("--n2", type=int, required=True)
    k3.add_argument("--density", type=float, default=1.0)
    k3.add_argument("--p", type=int, default=None)
    k3.add_argument("--seed", type=int, default=0)
    _add_run_flags(k3, *RUN_FLAGS)
    k3.set_defaults(func=cmd_k3_bipartite)

    nib = subs.add_parser("nibble", help="edge-disjoint triangles of a "
                                         "tripartite graph")
    _add_common(nib, "--out")
    nib.add_argument("--parts", required=True, help="three part sizes a,b,c")
    nib.set_defaults(func=cmd_nibble)

    ver = subs.add_parser("verify", help="verify a certificate against a graph")
    ver.add_argument("--graph", required=True)
    ver.add_argument("--cert", required=True)
    ver.add_argument("--report", default=None)
    ver.set_defaults(func=cmd_verify)

    swp = subs.add_parser("sweep", help="run a pipeline over an eta grid")
    _add_common(swp, "--mode", "--metrics")
    swp.add_argument("--command-name", choices=list(PIPELINES), required=True)
    swp.add_argument("--eta-grid", required=True, help="comma-separated etas")
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ImforgeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
