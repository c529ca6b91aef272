"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 28 --trace 0

Run it from the repository root; the library is imported from ``src/``.
Set-up generates the workload's hosts at least three times, cheap ones
until 2.5 s are spent; all but the last two draw hosts from other seeds,
and ``setup_s`` is the median.  One warm-up pass
over its cells records the reference output of every op, then passes
repeat until ``--seconds`` have gone by.  Every op
is checked by ``certify.verify``, by the benchmark's own
checker, and against the warm-up pass's output hash; an op that raises or
fails any of these counts in ``failed``.

Times are scaled to a reference machine speed.  Before every set-up and
every pass the run times a fixed pure-Python kernel; each reported time is
the raw median times ``REFERENCE_S`` over the run's median kernel time.  On
the 2-core VM this was written on, the speed of the library and of the
kernel alike drifts by up to a quarter within minutes; the scaling cancels
that drift.  The raw samples stay in the run record.

With ``--trace 0`` the result carries the end-to-end metrics, medians over
the timed passes.  With ``--trace 1`` traced and untraced passes alternate:
the result carries the per-layer metrics (medians over traced passes) and
the tracing overhead.  The line before the result is a JSON run record: the
environment, the raw samples, the output hashes, and the trace's spans.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = (3, 20)  # fewest and most set-ups in a run
SETUP_SECONDS = 2.5  # cheap set-ups repeat until this much time is spent
SETUP_SEED_STEP = 7919  # seed spacing of the set-ups that draw other hosts
REFERENCE_S = 0.017  # median reference_seconds() on the 2-core VM the bounds were set on
COVERAGE_FLOOR = 0.95


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS that numpy and scipy ship, when found."""
    import numpy
    import scipy
    out: dict[str, int] = {}
    for mod in (numpy, scipy):
        for path in sorted(Path(mod.__file__).parent.parent.glob(f"{mod.__name__}.libs/*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[path.name] = fn()
                    break
    return out


class Runner:
    def __init__(self, hosts, cells, tracer):
        from imforge import certify, spectral
        import checker
        self.hosts, self.cells, self.tracer = hosts, cells, tracer
        self.certify, self.spectral, self.checker = certify, spectral, checker
        self.reference: dict[str, str] = {}
        self.sizes: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.coverage: list[float] = []

    def run_pass(self, traced: bool) -> tuple[float, float]:
        """One pass over the cells; returns (wall, cpu) seconds of the ops."""
        wall = cpu = 0.0
        for cell in self.cells:
            host = self.hosts[cell.host]
            g = host.graph()
            error = None
            t0, c0 = perf_counter(), process_time()
            if traced:
                self.tracer.enter("op")
            try:
                report = self.spectral.adjacency_spectrum(g) if cell.certified else None
                out = cell.run(g, report)
                valid = self.certify.verify(g, out).valid
            except Exception as err:  # a raising op is a failed op, not a crash
                error = f"{type(err).__name__}: {err}"
            if traced:
                dur, child = self.tracer.exit(error is not None)
                self.coverage.append(child / dur if dur > 0 else 1.0)
            wall += perf_counter() - t0
            cpu += process_time() - c0
            self.attempted += 1
            if error is None:
                try:
                    problems = self.judge(cell, host, out, valid, traced)
                except Exception as err:  # an output that cannot be read is wrong
                    problems = [f"unreadable output: {type(err).__name__}: {err}"]
            else:
                problems = [error]
            self.failed += bool(problems)
            self.failures += [f"{cell.name}: {p}" for p in problems]
        return wall, cpu

    def judge(self, cell, host, out, valid: bool, traced: bool) -> list[str]:
        """Problems with one op's output; also feeds output counts to the trace."""
        payload = out.to_json()
        parsed = json.loads(payload)
        problems = self.checker.check_certificate(host.n, host.edges, parsed)
        size = len(parsed["branch"]) if isinstance(parsed, dict) else 0
        if not valid:
            problems.append("certify.verify rejected")
        digest = hashlib.sha256(payload.encode()).hexdigest()
        ref = self.reference.setdefault(cell.name, digest)
        self.sizes.setdefault(cell.name, size)
        if digest != ref:
            problems.append("output differs from the first pass")
        if traced and not problems:
            count = Counter()
            lengths = [len(p["path"]) - 1 for p in parsed["pairs"]]
            count["out.path_edges"] = sum(lengths)
            if cell.kind == "dense":
                for k in (1, 2, 3):
                    count[f"out.dense_len{k}"] = lengths.count(k)
            if cell.kind == "k3":
                count["out.k3_paths"] = len(lengths)
            self.tracer.count.update(count)
        return problems


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python kernel: the machine's current speed."""
    t0 = perf_counter()
    acc: dict[int, int] = {}
    for i in range(100_000):
        acc[i & 1023] = acc.get(i & 1023, 0) + i
    return perf_counter() - t0


def host_digest(hosts: dict) -> dict[str, int]:
    return {name: hash((h.n, h.edges, h.parts)) for name, h in hosts.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "imforge" / "__init__.py").is_file():
        print(f"run.py: no imforge sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    started = perf_counter()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "acceptance_seeds": args.seed == workloads.DEFAULT_SEED,
              "env": {"nproc": os.cpu_count(), "blas_threads": blas_threads(),
                      "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                      "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
                      "python": platform.python_version(), "numpy": numpy.__version__,
                      "scipy": scipy.__version__, "machine": platform.machine(),
                      "loadavg_start": os.getloadavg()}}

    kernel_s: list[float] = []
    tracer = tracing.Tracer()
    trace_ctx = tracer.installed if args.trace else nullcontext
    setup_s: list[float] = []
    setup_snaps = []

    def set_up(seed: int) -> dict:
        gc.collect()
        kernel_s.extend(reference_seconds() for _ in range(5))
        with trace_ctx():
            t0 = perf_counter()
            hosts = wl.setup(seed)
            setup_s.append(perf_counter() - t0)
        if args.trace:
            setup_snaps.append(tracer.take())
        return hosts

    # All set-ups but the last two draw their hosts from other seeds, so
    # that setup_s is a median over host draws rather than the cost of one
    # draw; the last two use the workload seed and must agree.
    while len(setup_s) < SETUP_REPS[0] - 2 or \
            (sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_REPS[1] - 2):
        set_up(args.seed + SETUP_SEED_STEP * (len(setup_s) + 1))
    first = host_digest(set_up(args.seed))
    hosts = set_up(args.seed)
    hosts_stable = host_digest(hosts) == first

    runner = Runner(hosts, wl.cells(args.seed, hosts), tracer)
    gc.collect()
    runner.run_pass(traced=False)  # warm-up; its outputs are the reference
    tracer.take()

    untraced: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    pass_snaps = []
    deadline = perf_counter() + args.seconds
    while not (perf_counter() >= deadline and untraced and (traced or not args.trace)):
        use_trace = bool(args.trace) and len(traced) <= len(untraced)
        gc.collect()
        kernel_s += [reference_seconds() for _ in range(5)]
        with trace_ctx() if use_trace else nullcontext():
            sample = runner.run_pass(traced=use_trace)
        if use_trace:
            traced.append(sample)
            pass_snaps.append(tracer.take())
        else:
            untraced.append(sample)
    record["env"]["loadavg_end"] = os.getloadavg()

    solve = [w for w, _ in untraced]
    speed = REFERENCE_S / median(kernel_s)
    record["samples"] = {"setup_s": setup_s, "solve_s": solve,
                         "cpu_s": [c for _, c in untraced], "reference_s": kernel_s}
    record["speed_scale"] = speed
    record["cells"] = [{"name": c.name, "kind": c.kind, "size": runner.sizes.get(c.name),
                        "sha256": runner.reference.get(c.name)} for c in runner.cells]
    record["failures"] = runner.failures[:50]
    record["hosts_stable"] = hosts_stable

    if args.trace:
        traced_solve = [w for w, _ in traced]
        record["samples"]["solve_s_traced"] = traced_solve
        record["absent"] = tracer.absent + sorted(tracer.broken)
        record["spans"] = [(i, p, label, round(s - started, 6), round(e - started, 6))
                           for i, p, label, s, e in tracer.spans]
        coverage = min(runner.coverage)
        metrics = {}
        for table, snaps in ((tracing.SETUP_METRICS, setup_snaps),
                             (tracing.PASS_METRICS, pass_snaps)):
            for name, values in tracing.layer_values(table, snaps).items():
                unit = table[name][0]
                metrics[name] = {"value": median(values) * (speed if unit == "s" else 1),
                                 "unit": unit}
        metrics["trace.overhead"] = {"value": median(traced_solve) / median(solve), "unit": "ratio"}
        metrics["trace.coverage"] = {"value": coverage, "unit": "ratio"}
        gates_ok = coverage >= COVERAGE_FLOOR
    else:
        metrics = {
            "solve_s": {"value": median(solve) * speed, "unit": "s"},
            "cpu_s": {"value": median(record["samples"]["cpu_s"]) * speed, "unit": "s"},
            "setup_s": {"value": median(setup_s) * speed, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "achieved_order": {"value": sum(runner.sizes.values()), "unit": "count"},
        }
        gates_ok = True

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": not runner.failures and hosts_stable and gates_ok,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
