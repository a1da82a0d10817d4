"""Run one workload in a closed loop and print its metrics.

One client runs ops back to back on one thread: the next op starts when
the previous one has finished.  The untraced run (``--trace 0``) reports
the end-to-end metrics; the traced run (``--trace 1``) reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import folkit

from . import stats, workloads
from .tracer import TRACED, Tracer

WORKLOADS = ("soundness_sweep", "countermodel_search", "proof_check", "cli_files")
# Each worker builds the workload at least this often, and more while it
# stays cheap; the median over all builds is reported.
SETUP_REPEATS = (1, 3)
SETUP_BUDGET_S = 0.5
# The op-time percentile reported beside the median, and the sample it needs.
TAIL_PERCENTILE = 90.0
MIN_OPS = stats.min_samples(TAIL_PERCENTILE)
# How far past --seconds a run may go to reach MIN_OPS.
OVERRUN_S = 20.0
STARTUP_REPEATS = 5
# Processes an untraced run is split over.
WORKERS = 4

# Per-layer metrics of the traced run: each function's calls and self time
# per op (for enumerate_structures, items yielded in place of calls).
PER_FUNCTION = (
    ("semantics.eval_formula", ("calls", "self_s")),
    ("semantics.enumerate_structures", ("yielded", "self_s")),
    ("semantics.find_countermodel", ("self_s",)),
    ("semantics.induced_valuation_check", ("self_s",)),
    ("proof.is_axiom", ("calls", "self_s")),
    ("proof.match_a5", ("calls", "self_s")),
    ("proof.check_proof", ("self_s",)),
    ("proof.induction_sentence", ("calls", "self_s")),
    ("proof.has_params", ("calls", "self_s")),
    ("proof.parse_proof", ("self_s",)),
    ("proof.parse_theory", ("self_s",)),
    ("subst.subst_formula", ("calls", "self_s")),
    ("subst.min_rank", ("calls", "self_s")),
    ("subst.forall_var", ("calls", "self_s")),
    ("syntax.parse_formula", ("calls", "self_s")),
    ("syntax.check_formula", ("calls", "self_s")),
    ("syntax.print_formula", ("calls", "self_s")),
    ("cli.run", ("self_s",)),
)
UNITS = {"calls": "count/op", "yielded": "count/op", "self_s": "s/op"}
SHARES = tuple(TRACED) + ("startup", "bench")
OP_SPAN = "bench.op"

END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "work_per_s": "1/s",
              "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of the traced run, with its unit."""
    units = {f"{name}.{kind}": UNITS[kind] for name, kinds in PER_FUNCTION for kind in kinds}
    units.update({
        "semantics.evals_per_candidate": "count",
        "proof.is_axiom.hit_ratio": "ratio",
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
        "trace.overhead_ratio": "ratio",
    })
    units.update({f"share.{layer}": "ratio" for layer in SHARES})
    return units


@dataclass
class Outcome:
    latencies: list[float] = field(default_factory=list)
    work: int = 0
    failed: int = 0

    @property
    def busy_s(self) -> float:
        return math.fsum(self.latencies)

    def add(self, other: Outcome) -> None:
        self.latencies += other.latencies
        self.work += other.work
        self.failed += other.failed


def drive(ops: list[workloads.Op], seconds: float, min_ops: int = 0,
          max_ops: int | None = None, tracer: Tracer | None = None, first: int = 0) -> Outcome:
    """Run ops in cycle order from index ``first``, each after the previous
    one finished: for ``seconds`` and at least ``min_ops`` ops or, when
    ``max_ops`` is given, exactly that many ops whatever the time.  Only
    ``op.run`` is timed; its result is checked afterwards."""
    clock = time.perf_counter
    out = Outcome()
    deadline = clock() + seconds
    limit = deadline + OVERRUN_S
    n = 0
    while True:
        if max_ops is not None:
            if n >= max_ops:
                break
        else:
            now = clock()
            if now >= limit or (now >= deadline and n >= min_ops):
                break
        op = ops[(first + n) % len(ops)]
        n += 1
        error = None
        if tracer is None:
            t0 = clock()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            out.latencies.append(clock() - t0)
        else:
            with tracer.span(OP_SPAN):
                t0 = clock()
                try:
                    result = op.run()
                except Exception as exc:
                    error = exc
                out.latencies.append(clock() - t0)
        if error is None:
            try:
                ok, units = op.check(result)
            except Exception as exc:  # malformed output fails the op
                ok, units, error = False, 0, exc
        else:
            ok, units = False, 0
        if not ok:
            if not out.failed:
                print(f"op {n - 1} failed: {error!r}" if error else f"op {n - 1}: wrong result",
                      file=sys.stderr)
            out.failed += 1
        out.work += units
    return out


class Context:
    """Where a run reads and writes: all of it inside the checkout."""

    def __init__(self, root: Path, workload: str):
        self.root = root
        self.src = root / "src"
        self.workdir = root / ".bench_work" / f"{workload}-{os.getpid()}"
        self.outdir = root / ".bench_out"

    def build(self, workload: str, seed: int) -> workloads.Workload:
        if workload == "soundness_sweep":
            return workloads.build_sweep(seed)
        if workload == "countermodel_search":
            return workloads.build_countermodel(seed)
        if workload == "proof_check":
            return workloads.build_proof(seed)
        return workloads.build_cli(seed, str(self.workdir), str(self.src))

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


def setup(ctx: Context, workload: str, seed: int) -> tuple[workloads.Workload, list[float]]:
    """Build the workload several times; return the last build and the times."""
    times: list[float] = []
    built = None
    while len(times) < SETUP_REPEATS[0] or (
            len(times) < SETUP_REPEATS[1] and math.fsum(times) < SETUP_BUDGET_S):
        built = None
        gc.collect()
        t0 = time.perf_counter()
        built = ctx.build(workload, seed)
        times.append(time.perf_counter() - t0)
    # Inputs live for the whole run: keep the collector from rescanning them.
    gc.collect()
    gc.freeze()
    return built, times


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(ctx: Context, workload: str, seed: int, worker: int, seconds: float,
            min_ops: int) -> dict:
    """One worker's share of an untraced run, as plain data.  Worker k
    starts k/WORKERS of the way into the cycle, so that together the
    workers cover the whole of it."""
    built, setup_times = setup(ctx, workload, seed)
    out = drive(built.ops, seconds, min_ops, first=len(built.ops) * worker // WORKERS)
    return {"latencies": out.latencies, "work": out.work, "failed": out.failed,
            "setup_s": setup_times, "unit": built.unit,
            "peak_rss_mb": peak_rss_mb(children=built.in_process is not None)}


def worker_main() -> None:
    """Entry of a worker process:
    ``-m folkbench.bench ROOT WORKLOAD SEED WORKER SECONDS MIN_OPS``."""
    root, workload, seed, worker, seconds, min_ops = sys.argv[1:]
    ctx = Context(Path(root), workload)
    try:
        result = measure(ctx, workload, int(seed), int(worker), float(seconds), int(min_ops))
    finally:
        ctx.cleanup()
    print(json.dumps(result))


def end_to_end(ctx: Context, workload: str, seed: int, seconds: float) -> tuple[Outcome, dict]:
    """Split the run over WORKERS fresh processes, one after the other, each
    with its own string-hash seed, and pool what they measured.  Dict and
    set layouts depend on that seed, and so does the evaluator's speed (by
    a fifth between two processes on identical inputs), so one process
    would report the luck of one layout."""
    rng = random.Random(f"hash-{seed}")
    env = workloads.python_env(os.pathsep.join([str(ctx.src), str(Path(__file__).parent.parent)]))
    out = Outcome()
    setup_times: list[float] = []
    rss: list[float] = []
    for worker in range(WORKERS):
        env["PYTHONHASHSEED"] = str(rng.randrange(1, 2**32))
        done = subprocess.run(
            [sys.executable, "-m", "folkbench.bench", str(ctx.root), workload, str(seed),
             str(worker), repr(seconds / WORKERS), str(math.ceil(MIN_OPS / WORKERS))],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
            timeout=seconds / WORKERS + OVERRUN_S + 60, check=True)
        part = json.loads(done.stdout.splitlines()[-1])
        out.add(Outcome(part["latencies"], part["work"], part["failed"]))
        setup_times += part["setup_s"]
        rss.append(part["peak_rss_mb"])
        unit = part["unit"]
    lat = out.latencies
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": stats.percentile(lat, 50.0) * 1e3,
        "op_ms_p90": stats.percentile(lat, TAIL_PERCENTILE) * 1e3,
        "work_per_s": out.work / out.busy_s,
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"{workload}: {len(lat)} ops in {WORKERS} processes, {out.failed} failed "
          f"(ops_failed_ratio {out.failed / len(lat):.6f}), work unit: {unit}; "
          f"highest reportable percentile: p{stats.highest_percentile(len(lat))}")
    return out, metrics


def startup_ms(ctx: Context, code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    env = workloads.python_env(str(ctx.src))
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                       stdin=subprocess.DEVNULL, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def per_layer(ctx: Context, workload: str, seed: int, seconds: float) -> tuple[Outcome, dict]:
    """Run ops untraced for a quarter of the time, then the same ops traced,
    and report per-op calls and self times, layer shares and the overhead.
    (A quarter keeps the span record near a million spans at most.)"""
    built, _ = setup(ctx, workload, seed)
    ops = built.in_process or built.ops
    base = drive(ops, seconds / 4)
    n = len(base.latencies)
    tracer = Tracer()
    tracer.install(folkit)
    try:
        traced = drive(ops, 0.0, max_ops=n, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = traced.busy_s / base.busy_s

    selfs = tracer.self_times()
    calls = dict(zip(tracer.names, tracer.calls))
    hits = dict(zip(tracer.names, tracer.hits))
    metrics: dict[str, float] = {}
    for name, kinds in PER_FUNCTION:
        for kind in kinds:
            value = {"calls": calls.get(name, 0), "yielded": hits.get(name, 0),
                     "self_s": selfs.get(name, 0.0)}[kind]
            metrics[f"{name}.{kind}"] = value / n
    yielded = hits.get("semantics.enumerate_structures", 0)
    metrics["semantics.evals_per_candidate"] = (
        calls.get("semantics.eval_formula", 0) / yielded if yielded else 0.0)
    axioms = calls.get("proof.is_axiom", 0)
    metrics["proof.is_axiom.hit_ratio"] = hits.get("proof.is_axiom", 0) / axioms if axioms else 0.0

    total = math.fsum(selfs.values())
    share = {layer: math.fsum(t for name, t in selfs.items() if name.startswith(layer + "."))
             / total for layer in TRACED}
    share["bench"] = selfs.get(OP_SPAN, 0.0) / total
    share["startup"] = 0.0
    interpreter = imports = 0.0
    if built.in_process is not None:
        # The traced ops ran inside this process; scale their shares to a
        # real invocation, whose interpreter start and import come first.
        interpreter = startup_ms(ctx, "pass")
        imports = max(startup_ms(ctx, "import folkit") - interpreter, 0.0)
        invocations = drive(built.ops, 0.0, max_ops=len(built.ops))
        wall_ms = invocations.busy_s / len(built.ops) * 1e3
        share["startup"] = min((interpreter + imports) / wall_ms, 1.0)
        for layer in (*TRACED, "bench"):
            share[layer] *= 1.0 - share["startup"]
        traced.add(invocations)
    metrics["cli.interpreter_ms"] = interpreter
    metrics["cli.import_ms"] = imports
    metrics["trace.overhead_ratio"] = overhead
    for layer in SHARES:
        metrics[f"share.{layer}"] = share[layer]

    ctx.outdir.mkdir(exist_ok=True)
    spans = ctx.outdir / f"trace-{workload}-seed{seed}.tsv.gz"
    t0 = time.perf_counter()
    tracer.write(str(spans))
    print(f"spans written in {time.perf_counter() - t0:.1f}s")
    print(f"{workload}: {n} ops untraced then traced; {len(tracer.kind)} spans in {spans}")
    print("layer share of self time: " + ", ".join(f"{layer} {share[layer]:.1%}" for layer in SHARES))
    base.add(traced)
    return base, metrics


def main(argv: list[str], root: Path) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    ctx = Context(root, args.workload)
    try:
        run = per_layer if args.trace else end_to_end
        out, metrics = run(ctx, args.workload, args.seed, args.seconds)
    finally:
        ctx.cleanup()
    units = per_layer_units() if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": len(out.latencies),
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    worker_main()
