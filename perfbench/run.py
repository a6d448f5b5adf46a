"""Benchmark of qshuffle on seeded workloads.

    python3 perfbench/run.py --workload words --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.
With ``--trace 0`` the workload runs untraced for ``--seconds`` (whole
passes over its deck, and at least MIN_SAMPLES operations) and the last
line of stdout is a JSON object with the end-to-end metrics, every time
in it scaled to reference speed (see ``speed.py``).  With
``--trace 1`` every operation of a fixed number of passes runs twice,
untraced and then with the per-layer tracer installed; the last line
holds the per-layer metrics and the spans go to ``.perfbench/`` in the
checkout.  Every operation's output is checked; ``correct`` is false
when any check failed.  Exits with 2, printing no result, when the
library cannot be imported.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# p90 needs at least 10 samples beyond it
MIN_SAMPLES = 100
# set-ups per untraced run; setup_s is their median
SETUPS = 11
# fixed so that two traced runs of one seed do the same work
TRACE_PASSES = {"words": 1, "rational": 2, "identities": 6}
OUT_DIR = workloads.BENCH_DIR.parent / ".perfbench"
MAX_TRACEBACKS = 3


class Runner:
    """Runs operations one at a time and checks each output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracebacks = 0

    def _report(self, op):
        if self.tracebacks < MAX_TRACEBACKS:
            print(f"operation {op.kind} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        self.tracebacks += 1

    def verdict(self, op, out, raised) -> bool:
        ok = False
        if not raised:
            try:
                ok = bool(op.check(out))
            except Exception:
                self._report(op)
        self.attempted += 1
        self.failed += not ok
        return ok

    def execute(self, op):
        """Run one operation; returns (output, raised)."""
        try:
            return op.run(), False
        except Exception:
            self._report(op)
            return None, True

    def timed(self, op) -> float:
        t0 = perf_counter()
        out, raised = self.execute(op)
        dt = perf_counter() - t0
        self.verdict(op, out, raised)
        return dt


def setup(name, seed, runner):
    """Import, Cartan data, algebras, the deck and one warm-up operation."""
    t0 = perf_counter()
    lib = workloads.load_library()
    workload = workloads.WORKLOADS[name](lib, seed)
    deck = workload.deck()
    runner.timed(workload.warmup_op())
    return perf_counter() - t0, lib, deck


def passes(deck, seed):
    """Endless passes over the deck, each in a seeded order."""
    order = random.Random(seed)
    while True:
        order.shuffle(deck)
        yield deck


def percentile(samples, p):
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(name, seed, seconds, runner):
    """Closed loop over whole passes for ``seconds`` of pass time.

    SETUPS set-ups are timed first and their median is reported; the
    deck of the last one runs.  A full collection, off the clock, comes
    before each set-up and before the first pass: each set-up starts from
    the same heap, and collecting the discarded copies of the library
    does not land in a timed operation.  The reference loop runs right
    before and right after every set-up and operation, and every time is
    reported scaled to reference speed; stderr shows the measured ones too.
    """
    setup_meter, setups = speed.SpeedMeter(), []
    for _ in range(SETUPS):
        gc.collect()
        setup_meter.sample()
        dt, _, deck = setup(name, seed, runner)
        setup_meter.sample()
        setups.append(dt)
    gc.collect()
    meter, latencies, npasses, busy = speed.SpeedMeter(), [], 0, 0.0
    for ops in passes(deck, seed):
        t0 = perf_counter()
        for op in ops:
            meter.sample()
            latencies.append(runner.timed(op))
            meter.sample()
        busy += perf_counter() - t0
        npasses += 1
        if busy >= seconds and len(latencies) >= MIN_SAMPLES:
            break
    scaled = meter.scaled(latencies)
    n = len(latencies)
    print(
        f"{name} seed {seed}: {n} ops in {npasses} passes, {busy:.2f} s; "
        f"reference loop {1000 * meter.mean_s():.3f} ms; measured: "
        f"{n / sum(latencies):.3f} ops/s, p50 {1000 * statistics.median(latencies):.2f} ms, "
        f"p90 {1000 * percentile(latencies, 90):.1f} ms, "
        f"setup {statistics.median(setups):.4f} s; scaled: "
        + ", ".join(f"p{p} {1000 * percentile(scaled, p):.1f} ms" for p in (87, 90, 93)),
        file=sys.stderr,
    )
    return {
        "ops_per_s": (n / sum(scaled), "1/s"),
        "op_p50_ms": (1000 * statistics.median(scaled), "ms"),
        "op_p90_ms": (1000 * percentile(scaled, 90), "ms"),
        "correct_share": ((runner.attempted - runner.failed) / runner.attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_meter.scaled(setups)), "s"),
    }


class GcWatch:
    """Garbage-collection pauses, read through gc.callbacks."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = perf_counter()
        else:
            self.pause_s += perf_counter() - self._t0
            self.gen2 += info["generation"] == 2


def per_layer(name, seed, runner):
    """Each operation runs untraced and then traced, back to back, so that
    the tracing overhead is measured at one machine speed; the tracer is
    off while outputs are checked."""
    _, lib, deck = setup(name, seed, runner)
    ops = []
    for _, pass_ops in zip(range(TRACE_PASSES[name]), passes(deck, seed)):
        ops += pass_ops
    watch = GcWatch()
    trace = tracer.Tracer(lib)
    untraced = traced = 0.0
    for i, op in enumerate(ops):
        gc.callbacks.append(watch)
        try:
            untraced += runner.timed(op)
        finally:
            gc.callbacks.remove(watch)
        try:
            trace.install()
            t0 = perf_counter()
            trace.begin_op(i, op.kind)
            out, raised = runner.execute(op)
            trace.end_op()
            traced += perf_counter() - t0
        finally:
            trace.uninstall()
        runner.verdict(op, out, raised)

    OUT_DIR.mkdir(exist_ok=True)
    trace.dump(OUT_DIR / f"trace-{name}-seed{seed}.json")
    metrics = trace.metrics()
    metrics["gc.pause_s"] = (watch.pause_s, "s")
    metrics["gc.gen2.collections"] = (watch.gen2, "count")
    metrics["trace.overhead_share"] = (1 - untraced / traced, "share")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runner = Runner()
    try:
        if args.trace:
            metrics = per_layer(args.workload, args.seed, runner)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, runner)
    except ImportError as exc:
        print(f"cannot import qshuffle from {workloads.SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
