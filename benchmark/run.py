"""Benchmark for logtw: three seeded, closed-loop workloads in one process.

    python3 benchmark/run.py --workload members --seed 1 --seconds 40 --trace 0

One client, no threads: each op is one input graph taken through the
user-facing steps, and the next op starts when the last one is done.  A
run makes full passes over the inputs, each followed by one more set-up,
until another pass would overrun --seconds of wall time.  The first pass
checks every output in full; later passes must reproduce its outputs
exactly, and every set-up must give the same input digest.  `setup_s` is
the median set-up time over the run.

Times are reported at reference speed: each op and set-up time is scaled
by a fixed reference workload (reference.py) measured just before and
after it, because the shared machine this was built on changes speed by
up to 1.7x for stretches of seconds to minutes.  An input's op time is
the median over the passes of its scaled time; `op_s.p50` and `op_s.tail`
are taken over structures, each the mean over its labelled copies.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, and prints per-layer self times and counts per traced
pass, the tracing overhead and how much of each op's wall time the spans
cover.  The last line of standard output is one JSON object; exit code 1
means a wrong output, 2 that the benchmark could not run.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was

from reference import NOMINAL_S, Reference  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("members", "uncertified", "solve")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
REF_EVERY_S = 0.5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Speed:
    """Measurements of the reference workload, taken around every set-up
    and between ops at least every REF_EVERY_S.  A time measured between
    measurements a and a + 1 is taken to reference speed by
    NOMINAL_S / sqrt(refs[a] * refs[a + 1])."""

    def __init__(self):
        self.reference = Reference()
        self.refs = []
        self.last = 0.0

    def mark(self):
        """Measure; return the new measurement's index."""
        self.refs.append(self.reference())
        self.last = time.perf_counter()
        return len(self.refs) - 1

    def due(self):
        return time.perf_counter() - self.last >= REF_EVERY_S

    def scaled(self, seconds, after):
        """`seconds`, measured after measurement `after` and before the
        next, at reference speed."""
        return seconds * NOMINAL_S / math.sqrt(
            self.refs[after] * self.refs[after + 1])


class Setup:
    """Times set-ups of one workload and seed.  The run repeats set-up
    between passes, so `setup_s`, the median, is taken over the whole run.
    Every set-up must give the same input digest."""

    def __init__(self, workloads, name, seed, speed):
        self.workloads = workloads
        self.name = name
        self.seed = seed
        self.speed = speed
        self.times = []
        self.digest = None

    def __call__(self):
        before = self.speed.mark()
        t0 = time.perf_counter()
        inputs, digest = self.workloads.setup(self.name, self.seed)
        self.times.append((time.perf_counter() - t0, before))
        self.speed.mark()
        if self.digest not in (None, digest):
            raise RuntimeError(f"set-up is not deterministic: {digest} "
                               f"after {self.digest}")
        self.digest = digest
        return inputs

    def median_s(self):
        """Median set-up time at reference speed."""
        while len(self.times) < SETUP_REPEATS:
            self()
        return statistics.median(self.speed.scaled(t, a)
                                 for t, a in self.times)


class Run:
    """Op times, outcomes and checked summaries, per input."""

    def __init__(self, name, inputs, checks, op, speed):
        self.name = name
        self.inputs = inputs
        self.checks = checks
        self.op = op
        self.speed = speed
        # per input, one (seconds, reference index before it) per pass
        self.times = [[] for _ in inputs]
        self.traced = []                    # per pass: was it traced
        self.outcomes = [None] * len(inputs)
        self.summaries = [None] * len(inputs)
        self.ops = 0
        self.failed = 0
        self.op_s = 0.0
        # per input, over its traced ops: [time in outermost spans, time]
        self.coverage = [[0.0, 0.0] for _ in inputs]

    @property
    def passes(self):
        return len(self.traced)

    def one_pass(self, tracer=None):
        """One op per input; with a tracer, also record how much of each
        op's wall time the outermost spans cover."""
        first = self.passes == 0
        if tracer is not None:
            tracer.install()
        try:
            for i, item in enumerate(self.inputs):
                if self.speed.due():
                    self.speed.mark()
                top = tracer.top_s if tracer else 0.0
                t0 = time.perf_counter()
                outcome, res = self.checks.run_op(self.op, item)
                dt = time.perf_counter() - t0
                if tracer is not None:
                    self.coverage[i][0] += tracer.top_s - top
                    self.coverage[i][1] += dt
                self.times[i].append((dt, len(self.speed.refs) - 1))
                self.ops += 1
                self.op_s += dt
                self.failed += outcome != "ok"
                summary = self.checks.check_outcome(self.name, item,
                                                    outcome, res, first)
                if first:
                    self.outcomes[i], self.summaries[i] = outcome, summary
                elif (outcome, summary) != (self.outcomes[i],
                                            self.summaries[i]):
                    raise self.checks.WrongOutput(
                        f"{item.name}: {outcome} {summary} differs from "
                        f"the first pass ({self.outcomes[i]} "
                        f"{self.summaries[i]})")
                # free this op's outputs here, not inside the next op's
                # timing
                del res
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.traced.append(tracer is not None)

    def until(self, seconds, setup, tracer=None):
        """Passes, each followed by one set-up, until `seconds` of wall
        time would be overrun by another; at least two (with a tracer,
        every other pass is traced)."""
        deadline = time.perf_counter() + seconds
        longest = 0.0
        minimum = 2
        while True:
            t0 = time.perf_counter()
            traced = tracer is not None and self.passes % 2 == 1
            self.one_pass(tracer if traced else None)
            setup()
            longest = max(longest, time.perf_counter() - t0)
            if (self.passes >= minimum
                    and time.perf_counter() + longest > deadline):
                break

    def op_times(self, traced=False):
        """Per input, the median over the (un)traced passes of its op time
        at reference speed."""
        keep = [p for p, t in enumerate(self.traced) if t == traced]
        return [statistics.median(self.speed.scaled(*t[p]) for p in keep)
                for t in self.times]

    def end_to_end(self):
        per_input = self.op_times()
        ok = [i for i, o in enumerate(self.outcomes) if o == "ok"]
        # an ok structure's op time: the mean over its labelled copies
        copies = {}
        for i in ok:
            copies.setdefault(self.inputs[i].structure, []).append(
                per_input[i])
        structures = sorted(statistics.fmean(c) for c in copies.values())
        widths = [self.summaries[i][0] for i in ok]
        ok_ops = self.ops - self.failed
        if len(structures) > TAIL_BEYOND:
            tail = structures[-TAIL_BEYOND - 1]
            pct = 100 * (len(structures) - TAIL_BEYOND) // len(structures)
        else:
            tail, pct = structures[-1], 100
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "op_s.p50": (statistics.median(structures), "s"),
            "op_s.tail": (tail, "s"),
            "ops_per_s": (len(ok) / sum(per_input), "1/s"),
            "ok_frac": (ok_ops / self.ops, "frac"),
            "width_sum": (sum(widths), "count"),
            "width_max": (max(widths), "count"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        certified = sum(1 for i in ok if self.summaries[i][1])
        wall = [statistics.median(dt for dt, _ in self.times[i])
                for i in ok]
        refs = self.speed.refs
        notes = [f"op_s.tail is p{pct} of {len(structures)} ok structures "
                 f"({TAIL_BEYOND} beyond), each the mean of its "
                 f"labellings; {self.ops} ops in {self.passes} passes, "
                 f"{self.op_s:.3f} s in ops",
                 f"unscaled wall time: op_s.p50 over inputs "
                 f"{statistics.median(wall):.6f} s; {len(refs)} reference "
                 f"calls {1000 * min(refs):.3f} to {1000 * max(refs):.3f} "
                 f"ms (median {1000 * statistics.median(refs):.3f} ms, "
                 f"nominal {1000 * NOMINAL_S:.3f} ms)",
                 f"certified_frac={certified / len(self.inputs)}"]
        return metrics, notes


def _traced_run(run, seconds, setup):
    from tracing import Tracer
    tracer = Tracer()
    run.until(seconds, setup, tracer)
    passes = sum(run.traced)
    untraced = sum(run.op_times(traced=False))
    traced = sum(run.op_times(traced=True))
    metrics = tracer.metrics(passes)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    coverage = [top / total for top, total in run.coverage]
    metrics["trace.coverage_min"] = (min(coverage), "frac")
    ranked = sorted(((v, k) for k, (v, _) in metrics.items()
                     if k.endswith(".self_s")), reverse=True)[:6]
    notes = [f"{run.passes - passes} untraced and {passes} traced passes, "
             f"alternating; one pass at reference speed: untraced "
             f"{untraced:.3f} s, traced {traced:.3f} s; coverage median "
             f"{statistics.median(coverage):.4f}",
             "top self time per traced pass: " + ", ".join(
                 f"{k[:-len('.self_s')]} {v:.3f} s" for v, k in ranked)]
    return metrics, notes


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "logtw" / "__init__.py").is_file():
        print(f"error: no logtw sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    speed = Speed()
    setup = Setup(workloads, args.workload, args.seed, speed)
    inputs = setup()
    run = Run(args.workload, inputs, checks, workloads.OPS[args.workload],
              speed)
    try:
        if args.trace:
            metrics, notes = _traced_run(run, args.seconds, setup)
        else:
            run.until(args.seconds, setup)
            metrics = {"setup_s": (setup.median_s(), "s")}
            e2e, notes = run.end_to_end()
            metrics.update(e2e)
            unscaled = [t for t, _ in setup.times]
            notes.append(f"setup_s is the median of {len(unscaled)} "
                         f"set-ups at reference speed (unscaled "
                         f"{min(unscaled):.4f} to {max(unscaled):.4f} s)")
    except checks.WrongOutput as e:
        print(f"wrong output: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.ops,
                          "failed": run.failed, "metrics": {}}))
        return 1

    counts = {o: run.outcomes.count(o) for o in checks.OUTCOMES}
    print(f"workload={args.workload} seed={args.seed} inputs={len(inputs)} "
          f"digest=sha256:{setup.digest}")
    print("outcomes per input: " + " ".join(
        f"{k}={v}" for k, v in counts.items()))
    for i, outcome in enumerate(run.outcomes):
        if outcome != "ok":
            print(f"  {inputs[i].name}: {outcome}: {run.summaries[i]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": True, "attempted": run.ops, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
