#!/usr/bin/env python3
"""Layered benchmark of sl2star.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one thread, one caller in a closed loop: each op
starts when the previous one has returned.  The run builds its workload from
the seed, then repeats the workload's round of ops until ``--seconds`` have
passed, always finishing the round it is in.  Op times are reported in
``ref``, the time of one pass of the frozen reference computation in
``refloop.py``, timed in blocks between the ops.  The set-up is timed between
reference blocks too, and ``setup_s`` is its length in passes times
``REF_PASS_S``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (see README.md).  Detailed results, and the spans of a traced
run, are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

import refloop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

#: times the set-up is repeated; setup_s is the median
SETUP_REPEATS = 3
#: passes in each reference block around a timed part of the set-up
SETUP_REF_BLOCK = 32
#: nominal seconds of one reference pass: setup_s is the set-up's length in
#: passes times this, the seconds it takes on a machine whose pass takes 1 ms
REF_PASS_S = 1e-3
#: op time between two blocks of reference passes, and passes per block
REF_GAP_S = 0.05
REF_BLOCK = 8
#: ops that must lie beyond the reported tail percentile
TAIL_OPS = 10

IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import sl2star.cli\n"
    "print(time.perf_counter() - start)\n"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Layered benchmark of sl2star.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    if not os.path.isfile(os.path.join(SRC, "sl2star", "__init__.py")):
        fail(f"no sl2star sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import sl2star

    if not os.path.abspath(sl2star.__file__).startswith(SRC + os.sep):
        fail(f"imported sl2star from {sl2star.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Time to import the whole package, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, SRC],
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        fail(f"importing sl2star failed:\n{proc.stderr}")
    return float(proc.stdout.strip())


class RefClock:
    """Blocks of reference passes, run between ops."""

    def __init__(self):
        self.samples = []
        self._pending = 0.0

    def block(self, passes: int = REF_BLOCK) -> float:
        start = time.perf_counter()
        for _ in range(passes):
            value = refloop.ref_pass()
        self.samples.append((time.perf_counter() - start) / passes)
        if value != refloop.CHECKSUM:
            fail("the reference pass returned a wrong checksum")
        return self.samples[-1]

    def tick(self, op_s: float) -> None:
        self._pending += op_s
        if self._pending >= REF_GAP_S:
            self._pending = 0.0
            self.block()

    def unit(self) -> float:
        return statistics.median(self.samples)


def set_up(cls, seed: int):
    """Build the workload SETUP_REPEATS times.

    Returns the last build, the seconds of each import and each build, and
    the set-up's median length in reference passes.  Each import and each
    build is divided by the mean of the reference blocks timed right before
    and right after it.
    """
    ref = RefClock()
    imports, builds, passes = [], [], []
    workload = None
    before = ref.block(SETUP_REF_BLOCK)
    for _ in range(SETUP_REPEATS):
        seconds = import_seconds()
        after = ref.block(SETUP_REF_BLOCK)
        imports.append(seconds)
        passes.append(2.0 * seconds / (before + after))
        before = after
    import_passes = statistics.median(passes)
    passes = []
    for _ in range(SETUP_REPEATS):
        workload = None  # the previous build must not add to the peak RSS
        gc.collect()
        start = time.perf_counter()
        workload = cls(seed)
        workload.warm_up()
        seconds = time.perf_counter() - start
        after = ref.block(SETUP_REF_BLOCK)
        builds.append(seconds)
        passes.append(2.0 * seconds / (before + after))
        before = after
    return workload, imports, builds, import_passes + statistics.median(passes)


def run_round(workload, ref: RefClock, tracer, tally: dict) -> tuple:
    """One pass over the workload's ops.

    Returns each op's seconds (NaN if the op raised) and the index of the
    reference block that follows it, as compact arrays: their memory must
    not grow into the run's peak RSS as the rounds add up.
    """
    times = array("d")
    blocks = array("l")
    clock = time.perf_counter
    for i, inp in enumerate(workload.inputs):
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            out = workload.run(inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            tally["failed"] += 1
            tally.setdefault("errors", []).append(f"op {i}: {exc!r}")
            times.append(math.nan)
            blocks.append(0)
            continue
        finally:
            tally["attempted"] += 1
        elapsed = clock() - start
        times.append(elapsed)
        blocks.append(len(ref.samples))
        if not workload.check(i, out):
            tally["wrong"].append(i)
        ref.tick(elapsed)
    return times, blocks


def per_op_medians(rounds: list, ref_samples: list) -> tuple:
    """Each op's median time across the rounds, in seconds and in ref.

    An op's time in ref is divided by the reference block right after it,
    which was timed in the same stretch of the run.
    """
    seconds, refs = [], []
    for i in range(len(rounds[0][0])):
        ok = [(times[i], blocks[i]) for times, blocks in rounds if not math.isnan(times[i])]
        if ok:
            seconds.append(statistics.median(t for t, _ in ok))
            refs.append(statistics.median(t / ref_samples[k] for t, k in ok))
    return seconds, refs


def summarize(rounds: list, ref_samples: list) -> dict:
    seconds, refs = per_op_medians(rounds, ref_samples)
    ranked = sorted(refs)
    n = len(ranked)
    tail_rank = max(n - TAIL_OPS, 1)
    return {
        "busy_s": sum(seconds),
        "busy_ref": sum(ranked),
        "op_p50_ref": statistics.median(ranked),
        "op_tail_ref": ranked[tail_rank - 1],
        "tail_percentile": 100.0 * tail_rank / n,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # one thread: the BLAS under numpy must not start worker threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")

    workload, imports, builds, setup_passes = set_up(cls, args.seed)
    setup_s = setup_passes * REF_PASS_S

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    ref = RefClock()
    ref.block()
    tally = {"attempted": 0, "failed": 0, "wrong": []}
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        # a traced run alternates untraced and traced rounds
        tracing = tracer is not None and len(traced) < len(plain)
        if tracing:
            tracer.install()
            try:
                traced.append(run_round(workload, ref, tracer, tally))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_round(workload, ref, None, tally))
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    ref.block()  # the block after the last ops

    unit = ref.unit()
    end_to_end = summarize(plain, ref.samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = not tally["wrong"]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_per_round": len(workload.inputs),
        "rounds": len(plain), "traced_rounds": len(traced),
        "ref_pass_s": unit, "ref_blocks": len(ref.samples),
        "import_s": imports, "build_s": builds,
        "busy_s": end_to_end["busy_s"],
        "tail_percentile": end_to_end["tail_percentile"],
        "wrong_ops": tally["wrong"], "errors": tally.get("errors", [])[:20],
        "ref_samples_s": ref.samples,
        "round_op_s": [list(times) for times, _ in plain],
        "round_op_block": [list(blocks) for _, blocks in plain],
    }

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "busy_ref": (end_to_end["busy_ref"], "ref"),
            "op_p50_ref": (end_to_end["op_p50_ref"], "ref"),
            "op_tail_ref": (end_to_end["op_tail_ref"], "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_busy = summarize(traced, ref.samples)["busy_ref"]
        metrics = tracer.layer_metrics(len(traced), workload.system)
        metrics["trace.overhead_ratio"] = (traced_busy / end_to_end["busy_ref"], "ratio")
        detail["traced_busy_ref"] = traced_busy
    metrics = {name: {"value": value, "unit": unit_name}
               for name, (value, unit_name) in metrics.items()}

    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(RESULTS, stem + "-spans.json"), "w") as fh:
            json.dump(tracer.dump(), fh)

    print(f"# {args.workload} seed={args.seed} rounds={len(plain)}"
          f"+{len(traced)} ops/round={len(workload.inputs)}"
          f" busy_s={end_to_end['busy_s']:.6f} ref_pass_s={unit:.3e}"
          f" setup_raw_s={statistics.median(imports) + statistics.median(builds):.4f}"
          f" tail=p{end_to_end['tail_percentile']:.4g}")
    if not correct:
        print(f"# wrong outputs at ops {tally['wrong'][:20]}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
