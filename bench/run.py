#!/usr/bin/env python3
"""The prelie benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cohomology|search|corpus-cli \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Each run is a closed loop in one process and one thread: the next job
starts only when the previous one has finished.  A pass runs every job of
the workload once, in an order drawn from the seed; passes repeat until
``--seconds`` have gone by, and at least twice.  Every answer is checked
against the frozen value in `workloads.py`.

The calibration kernel (`calib.py`) is timed between jobs.  Each job's
time is divided by the median of the kernel times taken just before and
just after it, which cancels most of the machine's drift; the ``*_norm``
metrics are in these calibration units.  Set-ups are normalised the same
way, and ``setup_s`` converts the result back to seconds at the fixed
kernel time REFERENCE_KERNEL_S.  Raw seconds are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics of the traced
passes and writes their spans to ``bench/out/``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer, self_times  # noqa: E402

FIRST_SETUPS = 3
# The kernel's time on an unloaded 2-vCPU Intel Xeon VM under CPython 3.11.
# setup_s is the set-up time in seconds at this kernel speed: raw set-up
# seconds follow the machine's drift, which lasts minutes at a time.
REFERENCE_KERNEL_S = 0.002
MIN_PASSES = 2
CALIB_REPS = 3

# Checker spans counted by search.full_checks when their parent is a search.
CHECKERS = {"reynolds.check_rcw_reynolds", "reynolds.check_weighted_reynolds",
            "reynolds.check_d_reynolds", "nsprelie.check_nijenhuis",
            "deformation.check_nijenhuis_element"}
VERIFY = {"algebra.check_prelie", "algebra.check_representation"}

# Per-layer metrics: name -> unit.  Self times are in calibration units.
PER_LAYER = {
    "cochain.coboundary_matrix.self_norm": "calib",
    "cochain.coboundary_matrix.cols": "count",
    "linalg.rref.calls": "count",
    "linalg.rref.self_norm": "calib",
    "linalg.rref.entries": "count",
    "linalg.mul.calls": "count",
    "linalg.mul.self_norm": "calib",
    "linalg.mul.madds": "count",
    "cochain.coboundary.calls": "count",
    "cochain.coboundary.self_norm": "calib",
    "cochain.check_two_cocycle.calls": "count",
    "reynolds.check_rcw_reynolds.calls": "count",
    "reynolds.check_rcw_reynolds.self_norm": "calib",
    "reynolds.induced_product.calls": "count",
    "search.candidates": "count",
    "search.solutions": "count",
    "search.accept_ratio": "ratio",
    "search.full_checks": "count",
    "search.self_norm": "calib",
    "opcohomology.induced_representation.calls": "count",
    "opcohomology.self_norm": "calib",
    "brackets.self_norm": "calib",
    "brackets.diamond.calls": "count",
    "deformation.self_norm": "calib",
    "deformation.check_nijenhuis_element.calls": "count",
    "nsprelie.self_norm": "calib",
    "algebra.verify.calls": "count",
    "algebra.self_norm": "calib",
    "bundle.parse_bundle.calls": "count",
    "bundle.self_norm": "calib",
    "cli.self_norm": "calib",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The checkout has no `prelie` sources to benchmark."""


def import_prelie():
    """A fresh import of `prelie` from the checkout's ``src/``."""
    for key in [k for k in sys.modules if k == "prelie" or k.startswith("prelie.")]:
        del sys.modules[key]
    src = ROOT / "src"
    if not (src / "prelie" / "__init__.py").is_file():
        raise SetupError(f"no prelie sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    prelie = importlib.import_module("prelie")
    for sub in ("cli", "bundle"):
        importlib.import_module(f"prelie.{sub}")
    if Path(prelie.__file__).resolve().parent != (src / "prelie").resolve():
        raise SetupError(f"prelie was imported from {prelie.__file__}")
    return prelie


def setup(workload, seen):
    """Import `prelie` afresh and build the workload; returns (jobs, seconds).

    The previous build's garbage is collected first, so that its cost is
    not charged to this set-up.
    """
    gc.collect()
    t0 = time.perf_counter()
    jobs = workloads.setup(workload, import_prelie(), seen)
    return jobs, time.perf_counter() - t0


class Pass:
    """Timings and outcomes of one pass over a workload's jobs."""

    def __init__(self, traced):
        self.traced = traced
        self.times = {}     # job index -> seconds
        self.norms = {}     # job index -> calibration units
        self.calib = []     # kernel seconds
        self.failures = []  # (job name, message)
        self.spans = (0, 0)
        self.work = {}

    def solve_norm(self):
        return sum(self.norms.values())

    def solve_s(self):
        return sum(self.times.values())


def run_pass(jobs, order, before, tracer=None, pass_no=0):
    """Run ``jobs`` once in ``order``; ``before`` are the last kernel times.

    Returns the Pass and the kernel times taken after its last job.
    """
    result = Pass(tracer is not None)
    result.calib.extend(before)
    for index in order:
        job = jobs[index]
        if tracer is not None:
            tracer.job = (pass_no, index)
        t0 = time.perf_counter()
        try:
            answer = job.call()
        except Exception as exc:  # a failing job is counted, not fatal
            elapsed = time.perf_counter() - t0
            problem = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - t0
            try:
                problem = job.check(answer)
            except Exception as exc:  # a malformed answer is a wrong answer
                problem = f"answer check raised {type(exc).__name__}: {exc}"
        after = calib.sample(CALIB_REPS)
        result.calib.extend(after)
        result.times[index] = elapsed
        result.norms[index] = elapsed / statistics.median(before + after)
        if problem is not None:
            result.failures.append((job.name, problem))
        before = after
    return result, before


def run_passes(workload, seed, seconds, trace):
    """Closed loop of passes; with ``trace`` every second pass is traced.

    The workload is set up again before every pass, and FIRST_SETUPS times
    before the first, so that the set-up times are sampled across the run;
    like the jobs, each set-up is bracketed by kernel samples.  Returns the
    passes, the (seconds, calibration units) of every set-up and the tracer.
    """
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    seen = {}
    setups = []
    before = calib.sample(CALIB_REPS)

    def timed_setup():
        nonlocal before
        jobs, elapsed = setup(workload, seen)
        after = calib.sample(CALIB_REPS)
        setups.append((elapsed, elapsed / statistics.median(before + after)))
        before = after
        return jobs

    for _ in range(FIRST_SETUPS - 1):
        timed_setup()
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        jobs = timed_setup()
        order = list(range(len(jobs)))
        rng.shuffle(order)
        traced = trace and len(passes) % 2 == 1
        if not traced:
            done, before = run_pass(jobs, order, before)
        else:
            lo = len(tracer.spans)
            tracer.work.clear()
            tracer.install()
            try:
                done, before = run_pass(jobs, order, before, tracer, len(passes))
            finally:
                tracer.restore()
            done.spans = (lo, len(tracer.spans))
            done.work = dict(tracer.work)
        passes.append(done)
    return passes, setups, tracer


def end_to_end(passes, setups):
    """End-to-end metrics of the untraced passes and of the set-ups.

    The job latency percentiles are taken over the per-job medians, not
    over all samples: the jobs of a workload differ in cost by orders of
    magnitude, so a percentile of the pooled samples jumps from one job to
    the next as the number of passes changes.
    """
    jobs = sorted(passes[0].norms)
    per_job = [statistics.median(p.norms[j] for p in passes) for j in jobs]
    deciles = statistics.quantiles(per_job, n=10, method="inclusive")
    kernel = [c for p in passes for c in p.calib]
    metrics = {
        "solve_norm": (sum(per_job), "calib"),
        "job_p50_norm": (statistics.median(per_job), "calib"),
        "job_p90_norm": (deciles[8], "calib"),
        "ok_ratio": (1 - sum(len(p.failures) for p in passes) /
                     sum(len(p.norms) for p in passes), "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "MiB"),
        "setup_s": (statistics.median(n for _, n in setups) * REFERENCE_KERNEL_S, "s"),
    }
    raw = {
        "solve_s": sum(statistics.median(p.times[j] for p in passes) for j in jobs),
        "calib_s": statistics.median(kernel),
        "setup_raw_s": statistics.median(t for t, _ in setups),
        "passes": len(passes),
        "jobs": len(jobs),
    }
    return metrics, raw


def _pass_layers(spans, p):
    """Calls, self seconds and work counts of one traced pass."""
    lo, hi = p.spans
    calls = Counter()
    self_s = defaultdict(float)
    full_checks = 0
    for name, parent, own in self_times(spans, lo, hi):
        calls[name] += 1
        self_s[name] += own
        self_s[name.split(".")[0]] += own
        if name in CHECKERS and parent >= 0 and spans[parent][0] == "search.exhaustive_search":
            full_checks += 1
    candidates, solutions = p.work.get("search.exhaustive_search", (0, 0))
    counts = {
        "cochain.coboundary_matrix.cols": p.work.get("cochain.coboundary_matrix", 0),
        "linalg.rref.calls": calls["linalg.rref"],
        "linalg.rref.entries": p.work.get("linalg.rref", 0),
        "linalg.mul.calls": calls["linalg.mul"],
        "linalg.mul.madds": p.work.get("linalg.mul", 0),
        "cochain.coboundary.calls": calls["cochain.coboundary"],
        "cochain.check_two_cocycle.calls": calls["cochain.check_two_cocycle"],
        "reynolds.check_rcw_reynolds.calls": calls["reynolds.check_rcw_reynolds"],
        "reynolds.induced_product.calls": calls["reynolds.induced_product"],
        "search.candidates": candidates,
        "search.solutions": solutions,
        "search.full_checks": full_checks,
        "opcohomology.induced_representation.calls":
            calls["opcohomology.induced_representation"],
        "brackets.diamond.calls": calls["brackets.diamond"],
        "deformation.check_nijenhuis_element.calls":
            calls["deformation.check_nijenhuis_element"],
        "algebra.verify.calls": sum(calls[n] for n in VERIFY),
        "bundle.parse_bundle.calls": calls["bundle.parse_bundle"],
    }
    return counts, self_s


def per_layer(passes, tracer):
    """Per-layer metrics of the traced passes, and a readable layer table."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    problems = []
    counts = None
    selfs = []
    for p in traced:
        c, s = _pass_layers(tracer.spans, p)
        if counts is not None and c != counts:
            problems.append(("trace", f"exact counts differ between passes: {counts} vs {c}"))
        counts = counts or c
        kernel = statistics.median(p.calib)
        selfs.append({name: (sec, sec / kernel, sec / p.solve_s()) for name, sec in s.items()})

    def self_of(name):
        rows = [s.get(name, (0.0, 0.0, 0.0)) for s in selfs]
        return tuple(statistics.median(r[k] for r in rows) for k in range(3))

    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in counts:
            value = counts[name]
        elif name.endswith(".self_norm"):
            value = self_of(name[:-len(".self_norm")])[1]
        elif name == "search.accept_ratio":
            value = counts["search.solutions"] / counts["search.candidates"] \
                if counts["search.candidates"] else 0.0
        elif name == "trace.overhead_ratio":
            value = statistics.median(p.solve_norm() for p in traced) / \
                statistics.median(p.solve_norm() for p in plain)
        metrics[name] = (value, unit)
    table = {layer: self_of(layer) for layer in TRACED}
    return metrics, table, problems


def _result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        os.chdir(ROOT)
        setup(args.workload, {})  # fails early; also compiles the bytecode
    except Exception:  # no sources or corpus: report and print no result
        traceback.print_exc()
        print("benchmark setup failed; no result", file=sys.stderr)
        return 2

    passes, setups, tracer = run_passes(args.workload, args.seed, args.seconds,
                                        args.trace == 1)
    metrics, raw = end_to_end([p for p in passes if not p.traced], setups)
    attempted = sum(len(p.norms) for p in passes)
    problems = [f for p in passes for f in p.failures]

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{raw['jobs']} jobs; untraced: {raw['passes']} passes, "
          f"{raw['passes'] * raw['jobs']} job samples")
    print(f"  solve_s {raw['solve_s']:.4f} s  calib_s {raw['calib_s'] * 1e3:.4f} ms  "
          f"setup_raw_s {raw['setup_raw_s']:.4f} s, samples "
          f"{' '.join(f'{t:.4f}' for t, _ in setups)}")
    if args.trace:
        metrics, table, trace_problems = per_layer(passes, tracer)
        problems += trace_problems
        print(f"  {'layer':<14}{'self_s':>10}{'share':>8}{'self_norm':>12}")
        for layer, (sec, norm, share) in table.items():
            print(f"  {layer:<14}{sec:>10.4f}{share:>8.1%}{norm:>12.2f}")
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, message in problems:
        print(f"  FAIL {name}: {message}")
    failed = len(problems)
    print(_result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
