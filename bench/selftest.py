#!/usr/bin/env python3
"""Self-test of the benchmark, on the smallest job of each workload.

    python3 bench/selftest.py

For each workload it runs the cheapest job untraced and then traced, and
checks that:

- both answers match the frozen values, and the traced answer equals the
  untraced one;
- the self times of the job's spans add up to the traced job time, up to
  the time spent outside any span (the call into the job and the tracer's
  own bookkeeping), which must stay within TRACE_SLACK of the job time;
- the tracer put every original function back.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import time

import run
import workloads
from tracer import Tracer, self_times

# workload -> name of its smallest job
SMALLEST = {
    "cohomology": "algebra n=2 d=2",
    "search": ("search --predicate nijenhuis --bundle corpus/g3.json "
               "--field f2 --shape 3x3"),
    "corpus-cli": f"check morphism {workloads.CORPUS}morphism-identity.json",
}
TRACE_SLACK = 0.05   # share of the job time allowed outside every span
TRACE_FLOOR = 0.002  # seconds allowed outside every span on very short jobs


def _leftover_wrappers():
    found = []
    for key, module in sorted(sys.modules.items()):
        if module is None or not (key == "prelie" or key.startswith("prelie.")):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "span_name"):
                found.append(f"{key}.{attr}")
            if isinstance(value, type):
                found.extend(f"{key}.{attr}.{name}" for name, member in vars(value).items()
                             if hasattr(member, "span_name"))
    return found


def check_workload(name):
    problems = []
    prelie = run.import_prelie()
    jobs = {job.name: job for job in workloads.setup(name, prelie, {})}
    job = jobs[SMALLEST[name]]

    plain = job.call()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = 0
        t0 = time.perf_counter()
        traced = job.call()
        elapsed = time.perf_counter() - t0
    finally:
        tracer.restore()

    for label, answer in (("untraced", plain), ("traced", traced)):
        problem = job.check(answer)
        if problem is not None:
            problems.append(f"{label} answer: {problem}")
    if traced != plain:
        problems.append("traced answer differs from the untraced one")

    own = sum(s for _, _, s in self_times(tracer.spans))
    outside = elapsed - own
    if not tracer.spans:
        problems.append("the traced job recorded no spans")
    elif outside < 0 or outside > max(TRACE_SLACK * elapsed, TRACE_FLOOR):
        problems.append(f"span self times sum to {own:.6f} s of a {elapsed:.6f} s job")
    leftovers = _leftover_wrappers()
    if leftovers:
        problems.append(f"tracer left wrappers in place: {leftovers}")
    print(f"{name}: job {job.name!r}, {len(tracer.spans)} spans, "
          f"{elapsed * 1e3:.3f} ms traced, {outside * 1e6:.1f} us outside spans: "
          f"{'ok' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"  {problem}")
    return not problems


def main():
    os.chdir(run.ROOT)
    ok = all([check_workload(name) for name in workloads.WORKLOADS])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
