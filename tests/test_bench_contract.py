"""The benchmark's contract with the library.

The traced benchmark patches prelie functions by name; every name must
resolve.  `bench/tracer.py` lists in `TRACED` the functions it wraps, by
defining module.  A rename in the library would break the traced
benchmark run, so each name is looked up here the way `Tracer.install`
looks it up: a module attribute, or ``Class.method`` in the class
``__dict__``.

Every benchmark job must also still give its frozen answer
(`bench/workloads.py`), so a changed stdout digest of a benchmarked CLI
command fails the suite, not only a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import prelie
import prelie.bundle
import prelie.cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(layer: str, qualname: str) -> bool:
    module = importlib.import_module(f"prelie.{layer}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return callable(getattr(module, cls_name, object).__dict__.get(attr))
    return callable(getattr(module, qualname, None))


def test_every_traced_name_resolves():
    tracer = _load("bench_tracer", TRACER)
    names = [(layer, name) for layer, names in tracer.TRACED.items() for name in names]
    assert len(names) > 50
    assert [f"{layer}.{name}" for layer, name in names if not _resolves(layer, name)] == []


@pytest.mark.parametrize("workload", sorted(_load("bench_workloads", WORKLOADS).WORKLOADS))
def test_every_benchmark_job_gives_its_frozen_answer(monkeypatch, workload):
    workloads = _load("bench_workloads", WORKLOADS)
    monkeypatch.chdir(ROOT)  # the workloads name corpus bundles relative to the root
    jobs = workloads.setup(workload, prelie, {})
    assert jobs
    assert [(job.name, problem) for job in jobs
            if (problem := job.check(job.call())) is not None] == []
