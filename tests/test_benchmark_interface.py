"""The benchmark's workloads (perfbench/workloads.py) run against this
checkout: a change in src/ that breaks what they read fails here, not only in
a benchmark run."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads, tracing = _load("workloads"), _load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_sets_up_runs_and_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.setup()
    result = workload.op()
    assert workload.check(result) == []
    assert workload.rows(result) > 0
    assert all(value >= 0 for value in workload.counts(result).values())


def test_traced_entry_points_exist():
    # the tracer skips a name it cannot find, so a renamed entry point would
    # read 0 in its per-layer metrics instead of failing
    missing = [f"{module}.{attr}" for module, attr in tracing.SPANNED
               if not hasattr(importlib.import_module(f"mp2q.{module}"), attr)]
    assert missing == ["estimate._sweep_row"]   # gone since the sweep made rows in chunks
