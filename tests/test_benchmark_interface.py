"""The benchmark's workloads (perfbench/workloads.py) run against this
checkout: a change in src/ that breaks what they read fails here, not only in
a benchmark run."""
import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads   # its dataclasses look their module up there
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_sets_up_runs_and_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.setup()
    result = workload.op()
    assert workload.check(result) == []
    assert workload.rows(result) > 0
    assert all(value >= 0 for value in workload.counts(result).values())
