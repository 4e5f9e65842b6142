"""The pinned output bytes do not depend on which SIMD kernels numpy picks."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the tests that pin output bytes: the helium pipeline digests and the lowered
# circuits (this module is not among them, so the child starts no child)
PINNED_BYTES_TESTS = ["tests/test_cli.py::test_pipeline_outputs_pinned",
                      "tests/test_cli.py::test_more_pipeline_outputs_pinned",
                      "tests/test_lowering.py::test_lowered_bytes_pinned",
                      "tests/test_lowering.py::test_lone_gates_lower_as_before"]


def test_pinned_bytes_do_not_depend_on_simd_level():
    """Run the pinned-digest tests in a child process whose numpy dispatches
    to its baseline kernels only (X86_V2 on x86-64): numpy's AVX-512 arccos,
    arcsin, arctan2 and real exp round differently from its baseline ones.

    NPY_DISABLE_CPU_FEATURES is set on the child alone. On a host without
    these features the child runs at this process's dispatch level, and the
    check is the same as the pinned tests themselves. Other numpy versions and
    non-x86 CPUs are not covered."""
    env = {**os.environ,
           "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}
    child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            *PINNED_BYTES_TESTS], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
    assert " passed" in child.stdout and "failed" not in child.stdout
