"""The benchmark workloads still build and verify on the current package.

One op per block of each workload runs through ``cli.run`` and must pass the
workload's own answer check, so a change that breaks a name the benchmark
imports, or an answer it expects, fails here and not only in a benchmark run.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402
from tropmono.cli import run  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_per_block_verifies(tmp_path, name):
    ops = workloads.build(name, 1, str(tmp_path))
    first = {}
    for op in ops:
        first.setdefault(op.block, op)
    assert first
    for op in first.values():
        code, text = run(list(op.argv))
        why, _ = workloads.verify(op, code, text)
        assert why is None, (op.argv, why)
