"""The benchmark workloads still build and verify on the current package.

One op per block of each workload runs through ``cli.run`` and must pass the
workload's own answer check, so a change that breaks a name the benchmark
imports, or an answer it expects, fails here and not only in a benchmark run.
The same ops run once more under the benchmark's tracer.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from tropmono.cli import run  # noqa: E402


def run_one_op_per_block(name, workdir):
    first = {}
    for op in workloads.build(name, 1, workdir):
        first.setdefault(op.block, op)
    assert first
    for op in first.values():
        code, text = run(list(op.argv))
        why, _ = workloads.verify(op, code, text)
        assert why is None, (op.argv, why)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_per_block_verifies(tmp_path, name):
    run_one_op_per_block(name, str(tmp_path))


def test_traced_ops_verify_and_hooks_count(tmp_path):
    # the tracer's hooks read integrate_cochain's cochain (.values) and the
    # matrix shape of det (rank and rref, which the hook also names, are no
    # longer in the package); a refactor that moves those arguments must
    # fail here, not only in a traced benchmark run.  The ladder computes
    # no determinant, so linalg.elim_cells now comes only from the ord
    # check ops, through Presentation.ord_value
    tracer = tracing.Tracer()
    tracer.install({name.split(".", 1)[1]: module
                    for name, module in sys.modules.items()
                    if name.startswith("tropmono.")})
    try:
        for name in sorted(workloads.WORKLOADS):
            run_one_op_per_block(name, str(tmp_path / name))
    finally:
        tracer.uninstall()
    assert tracer.counts["order_map.ladder.integrations"] > 0
    assert tracer.counts["linalg.elim_cells"] > 0
