"""The benchmark's callers of hkforge, run once each.

A change to the library that breaks what ``bench/`` calls fails here: the
negative controls of ``bench/check_controls.py`` run in their own process,
and one seed-1 item of every workload runs its ops and checks in this one.
An op that raises passes only as the known fault its ``Op.expect`` names.
"""

import os
import subprocess
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, BENCH)
    try:
        import workloads
        yield workloads
    finally:
        sys.path.remove(BENCH)


def test_check_controls():
    done = subprocess.run([sys.executable,
                           os.path.join(BENCH, "check_controls.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("name", ["metric-grid", "wall-approach", "certify"])
def test_one_item_per_workload(workloads, name):
    workload = workloads.WORKLOADS[name](workloads.import_hkforge(), 1)
    workload.setup()
    inp = workload.next_round()[0]
    results = {}
    for op in workload.ops(inp):
        try:
            results[op.kind] = op.fn()
        except Exception as exc:  # an op may fail only as its known fault
            assert op.expect == type(exc).__name__, (
                f"{op.kind} at {op.where}: {type(exc).__name__}: {exc}")
    checks = workload.check(inp, results)
    assert checks
    assert [c.name for c in checks if not c.ok] == []
