"""The benchmark's workloads still import and run against the package.

One operation of each workload in `benchmarks/workloads.py`, so that a
change to the exported API that would break the benchmark fails here.
"""

from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCHMARKS))
        import workloads
        yield workloads


@pytest.mark.parametrize("name", ["recover-complex", "recover-real", "init-sweep", "oracle"])
def test_workload_runs_one_operation(workloads, name):
    workload = workloads.make(name)
    workload.prepare(0)
    result = workload.run(0)
    assert not workload.is_failure(result)
