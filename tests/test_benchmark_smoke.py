"""The benchmark's workloads still import and run against the package.

One operation of each workload in `benchmarks/workloads.py`, so that a
change to the exported API that would break the benchmark fails here. The
operation's traced mirror, rebuilt from the calls it is made of, must give
the same key, compared by repr as `benchmarks/run.py` compares it: a change
that reaches one path and not the other fails here too.
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
    import harness
    key, _ = workload.mirror(0, harness.Tracer())
    assert repr(key) == repr(workload.key(result))
