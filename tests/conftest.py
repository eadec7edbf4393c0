import tracemalloc

import pytest


def _traced_peak(fn) -> int:
    """The peak of the memory tracemalloc traces over one call of fn(), made
    after an untraced call, so that one-off allocations are not counted."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
