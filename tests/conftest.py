import multiprocessing

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces multiprocessing.Pool by a fake that maps in this process;
    returns the list of the process counts asked of it."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return sizes
