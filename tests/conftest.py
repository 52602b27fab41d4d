import sys
import tracemalloc

import numpy as np
import pytest

from semishot import SupportSet, UnlabeledSet, experiment, objectives
from semishot.zeroshot import check_array


def unit_rows(rng, n, d):
    """Random unit-norm rows."""
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def unwritten(call, *arrays):
    """``call(*arrays)``, asserting that it leaves the bytes of every
    array as they were."""
    before = [a.tobytes() for a in arrays]
    out = call(*arrays)
    assert [a.tobytes() for a in arrays] == before
    return out


def random_support(rng, n, c, d, ensure_all_classes=False):
    """Random labeled set; optionally force every class to appear."""
    if ensure_all_classes:
        assert n >= c
        idx = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
        rng.shuffle(idx)
    else:
        idx = rng.integers(0, c, size=n)
    return SupportSet.from_indices(unit_rows(rng, n, d), idx, c)


def random_unlabeled(rng, m, d):
    if m == 0:
        return UnlabeledSet.empty(d)
    return UnlabeledSet.from_embeddings(unit_rows(rng, m, d))


def random_codes(rng, m, c):
    """Random simplex rows (M, C)."""
    z = rng.random((m, c)) + 1e-3
    return z / z.sum(axis=1, keepdims=True)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def spy(monkeypatch, real, record):
    """Patch ``real`` in every semishot module that binds it with a call
    that passes its arguments to ``record`` first, then returns
    ``real``'s result."""
    def spying(*args, **kwargs):
        record(*args, **kwargs)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "semishot" and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, spying)


@pytest.fixture
def array_checks(monkeypatch):
    """The ``what`` of every ``check_array`` call that a semishot module
    makes while the test runs, in call order."""
    calls = []
    spy(monkeypatch, check_array, lambda x, what, *args, **kwargs: calls.append(what))
    return calls


@pytest.fixture
def peak_bytes():
    """A function that calls ``fn()`` and returns the peak bytes that it
    allocates while it runs, as tracemalloc sees it (NumPy's array
    buffers included)."""
    def measure(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def labeled_sums(monkeypatch):
    """The batch size B of every ``objectives._labeled_sums`` call that a
    semishot module makes while the test runs, in call order."""
    calls = []
    spy(monkeypatch, objectives._labeled_sums, lambda supports: calls.append(len(supports)))
    return calls


@pytest.fixture
def permutations(monkeypatch):
    """The seed of every draw order, a permutation of the pool, that
    ``experiment._draw_order`` makes for a semishot module while the
    test runs, in call order."""
    seeds = []
    spy(monkeypatch, experiment._draw_order,
        lambda labels, class_count, spec: seeds.append(spec.seed))
    return seeds
