import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mertenslab import summation as S
from mertenslab.arith import (_log_powers, log_factorial_blocks,
                              log_factorial_table, mobius_values)
from mertenslab.summation import (CUMSUM_BLOCK, _jump_cumulative, _multiples,
                                  compensated_cumsum, cumsum_blocks,
                                  dirichlet, fsum, running_sums)

from oracles import (compensated_cumsum_loop, dirichlet_brute,
                     running_sum_loop)


def _mixed(n: int) -> np.ndarray:
    # magnitudes from 1e-300 to 1e300 with both signs: a plain sum drifts
    rng = np.random.default_rng(n)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


@pytest.mark.parametrize("n", [0, 1, CUMSUM_BLOCK - 1, CUMSUM_BLOCK,
                               CUMSUM_BLOCK + 1, 3 * CUMSUM_BLOCK + 7,
                               664579])
def test_fsum_matches_whole_list(n):
    # the array path feeds math.fsum the same sequence
    for values in (_mixed(n), 1.0 / np.arange(1, n + 1, dtype=np.float64)):
        assert fsum(values).hex() == math.fsum(values.tolist()).hex()


def test_fsum_memory_is_one_chunk():
    values = np.random.default_rng(0).random(10 ** 6)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fsum(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 ** 6


def test_fsum_views_and_integers():
    values = _mixed(3 * CUMSUM_BLOCK + 7)
    ints = np.random.default_rng(1).integers(-2 ** 62, 2 ** 62, 10 ** 4)
    for view in (values[::3], values[::-1], ints):
        assert fsum(view).hex() == math.fsum(view.tolist()).hex()


def test_fsum_reads_a_strided_view_in_place():
    # a copy of the view or a list of its elements would take >= 8 MB
    view = np.random.default_rng(0).random(2 * 10 ** 6)[::2]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fsum(view)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def _bits(values) -> list[tuple[str, float]]:
    return [(v.hex(), math.copysign(1.0, v)) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(1e-300, 1e300),
                          st.floats(-1e300, -1e-300),
                          st.sampled_from([0.0, -0.0])), max_size=60))
@example([])
@example([-0.0])
@example([-0.0, -0.0, 0.0])
@example([1e16, 1.0, -1e16])
@example([1.0, 1e100, 1.0, -1e100])
@example([1e300, -1e300, 1e-300, 3e-300])
def test_running_sums_match_the_loop(values):
    # the two-cumsum form is the sequential Neumaier loop, bit for bit
    got = running_sums(values)
    assert _bits(got.tolist()) == _bits([0.0, *running_sum_loop(values)])


def test_running_sums_compensate():
    # the 1.0 that a plain running sum loses survives the correction
    assert np.cumsum([1e16, 1.0, -1e16])[-1] == 0.0
    assert running_sums([1e16, 1.0, -1e16])[-1] == 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10 ** 6), st.integers(0, 40)),
                max_size=30))
@example([])
@example([(5, 0)])
@example([(1, 3), (7, 0), (7, 2), (2, 0)])
def test_multiples_match_the_nested_loop(pairs):
    # bases in the order given, repeats kept; a count of 0 lays nothing
    bases = np.array([b for b, _ in pairs], dtype=np.int64)
    counts = np.array([c for _, c in pairs], dtype=np.int64)
    d, j = _multiples(bases, counts)
    assert d.dtype == j.dtype == np.int64
    assert list(zip(d.tolist(), j.tolist())) == [
        (b, k) for b, c in pairs for k in range(1, c + 1)]


_SPARSE = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-1e100, 1e100, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 60).flatmap(
    lambda x: st.tuples(st.just(x),
                        st.lists(_SPARSE, min_size=x + 1, max_size=x + 1),
                        st.lists(_SPARSE, min_size=x + 1, max_size=x + 1))))
@example((0, [1.0], [1.0]))
@example((1, [0.0, -0.0], [0.0, 5.0]))
@example((6, [0.0, 1.0, -0.0, 0.0, 0.0, 0.0, -1.0],
          [0.0, -0.0, 1e16, 1.0, -1e16, 0.0, -0.0]))
@example((12, [0.0, 1e16, -1.0, 1e16, *[0.0] * 9],
          [0.0, 1.0, -1e16, 3.0, -1e16, *[1e-300] * 8]))
def test_dirichlet_matches_the_divisor_loop(case):
    # sparse f, signed zeros and cancellation: bit for bit the per-n fsum
    x, f, g = case
    f, g = np.array(f), np.array(g)
    got = dirichlet(f, g, x)
    assert _bits(got.tolist()) == _bits(dirichlet_brute(f, g, x).tolist())


def test_dirichlet_of_integer_mobius():
    # mu * 1 is 1 at n = 1 and 0 after: an int f against a float g
    mu = np.array([0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1])
    got = dirichlet(mu, np.ones(11), 10)
    assert got.dtype == np.float64
    assert got.tolist() == [0.0, 1.0, *[0.0] * 9]


def test_dirichlet_memory_is_one_window(table_1e5):
    # all x log x terms of mu * log^2 at once took 54.5 MB here; in
    # windows of 2^15 values of n the peak is 28.8 MB
    x = 10 ** 5
    mu, log2 = mobius_values(table_1e5, x), _log_powers(x, 2)
    tracemalloc.start()
    try:
        dirichlet(mu, log2, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 36 * 10 ** 6


@pytest.mark.parametrize("block", [1, 3, 64])
@pytest.mark.parametrize("n", [0, 1, 9, 4096, 4097, 8197])
def test_cumsum_blocks_are_whole_anchor_blocks(monkeypatch, n, block):
    # an anchor step of max(4, ceil(n / 2048)): 5 at n = 8197; a block
    # holds as many whole anchor blocks as fit in BLOCK, at least one
    monkeypatch.setattr(S, "CUMSUM_BLOCK", 4)
    monkeypatch.setattr(S, "BLOCK", block)
    values = _mixed(n)
    step = max(4, -(-n // 2048))
    span = max(step, block // step * step)
    blocks = list(cumsum_blocks(n, lambda a, b: values[a:b]))
    assert [(lo, b.size) for lo, b in blocks] == [
        (lo, min(span, n - lo)) for lo in range(0, n, span)]
    ref = compensated_cumsum_loop(values, 4)
    for got in (np.concatenate([np.empty(0), *[b for _, b in blocks]]),
                compensated_cumsum(values)):
        assert _bits(got.tolist()) == _bits(ref.tolist())


@pytest.mark.parametrize("block", [1, 1 << 13])
def test_log_factorial_blocks_match_one_prefix_pass(monkeypatch, block):
    # np.log per block gives the bits it gives over the whole range
    monkeypatch.setattr(S, "BLOCK", block)
    n = 10 ** 6
    terms = np.zeros(n + 1)
    terms[2:] = np.log(np.arange(2, n + 1, dtype=np.float64))
    ref = compensated_cumsum_loop(terms)
    got = np.concatenate([b for _, b in log_factorial_blocks(n)])
    assert got.tobytes() == ref.tobytes()
    assert log_factorial_table(n).tobytes() == ref.tobytes()
    assert log_factorial_table(0).tolist() == [0.0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 60), _SPARSE), max_size=50))
@example([(4, 1.0), (8, 2.0), (9, 3.0), (2, 4.0), (8, 5.0), (3, 6.0)])
def test_jump_cumulative_is_the_stable_sort(pairs):
    # ties and any order: a leading run merged with the sorted rest
    positions = np.array([q for q, _ in pairs], dtype=np.int64)
    terms = np.array([t for _, t in pairs], dtype=np.float64)
    order = np.argsort(positions, kind="stable")
    pos, cum = _jump_cumulative(positions, terms)
    assert pos.tolist() == positions[order].tolist()
    assert _bits(cum.tolist()) == _bits(
        compensated_cumsum_loop(terms[order]).tolist())
