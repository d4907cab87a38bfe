import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mertenslab import summation as S
from mertenslab.arith import (_log_powers, log_base, log_factorial_blocks,
                              log_factorial_table, mobius_values,
                              prime_power_terms, prime_steps)
from mertenslab.summation import (CUMSUM_BLOCK, FSUM_CROSSOVER, FSUM_SLICE,
                                  _multiples, compensated_cumsum,
                                  cumsum_blocks, dirichlet, fsum, joined,
                                  running_sums)

from oracles import (compensated_cumsum_loop, dirichlet_brute,
                     running_sum_loop)


def _mixed(n: int) -> np.ndarray:
    # magnitudes from 1e-300 to 1e300 with both signs: a plain sum drifts
    rng = np.random.default_rng(n)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


def _outcome(sum_, values):
    """The sum's bits (its sign included) or the type of what it raised."""
    try:
        return sum_(values).hex()
    except (OverflowError, ValueError) as err:
        return type(err)


# both sides of the crossover and of one extraction slice, and slices
# that do not divide the length
LENGTHS = [0, 1, FSUM_CROSSOVER - 1, FSUM_CROSSOVER, FSUM_CROSSOVER + 1,
           FSUM_SLICE - 1, FSUM_SLICE + 1, 3 * FSUM_SLICE + 7]


@pytest.mark.parametrize("n", sorted({*LENGTHS, CUMSUM_BLOCK - 1,
                                      CUMSUM_BLOCK, CUMSUM_BLOCK + 1,
                                      3 * CUMSUM_BLOCK + 7, 664579}))
def test_fsum_matches_whole_list(n):
    # short arrays go to math.fsum and long ones through exact parts:
    # either way math.fsum's bits, over terms spanning 2000 binades or
    # the 20 of 1/n
    for values in (_mixed(n), 1.0 / np.arange(1, n + 1, dtype=np.float64)):
        assert fsum(values).hex() == math.fsum(values.tolist()).hex()


def _spread(seed: int, n: int, low: int, bits: int) -> np.ndarray:
    """n terms of both signs whose exponents span ``bits`` binades from
    2^low, clipped to the float64 range (subnormals included)."""
    rng = np.random.default_rng(seed)
    exps = np.minimum(low + rng.integers(0, bits + 1, n), 1023)
    return np.ldexp(rng.uniform(0.5, 1.0, n), exps) * rng.choice([-1, 1], n)


def _shaped(values: np.ndarray, seed: int, shape: str) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "cancel":       # x and -x, shuffled: an exact zero
        return rng.permutation(np.concatenate([values, -values]))
    if shape == "residue":      # ... plus a 1e-300 left over
        return rng.permutation(np.concatenate([values, -values, [1e-300]]))
    if shape == "special" and values.size:
        out = values.copy()
        spots = rng.integers(0, values.size, rng.integers(1, 3))
        out[spots] = rng.choice([np.inf, -np.inf, np.nan], spots.size)
        return out
    if shape == "runs":         # long runs of one sign, then a residue
        return np.concatenate([-np.abs(values), np.abs(values), [1e-300]])
    if shape == "zeros":        # +-0.0 only
        return np.where(rng.random(values.size) < 0.5, 0.0, -0.0)
    if shape == "reversed":
        return values[::-1]
    if shape == "strided":
        return values[::3]
    return values


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(LENGTHS),
       st.integers(-1074, 1023), st.integers(0, 1074),
       st.sampled_from(["plain", "cancel", "residue", "special",
                        "runs", "zeros", "reversed", "strided"]))
@example(0, FSUM_SLICE + 1, -1074, 52, "plain")      # subnormals
@example(0, 3 * FSUM_SLICE + 7, -1074, 1074, "residue")
@example(0, FSUM_CROSSOVER, 1000, 23, "cancel")      # near overflow
@example(1, FSUM_SLICE - 1, -60, 1074, "special")
@example(2, 3 * FSUM_SLICE + 7, -30, 0, "strided")
@example(3, 3 * FSUM_SLICE + 7, 5, 0, "runs")
def test_fsum_is_math_fsum_bit_for_bit(seed, n, low, bits, shape):
    # exponent spreads up to 1074 binades, cancellation to zero (its sign)
    # and to a residue, subnormals, +-inf, NaN and views: fsum gives what
    # math.fsum gives over the list, or raises what it raises
    values = _shaped(_spread(seed, n, low, bits), seed, shape)
    assert _outcome(fsum, values) == _outcome(math.fsum, values.tolist())


@pytest.mark.parametrize("k", [1, FSUM_CROSSOVER, FSUM_SLICE])
def test_fsum_keeps_the_order_dependent_overflow(k):
    # math.fsum raises at 2e308 on the way to 1e308; every term here is
    # above the extraction's range, so the whole array goes to math.fsum
    values = np.array([1e308, 1e308, -1e308] * k)
    with pytest.raises(OverflowError):
        math.fsum(values.tolist())
    with pytest.raises(OverflowError):
        fsum(values)
    # terms as large whose running sum stays finite sum exactly, and so
    # do terms inside the range whose count could take a sum past it
    values = np.array([1e308, -1e308, 1.0] * k)
    assert fsum(values) == math.fsum(values.tolist()) == k
    values = np.full(4 * FSUM_SLICE, 2.0 ** 1006.5)
    assert fsum(values) == math.fsum(values.tolist()) == 2.0 ** 1023.5


def test_fsum_hands_math_fsum_a_few_parts(monkeypatch):
    # a finite float64 array reaches math.fsum as a few exact parts per
    # 2^15 slice, not term by term
    values = 1.0 / np.arange(2, 664581, dtype=np.float64)
    want = math.fsum(values.tolist())
    real, seen = math.fsum, []

    def spy(xs):
        xs = list(xs)
        seen.append(len(xs))
        return real(xs)
    monkeypatch.setattr(math, "fsum", spy)
    assert fsum(values) == want
    slices = -(-values.size // FSUM_SLICE)
    assert len(seen) == 1 and slices <= seen[0] <= 3 * slices


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


def test_fsum_views_and_other_dtypes():
    # int64 and float32 arrays go to math.fsum as they are
    values = _mixed(3 * CUMSUM_BLOCK + 7)
    rng = np.random.default_rng(1)
    ints = rng.integers(-2 ** 62, 2 ** 62, 10 ** 4)
    singles = (rng.standard_normal(10 ** 4) * 1e30).astype(np.float32)
    for view in (values[::3], values[::-1], ints, singles, singles[::-2]):
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


def test_log_of_a_slice_is_the_slice_of_the_log():
    # prime_steps takes np.log of each block's base primes and relies on
    # getting the bits np.log gives the whole array, whatever the offset
    # of the slice: SIMD bodies and tails must agree
    rng = np.random.default_rng(4099)
    values = np.concatenate((np.arange(2.0, 5000.0),
                             np.exp(rng.uniform(0.0, 40.0, 5 * 4099))))
    whole = np.log(values)
    for offset in (0, 1, 3, 7):
        for lo in range(offset, values.size, 4099):
            got = np.log(values[lo:lo + 4099])
            assert got.tobytes() == whole[lo:lo + 4099].tobytes(), (offset, lo)


def _lambda_over_m(m, p):
    return np.log(p.astype(np.float64)) / m


# weight, and its terms from prime_power_terms' (ms, logs)
WEIGHTS = [(log_base, lambda ms, logs: logs),
           (_lambda_over_m, lambda ms, logs: logs / ms)]


def _check_stream(table, x, powers, min_block):
    """prime_steps against compensated_cumsum_loop of the stable-sorted
    prime_power_terms (the primes alone without ``powers``), bit for
    bit, for each weight and for the count."""
    ms, logs = prime_power_terms(table, x)
    if not powers:
        ms, logs = table.primes_upto(x), logs[:table.primes_upto(x).size]
    order = np.argsort(ms, kind="stable")
    for weight, terms in WEIGHTS:
        steps = list(prime_steps(table, x, weight, powers))
        jumps, prefix = joined(steps) if steps else (ms[:0], logs[:0])
        assert jumps.tolist() == ms[order].tolist()
        assert _bits(prefix.tolist()) == _bits(compensated_cumsum_loop(
            terms(ms, logs)[order], min_block).tolist())
        assert _bits(prefix.tolist()) == _bits(
            compensated_cumsum(terms(ms, logs)[order]).tolist())
    counted = list(prime_steps(table, x, None, powers))
    jumps, counts = joined(counted) if counted else (ms[:0], ms[:0])
    assert jumps.tolist() == ms[order].tolist()
    assert counts.dtype == np.int64
    assert counts.tolist() == list(range(1, ms.size + 1))


@pytest.mark.parametrize("min_block", [CUMSUM_BLOCK, 4])
@pytest.mark.parametrize("powers", [True, False])
@pytest.mark.parametrize("count", [4095, 4096, 4097, 32767, 32768, 32769])
def test_prime_steps_at_block_edges(table_1e6, monkeypatch, count, powers,
                                    min_block):
    # x = the count-th term, so that the stream holds count terms: at the
    # edges of an anchor block and of BLOCK; an anchor step of 4 makes it
    # max(4, ceil(n / 2048)), which only the exact n gives
    monkeypatch.setattr(S, "CUMSUM_BLOCK", min_block)
    ms = prime_power_terms(table_1e6, 10 ** 6)[0] if powers else \
        table_1e6.primes
    x = int(np.sort(ms)[count - 1])
    _check_stream(table_1e6, x, powers, min_block)


@pytest.mark.parametrize("powers", [True, False])
@pytest.mark.parametrize("x", [2, 3, 4, 5, 8, 9, 25, 27, 121, 125, 343,
                               912673, 994009])
def test_prime_steps_at_prime_squares_and_cubes(table_1e6, x, powers):
    _check_stream(table_1e6, x, powers, CUMSUM_BLOCK)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3000), st.integers(1, 9))
@example(4, 1)
@example(2048, 3)
def test_prime_steps_are_the_stable_sort(table_1e4, x, block):
    # merge windows that start, end or split at higher powers: anchor
    # steps of 4 and spans of BLOCK or the step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "CUMSUM_BLOCK", 4)
        mp.setattr(S, "BLOCK", block)
        _check_stream(table_1e4, x, True, 4)
