"""The piece-end sweeps against per-integer brute force.

Each exhaustive bound check evaluates its step function only where a
constant piece starts or ends; these tests recompute every check at every
integer from trial-division primes and exactly rounded prefixes.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mertenslab import arith as A
from mertenslab import bounds as B
from mertenslab import density as D
from mertenslab import partial_sums as P
from mertenslab import summation as S
from mertenslab.errors import DomainError
from mertenslab.outcomes import Witness

from oracles import bound_sweep_reference, piece_ends_sorted

CHECKS = [
    ("lambda-sum-bound", {}, lambda t, hi: P.lambda_sum_bound_sweep(t, hi)),
    ("lambda-sum-bound", {"ceiling": 0.5},
     lambda t, hi: P.lambda_sum_bound_sweep(t, hi, 0.5)),
    ("lambda-mertens-gap", {}, lambda t, hi: P.lambda_mertens_gap_sweep(t, hi)),
    ("lambda-mertens-gap", {"ceiling": 0.5},
     lambda t, hi: P.lambda_mertens_gap_sweep(t, hi, 0.5)),
    ("mertens1-bound", {}, lambda t, hi: B.check_mertens_bound(t, hi)),
    ("mertens1-bound", {"ceiling": 1.0},
     lambda t, hi: B.check_mertens_bound(t, hi, 1.0)),
    ("pi-upper", {}, lambda t, hi: B.check_pi_upper(t, hi)),
    ("reciprocal-lower", {}, lambda t, hi: B.check_reciprocal_lower(t, hi)),
    ("psi-linear", {}, lambda t, hi: B.check_psi_linear(t, hi)),
    ("psi-linear", {"c1": 0.4}, lambda t, hi: B.check_psi_linear(t, hi, 0.4)),
    ("psi-linear", {"c1": 0.1, "c2": 0.9},
     lambda t, hi: B.check_psi_linear(t, hi, 0.1, 0.9)),
    ("psi-linear", {"c1": 0.9}, lambda t, hi: B.check_psi_linear(t, hi, 0.9)),
    ("psi-dyadic", {}, lambda t, hi: B.check_psi_dyadic(t, hi)),
    ("psi-dyadic", {"log4": 0.9}, lambda t, hi: B.check_psi_dyadic(t, hi)),
    ("small-part-bound", {}, lambda t, hi: D.small_part_bound_sweep(t, hi)),
    ("primorial-bound", {}, lambda t, hi: B.check_primorial_bound(t, hi)),
    ("primorial-bound", {"log4": 0.9},
     lambda t, hi: B.check_primorial_bound(t, hi)),
    ("interval-primorial", {},
     lambda t, hi: B.check_interval_primorial(t, hi)),
    ("interval-primorial", {"log4": 0.9},
     lambda t, hi: B.check_interval_primorial(t, hi)),
    ("psi-theta-dominance", {},
     lambda t, hi: A.psi_theta_dominance_sweep(t, hi)),
]


CHECK_IDS = [c + "".join(f"-{k}={v}" for k, v in p.items())
             for c, p, _ in CHECKS]


@pytest.mark.parametrize("hi", [10, 1000, 20000])
@pytest.mark.parametrize("check,params,run", CHECKS, ids=CHECK_IDS)
def test_sweep_matches_brute_force(table_1e5, monkeypatch, hi, check, params,
                                   run):
    if check == "psi-dyadic":
        hi //= 2                # psi(2n) must stay within 2e4
    if "log4" in params:        # a lower cap moves the witness inside
        monkeypatch.setattr(B, "LOG4", params["log4"])
    out = run(table_1e5, hi)
    assert (out.passed, out.worst_witness.input) == \
        bound_sweep_reference(check, hi, **params)


def test_failing_constants_fail(table_1e5):
    assert not B.check_mertens_bound(table_1e5, 20000, 1.0).passed
    assert not B.check_psi_linear(table_1e5, 20000, 0.4).passed
    assert not B.check_psi_linear(table_1e5, 20000, 0.1, 0.9).passed


def piece_ends(jumps, lo, hi):
    """The reader's pieces of the jump count, as one (m, 2) array of
    ends and the count on each piece."""
    return S.joined(S.pieces([(jumps, np.arange(1, jumps.size + 1))], lo, hi))


def test_piece_ends_no_jump_inside():
    ends, counts = piece_ends(np.array([2, 3, 5, 7]), 8, 10)
    assert ends.tolist() == [[8, 10]] and counts.tolist() == [4]
    ends, counts = piece_ends(np.array([], dtype=np.int64), 1, 5)
    assert ends.tolist() == [[1, 5]] and counts.tolist() == [0]


def test_piece_ends_on_jumps():
    ends, counts = piece_ends(np.array([2, 3, 5, 7]), 5, 7)
    assert ends.tolist() == [[5, 6], [7, 7]]
    assert counts.tolist() == [3, 4]


def test_piece_ends_adjacent_jumps():
    # pieces [1, 1], [2, 2], [3, 7], [8, 8], [9, 10]
    ends, counts = piece_ends(np.array([2, 3, 8, 9]), 1, 10)
    assert ends.tolist() == [[1, 1], [2, 2], [3, 7], [8, 8], [9, 10]]
    assert ends.ravel().tolist() == sorted(ends.ravel().tolist())
    assert counts.tolist() == [0, 1, 2, 3, 4]


def test_step_values_zero_before_first_jump():
    # the value on a piece is the prefix after its last jump, 0 before any
    steps = [(np.array([2, 3, 8, 9]), np.array([0.5, 1.5, 4.0, 8.5]))]
    ends, values = S.joined(S.pieces(steps, 1, 10))
    assert values.dtype == np.float64
    assert values.tolist() == [0.0, 0.5, 1.5, 4.0, 8.5]
    ends, values = S.joined(S.pieces(steps[:1], 8, 8))
    assert ends.tolist() == [[8, 8]] and values.tolist() == [4.0]
    ends, values = S.joined(S.pieces([(np.array([7]), np.array([1.0]))], 1, 5))
    assert ends.tolist() == [[1, 5]] and values.tolist() == [0.0]


def test_pieces_stop_reading_past_hi():
    # the block after the first jump past hi is never asked for
    def steps():
        yield np.array([2, 3]), np.array([1, 2])
        yield np.array([5, 11]), np.array([3, 4])
        raise AssertionError("read past hi")
    ends, counts = S.joined(S.pieces(steps(), 1, 10))
    assert ends.tolist() == [[1, 1], [2, 2], [3, 4], [5, 10]]
    assert counts.tolist() == [0, 1, 2, 3]


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(1, 80), max_size=20), st.integers(2, 80),
       st.integers(0, 80))
def test_piece_ends_cover_every_integer(jump_set, lo, width):
    # against a monotone curve the extreme gap sits at a piece end
    jumps = np.array(sorted(jump_set), dtype=np.int64)
    cum = np.cumsum(1.0 / (jumps + 1.0))
    hi = lo + width
    ends, counts = piece_ends(jumps, lo, hi)
    _, values = S.joined(S.pieces([(jumps, cum)], lo, hi))
    every = np.arange(lo, hi + 1)
    dense = np.r_[0.0, cum][np.searchsorted(jumps, every, side="right")]
    assert np.array_equal(np.repeat(counts, 2),
                          np.searchsorted(jumps, ends.ravel(), side="right"))
    gap = np.abs(values[:, None] - np.log(ends))
    assert gap.max() == np.abs(dense - np.log(every)).max()


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(-3, 40), max_size=25), st.integers(-3, 40),
       st.integers(0, 40))
@example({2, 3, 5, 7}, 5, 2)            # lo and hi on jumps
@example({2, 3, 8, 9}, 2, 7)            # adjacent jumps, lo on one
@example(set(), 1, 0)
def test_piece_ends_interleave_matches_sort(jump_set, lo, width):
    # the pairs, raveled, are the sorted points; each count covers both
    jumps = np.array(sorted(jump_set), dtype=np.int64)
    ends, counts = piece_ends(jumps, lo, lo + width)
    ref_ns, ref_counts = piece_ends_sorted(jumps, lo, lo + width)
    assert ends.shape == (counts.size, 2)
    assert ends.dtype == ref_ns.dtype and counts.dtype == ref_counts.dtype
    assert np.array_equal(ends.ravel(), ref_ns)
    assert np.array_equal(np.repeat(counts, 2), ref_counts)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(-3, 40), max_size=25), st.integers(-3, 40),
       st.integers(0, 40), st.integers(1, 6), st.integers(1, 6))
@example({2, 3, 5, 7}, 1, 9, 1, 6)
@example({2, 3, 5, 7}, 1, 9, 5, 2)
def test_piece_blocks_concatenate_to_the_sorted_ends(jump_set, lo, width,
                                                     block, chunk):
    # a stream in blocks of ``chunk`` jumps, read BLOCK jumps at a time,
    # yields blocks of at most BLOCK pieces: together the sorted ends
    jumps = np.array(sorted(jump_set), dtype=np.int64)
    counts = np.arange(1, jumps.size + 1)
    steps = [(jumps[i:i + chunk], counts[i:i + chunk])
             for i in range(0, jumps.size, chunk)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "BLOCK", block)
        blocks = list(S.pieces(steps, lo, lo + width))
    assert all(0 < ends.shape[0] == counts.size <= block
               for ends, counts in blocks)
    ends, counts = S.joined(blocks)
    ref_ns, ref_counts = piece_ends_sorted(jumps, lo, lo + width)
    assert np.array_equal(ends.ravel(), ref_ns)
    assert np.array_equal(np.repeat(counts, 2), ref_counts)


@pytest.mark.parametrize("jumps", [[[2, 3, 3, 5]], [[2, 5, 5]], [[7, 5, 3]],
                                   [[2, 9, 4, 11]], [[2, 3], [3, 5]],
                                   [[2, 6], [4, 7]]])
def test_piece_ends_rejects_repeated_or_descending_jumps(jumps):
    # within a block or across two
    steps = [(np.array(q, dtype=np.int64), np.ones(len(q))) for q in jumps]
    with pytest.raises(DomainError):
        list(S.pieces(steps, 1, 10))


def test_piece_ends_rejects_empty_range():
    with pytest.raises(DomainError):
        list(S.pieces([(np.array([2, 3], dtype=np.int64), np.ones(2))], 5, 4))


# step_law: one piece [5, 9] with step 10 (one jump at 5) against a
# rising curve, where only the end the law reads is broken
@pytest.mark.parametrize("side,cum,curve,witness", [
    ("upper", [10.0], lambda x: x + 0.0, Witness(5, 10.0, 5.0, -5.0)),
    ("lower", [10.0], lambda x: 2.0 * x - 7.0, Witness(9, 11.0, 10.0, -1.0)),
    ("abs", [10.0], lambda e: (e + 0.0, 3.0), Witness(5, 5.0, 3.0, -2.0)),
    ("abs", [5.5], lambda e: (e + 0.0, 3.0), Witness(9, 3.5, 3.0, -0.5)),
])
def test_step_law_fails_at_the_tight_end_only(side, cum, curve, witness):
    # a law that read the other end of the piece would pass here
    steps = [(np.array([5], dtype=np.int64), np.array(cum))]
    out = S.step_law("planted", steps, 5, 9, [(curve, side)])
    assert (out.passed, out.range, out.worst_witness) == (False, (5, 9),
                                                         witness)


LAWS = [("upper", lambda x: 0.95 * x + 10.0),
        ("lower", lambda x: 0.98 * x),
        ("abs", lambda e: (1.0 * e, 20.0))]


def _rechunked(steps, size):
    """The stream ``steps`` again, in blocks of ``size`` jumps."""
    jumps, prefix = S.joined(steps)
    return [(jumps[i:i + size], prefix[i:i + size])
            for i in range(0, jumps.size, size)]


@pytest.mark.parametrize("side,curve", LAWS)
def test_step_law_is_the_same_at_any_block(table_1e4, monkeypatch, side,
                                           curve):
    # theta against curves near x, each broken inside the range: the
    # stream in one block, re-chunked, or read BLOCK jumps at a time
    ps = table_1e4.primes_upto(2999)
    theta = S.compensated_cumsum(np.log(ps.astype(np.float64)))
    whole = S.step_law("theta", [(ps, theta)], 2, 2999, [(curve, side)])
    assert not whole.passed
    for size in (1, 2, 3):
        steps = _rechunked(A.prime_steps(table_1e4, 2999, A.log_base), size)
        assert S.step_law("theta", steps, 2, 2999, [(curve, side)]) == whole
    for block in (1, 2, 3):
        monkeypatch.setattr(S, "BLOCK", block)
        assert S.step_law("theta", A.prime_steps(table_1e4, 2999, A.log_base),
                          2, 2999, [(curve, side)]) == whole


@pytest.mark.parametrize("side,curve", [
    ("upper", lambda x: x / np.log(x.astype(np.float64))),
    ("lower", lambda x: 0.9 * x / np.log(x + 1.0)),
    ("abs", lambda e: (e / np.log(e + 1.0), 4.0))])
def test_step_law_without_prefix_counts_the_jumps(table_1e4, side, curve):
    # weight None streams the int64 count: the prefix sums 1, 2, ..., n
    ps = table_1e4.primes
    steps = list(A.prime_steps(table_1e4, 10 ** 4, None))
    assert all(counts.dtype == np.int64 for _, counts in steps)
    assert S.step_law("pi", steps, 3, 10 ** 4, [(curve, side)]) == \
        S.step_law("pi", [(ps, np.arange(1, ps.size + 1))], 3, 10 ** 4,
                   [(curve, side)])


# both sides of the piece [5, 9] with step 10 miss by exactly 1: the
# lower law at 9 against 2x - 7, the upper at 5 against x + 4
TIED = {"lower": ((lambda x: 2.0 * x - 7.0, "lower"),
                  Witness(9, 11.0, 10.0, -1.0)),
        "upper": ((lambda x: x + 4.0, "upper"), Witness(5, 10.0, 9.0, -1.0))}


@pytest.mark.parametrize("first,second", [("lower", "upper"),
                                          ("upper", "lower")])
def test_step_law_keeps_the_first_law_on_a_tie(first, second):
    steps = [(np.array([5], dtype=np.int64), np.array([10.0]))]
    out = S.step_law("planted", steps, 5, 9,
                     [TIED[first][0], TIED[second][0]])
    assert (out.passed, out.worst_witness) == (False, TIED[first][1])


@pytest.mark.parametrize("first,second", [
    (a, b) for a in range(len(LAWS)) for b in range(len(LAWS)) if a != b])
def test_two_laws_are_the_least_of_each_alone(table_1e4, monkeypatch, first,
                                              second):
    # one pass over theta for two laws, in one block, re-chunked, or read
    # BLOCK jumps at a time, against a pass per law
    laws = [LAWS[first][1::-1], LAWS[second][1::-1]]
    alone = [S.step_law("theta", A.prime_steps(table_1e4, 2999, A.log_base),
                        2, 2999, [law]) for law in laws]
    least = min(alone, key=lambda o: o.worst_witness.margin)
    assert not least.passed
    for size in (1, 2, 3):
        steps = _rechunked(A.prime_steps(table_1e4, 2999, A.log_base), size)
        assert S.step_law("theta", steps, 2, 2999, laws) == least
    for block in (1, 2, 3):
        monkeypatch.setattr(S, "BLOCK", block)
        assert S.step_law("theta", A.prime_steps(table_1e4, 2999, A.log_base),
                          2, 2999, laws) == least


def test_psi_linear_reads_psi_once(table_1e5, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return A.prime_steps(*args)
    monkeypatch.setattr(B, "prime_steps", counted)
    B.check_psi_linear(table_1e5, 10 ** 5)
    assert calls == [(10 ** 5, A.log_base)]


# one higher power left out of the merge, and a check it feeds that the
# brute force then tells apart (at 4: psi = theta until 8)
@pytest.mark.parametrize("drop,check_id", [
    (4, "psi-theta-dominance"), (4, "psi-linear-c1=0.1-c2=0.9"),
    (9, "psi-linear-c1=0.9"), (49, "lambda-sum-bound")])
def test_a_dropped_higher_power_fails_the_brute_force(table_1e5, monkeypatch,
                                                      drop, check_id):
    real = A.higher_powers

    def without(table, x):
        powers, bases = real(table, x)
        keep = powers != drop
        return powers[keep], bases[keep]

    monkeypatch.setattr(A, "higher_powers", without)
    check, params, run = CHECKS[CHECK_IDS.index(check_id)]
    hi = 10 if check_id == "psi-linear-c1=0.1-c2=0.9" else 1000
    out = run(table_1e5, hi)
    assert (out.passed, out.worst_witness.input) != \
        bound_sweep_reference(check, hi, **params)
