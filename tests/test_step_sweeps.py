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

from oracles import bound_sweep_reference, piece_ends_sorted

CHECKS = [
    ("lambda-sum-bound", {}, lambda t, hi: P.lambda_sum_bound_sweep(t, hi)),
    ("lambda-sum-bound", {"ceiling": 0.5},
     lambda t, hi: P.lambda_sum_bound_sweep(t, hi, 0.5)),
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


@pytest.mark.parametrize("hi", [10, 1000, 20000])
@pytest.mark.parametrize("check,params,run", CHECKS,
                         ids=[c + "".join(f"-{k}={v}" for k, v in p.items())
                              for c, p, _ in CHECKS])
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


def test_piece_ends_no_jump_inside():
    ends, counts = S.piece_ends(np.array([2, 3, 5, 7]), 8, 10)
    assert ends.tolist() == [[8, 10]] and counts.tolist() == [4]
    ends, counts = S.piece_ends(np.array([], dtype=np.int64), 1, 5)
    assert ends.tolist() == [[1, 5]] and counts.tolist() == [0]


def test_piece_ends_on_jumps():
    ends, counts = S.piece_ends(np.array([2, 3, 5, 7]), 5, 7)
    assert ends.tolist() == [[5, 6], [7, 7]]
    assert counts.tolist() == [3, 4]


def test_piece_ends_adjacent_jumps():
    # pieces [1, 1], [2, 2], [3, 7], [8, 8], [9, 10]
    ends, counts = S.piece_ends(np.array([2, 3, 8, 9]), 1, 10)
    assert ends.tolist() == [[1, 1], [2, 2], [3, 7], [8, 8], [9, 10]]
    assert ends.ravel().tolist() == sorted(ends.ravel().tolist())
    assert counts.tolist() == [0, 1, 2, 3, 4]


def test_step_values_zero_before_first_jump():
    cum = np.array([0.5, 0.75])
    assert S.step_values(cum, np.array([0, 1, 2])).tolist() == \
        [0.0, 0.5, 0.75]


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(1, 80), max_size=20), st.integers(2, 80),
       st.integers(0, 80))
def test_piece_ends_cover_every_integer(jump_set, lo, width):
    # against a monotone curve the extreme gap sits at a piece end
    jumps = np.array(sorted(jump_set), dtype=np.int64)
    cum = np.cumsum(1.0 / (jumps + 1.0))
    hi = lo + width
    ends, counts = S.piece_ends(jumps, lo, hi)
    every = np.arange(lo, hi + 1)
    dense = S.step_values(cum, np.searchsorted(jumps, every, side="right"))
    assert np.array_equal(np.repeat(counts, 2),
                          np.searchsorted(jumps, ends.ravel(), side="right"))
    gap = np.abs(S.step_values(cum, counts)[:, None] - np.log(ends))
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
    ends, counts = S.piece_ends(jumps, lo, lo + width)
    ref_ns, ref_counts = piece_ends_sorted(jumps, lo, lo + width)
    assert ends.shape == (counts.size, 2)
    assert ends.dtype == ref_ns.dtype and counts.dtype == ref_counts.dtype
    assert np.array_equal(ends.ravel(), ref_ns)
    assert np.array_equal(np.repeat(counts, 2), ref_counts)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(-3, 40), max_size=25), st.integers(-3, 40),
       st.integers(0, 40), st.integers(1, 6))
@example({2, 3, 5, 7}, 1, 9, 1)
@example({2, 3, 5, 7}, 1, 9, 5)
def test_piece_blocks_concatenate_to_the_sorted_ends(jump_set, lo, width,
                                                     block):
    # blocks of at most BLOCK pieces, together the pairs of piece_ends
    jumps = np.array(sorted(jump_set), dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "BLOCK", block)
        blocks = list(S.piece_blocks(jumps, lo, lo + width))
    assert all(0 < ends.shape[0] == counts.size <= block
               for ends, counts in blocks)
    ends = np.concatenate([ends for ends, _ in blocks])
    counts = np.concatenate([counts for _, counts in blocks])
    ref_ns, ref_counts = piece_ends_sorted(jumps, lo, lo + width)
    assert np.array_equal(ends.ravel(), ref_ns)
    assert np.array_equal(np.repeat(counts, 2), ref_counts)


@pytest.mark.parametrize("jumps", [[2, 3, 3, 5], [2, 5, 5], [7, 5, 3],
                                   [2, 9, 4, 11]])
def test_piece_ends_rejects_repeated_or_descending_jumps(jumps):
    with pytest.raises(DomainError):
        S.piece_ends(np.array(jumps, dtype=np.int64), 1, 10)


def test_piece_ends_rejects_empty_range():
    with pytest.raises(DomainError):
        S.piece_ends(np.array([2, 3], dtype=np.int64), 5, 4)
