"""Deterministic compensated accumulation and step functions.

math.fsum is the scalar workhorse: it returns the exactly rounded sum of
its inputs, which is stronger than Kahan compensation and independent of
input order, so no result here can depend on thread count or shard
boundaries. Prefix sums are built blockwise with fsum-anchored offsets,
and dirichlet sums each n's divisor terms by fsum, so a convolution is
bit for bit the one a per-n divisor loop would give.

Every prime sum is a step function of its upper limit: _jump_cumulative
turns jump positions and sizes into its prefix sums, piece_ends lists
its constant pieces as (left, right) pairs by interleaving its strictly
increasing jumps, with no sort, and step_values reads it on each piece.
Against a monotone curve the gap on a piece is extreme at an end: those
cover every integer.
"""

import math

import numpy as np

from .errors import DomainError

CUMSUM_BLOCK = 4096


def fsum(values) -> float:
    """Exactly rounded sum of an iterable or 1-d array.

    An array is read by math.fsum through a memoryview of its buffer:
    the same sequence as its ``.tolist()``, taken in place, so even a
    strided view costs O(1) memory and no Python list is built.
    """
    if isinstance(values, np.ndarray):
        return math.fsum(memoryview(values))
    return math.fsum(values)


def _multiples(bases: np.ndarray, counts: np.ndarray):
    """The first ``counts[i]`` multiples n = d j of each d = ``bases[i]``
    (bases >= 1, counts >= 0) as flat arrays (d, j): d in the order of
    ``bases``, j = 1..count ascending. ``x // bases`` gives every
    multiple up to x."""
    d = np.repeat(bases, counts)
    return d, np.arange(d.size) - np.repeat(np.cumsum(counts) - counts,
                                            counts) + 1


def dirichlet(f: np.ndarray, g: np.ndarray, x: int) -> np.ndarray:
    """The Dirichlet convolution h(n) = sum over d | n of f(d) g(n/d), for
    every n = 0..x at once (h(0) = 0.0); f and g are indexed 0..x.

    Each d with f(d) != 0 spreads f(d) g(j) onto its multiples n = d j as
    flat arrays, the terms are grouped by n with a stable sort, and each
    n's terms are summed by fsum. Exact rounding makes h(n) independent
    of term order and of the zero terms left out, so it is bit for bit
    the fsum of a loop over the divisors of n. Holds O(x log x) terms.
    """
    bases = np.flatnonzero(f[1:x + 1]) + 1
    d, j = _multiples(bases, x // bases)
    n = d * j
    terms = (f[d] * g[j])[np.argsort(n, kind="stable")].tolist()
    sizes = np.bincount(n, minlength=x + 1)
    ns = np.flatnonzero(sizes)
    ends = np.cumsum(sizes[ns]).tolist()
    h = np.zeros(x + 1, dtype=np.float64)
    h[ns] = [fsum(terms[a:b]) for a, b in zip([0, *ends[:-1]], ends)]
    return h


def compensated_cumsum(values) -> np.ndarray:
    """Prefix sums of ``values`` with blockwise error compensation.

    Plain np.cumsum over 1e7 terms drifts by enough to matter at the
    1e-11 relative tolerances used downstream; anchoring every block's
    offset with math.fsum keeps each prefix within a few ulps while
    staying O(n). Output is independent of thread count by construction.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    n = arr.size
    if n == 0:
        return np.empty(0, dtype=np.float64)
    # Cap the block count so the exact offset recomputation stays cheap.
    block = max(CUMSUM_BLOCK, -(-n // 2048))
    out = np.empty(n, dtype=np.float64)
    partials: list[float] = []
    for start in range(0, n, block):
        chunk = arr[start:start + block]
        offset = math.fsum(partials)
        np.cumsum(chunk, out=out[start:start + chunk.size])
        out[start:start + chunk.size] += offset
        partials.append(fsum(chunk))
    return out


def running_sums(values) -> np.ndarray:
    """Neumaier's running sum s + c (Neumaier 1974) before and after each
    of ``values``, bit for bit the loop t = s + x; c += (s - t) + x if
    |s| >= |x| else (x - t) + s; s = t. Its s, and then c, are prefix
    sums from 0.0, and np.cumsum adds strictly in sequence.
    """
    w = np.asarray(values, dtype=np.float64)
    s = np.cumsum(np.concatenate(([0.0], w)))
    prev, t = s[:-1], s[1:]
    c = np.where(np.abs(prev) >= np.abs(w), (prev - t) + w, (w - t) + prev)
    return s + np.cumsum(np.concatenate(([0.0], c)))


def _jump_cumulative(positions: np.ndarray, terms: np.ndarray):
    """Sort jump positions and return them with compensated prefix sums."""
    order = np.argsort(positions, kind="stable")
    return positions[order], compensated_cumsum(terms[order])


def piece_ends(jumps: np.ndarray, lo: int, hi: int):
    """The constant pieces of a step function on [lo, hi], as (left,
    right) pairs.

    The step function jumps at each entry of the sorted integer array
    ``jumps``, which must not repeat in (lo, hi] (DomainError), and is
    constant from one jump up to the integer before the next. The pieces
    are [lo, q_a - 1], [q_a, q_(a+1) - 1], ..., [q_b, hi] for the jumps
    q_a < ... < q_b in (lo, hi]; a piece one integer long has left = right.
    Against a monotone curve the gap on a piece is extreme at one of its
    two ends, so these cover every integer in [lo, hi]. Returns the pairs,
    shape (m, 2) and ascending when raveled, and the number of jumps at
    or below each piece: a, a + 1, ..., b.
    """
    a, b = np.searchsorted(jumps, [lo, hi], side="right").tolist()
    inner = jumps[a:b]
    if lo > hi or np.any(inner[1:] <= inner[:-1]):
        raise DomainError(f"need lo <= hi, jumps rising in ({lo}, {hi}]")
    ends = np.empty((inner.size + 1, 2), dtype=np.int64)
    ends[0, 0], ends[-1, 1] = lo, hi
    ends[:-1, 1], ends[1:, 0] = inner - 1, inner
    return ends, np.arange(a, b + 1)


def step_values(cum: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The step function after ``counts`` jumps: ``cum[count - 1]``, where
    ``cum`` holds its prefix sums, or 0 before the first jump."""
    return np.concatenate(([0], cum))[counts]
