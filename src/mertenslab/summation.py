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
cover every integer. The sweeps stream through piece_blocks, BLOCK
pieces at a time, and cumsum_blocks; piece_ends and compensated_cumsum
are their concatenation, and any BLOCK >= 1 gives the same bits.
"""

import math

import numpy as np

from .errors import DomainError

CUMSUM_BLOCK = 4096
BLOCK = 1 << 15


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

    In windows of BLOCK values of n, each d with f(d) != 0 lays out
    f(d) g(j) for its multiples n = d j in the window, the terms are
    grouped by n with a stable sort, and each n's are summed by fsum.
    Exact rounding makes h(n) independent of term order and of the zero
    terms left out: bit for bit a per-n fsum over the divisors of n.
    """
    bases = np.flatnonzero(f[1:x + 1]) + 1
    h = np.zeros(x + 1, dtype=np.float64)
    for lo in range(1, x + 1, BLOCK):
        hi = min(lo + BLOCK, x + 1)
        d = bases[:int(np.searchsorted(bases, hi))]
        d, j = _multiples(d, (hi - 1) // d - (lo - 1) // d)
        j += (lo - 1) // d
        n = d * j - lo
        terms = (f[d] * g[j])[np.argsort(n, kind="stable")].tolist()
        sizes = np.bincount(n, minlength=hi - lo)
        ns = np.flatnonzero(sizes)
        ends = np.cumsum(sizes[ns]).tolist()
        h[lo + ns] = [fsum(terms[a:b]) for a, b in zip([0, *ends[:-1]], ends)]
    return h


def cumsum_blocks(n: int, terms):
    """Prefix sums of the n values ``terms(lo, hi)`` gives (float64), as
    (start, block) pairs of whole anchor blocks, about BLOCK values each.

    Plain np.cumsum over 1e7 terms drifts by enough to matter at the
    1e-11 relative tolerances used downstream; anchoring every block's
    offset with math.fsum keeps each prefix within a few ulps while
    staying O(n). Anchor blocks depend on n alone, so the bits depend
    on neither BLOCK nor thread count.
    """
    # Cap the block count so the exact offset recomputation stays cheap.
    step = max(CUMSUM_BLOCK, -(-n // 2048))
    span = max(step, BLOCK // step * step)
    partials: list[float] = []
    for lo in range(0, n, span):
        vals = terms(lo, min(lo + span, n))
        out = np.empty(vals.size)
        for a in range(0, vals.size, step):
            np.cumsum(vals[a:a + step], out=out[a:a + step])
            out[a:a + step] += math.fsum(partials)
            partials.append(fsum(vals[a:a + step]))
        yield lo, out


def compensated_cumsum(values) -> np.ndarray:
    """Prefix sums of ``values``: cumsum_blocks in one array."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    out = np.empty_like(arr)
    for lo, block in cumsum_blocks(arr.size, lambda a, b: arr[a:b]):
        out[lo:lo + block.size] = block
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
    """Jump positions as a stable sort orders them, with compensated prefix
    sums of their terms: the rest is sorted and inserted into the leading
    ascending run (the primes of prime_power_terms)."""
    drops = np.flatnonzero(positions[1:] < positions[:-1])
    run = int(drops[0]) + 1 if drops.size else positions.size
    rest = run + np.argsort(positions[run:], kind="stable")
    at = np.searchsorted(positions[:run], positions[rest], side="right")
    return (np.insert(positions[:run], at, positions[rest]),
            compensated_cumsum(np.insert(terms[:run], at, terms[rest])))


def piece_blocks(jumps: np.ndarray, lo: int, hi: int):
    """The constant pieces of a step function on [lo, hi], as (left,
    right) pairs, BLOCK pieces at a time.

    The step function jumps at each entry of the sorted integer array
    ``jumps``, which must not repeat in (lo, hi] (DomainError), and is
    constant from one jump up to the integer before the next. The pieces
    are [lo, q_a - 1], [q_a, q_(a+1) - 1], ..., [q_b, hi] for the jumps
    q_a < ... < q_b in (lo, hi]; a piece one integer long has left = right.
    Against a monotone curve the gap on a piece is extreme at one of its
    two ends, so these cover every integer in [lo, hi]. Yields the pairs,
    shape (m, 2) and ascending when raveled, with the number of jumps at
    or below each piece: a, a + 1, ..., b over the whole stream.
    """
    a, b = np.searchsorted(jumps, [lo, hi], side="right").tolist()
    inner = jumps[a:b]
    if lo > hi or np.any(inner[1:] <= inner[:-1]):
        raise DomainError(f"need lo <= hi, jumps rising in ({lo}, {hi}]")
    for i in range(0, inner.size + 1, BLOCK):   # no copy of the jumps
        j = min(i + BLOCK, inner.size + 1)
        first, last = i == 0, j > inner.size
        ends = np.empty((j - i, 2), dtype=np.int64)
        ends[0, 0], ends[-1, 1] = lo, hi    # overwritten inside the stream
        ends[first:, 0] = inner[i - 1 + first:j - 1]
        ends[:j - i - last, 1] = inner[i:j - last] - 1
        yield ends, np.arange(a + i, a + j)


def int_blocks(lo: int, hi: int):
    """The integers lo..hi ascending, as int64 arrays of at most BLOCK."""
    for a in range(lo, hi + 1, BLOCK):
        yield np.arange(a, min(a + BLOCK, hi + 1), dtype=np.int64)


def piece_ends(jumps: np.ndarray, lo: int, hi: int):
    """All of piece_blocks at once: the (m, 2) pairs and the counts."""
    ends, counts = zip(*piece_blocks(jumps, lo, hi))
    return np.concatenate(ends), np.concatenate(counts)


def step_values(cum: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The step function after ``counts`` jumps: ``cum[count - 1]``, where
    ``cum`` holds its prefix sums, or 0 before the first jump."""
    if not cum.size:
        return np.zeros(np.shape(counts), dtype=cum.dtype)
    return np.where(counts > 0, cum[counts - 1], 0)
