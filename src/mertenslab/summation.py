"""Deterministic compensated accumulation and step functions.

fsum returns math.fsum's exactly rounded sum, bit for bit, with numpy
cutting a long array into a few exact parts first: stronger than Kahan
compensation and independent of input order, so no result here depends
on thread count or shard boundaries. Prefix sums are built blockwise
with fsum-anchored offsets, and dirichlet sums each n's divisor terms by
fsum, so a convolution is bit for bit the one a per-n divisor loop gives.

Every prime sum is a step function of its upper limit: a stream of
(jumps, prefix) blocks, the jumps ascending and the sum after each, as
arith.prime_steps makes them (a whole array is a one-block stream, and
joined concatenates one). pieces reads it into its constant pieces and
their values, BLOCK jumps at a time. Against a monotone curve the gap
on a piece is extreme at an end, which step_law reads: those cover
every integer. Any BLOCK >= 1 gives the same bits.
"""

import math

import numpy as np

from .errors import DomainError
from .outcomes import VerificationOutcome, worst_case_blocks

CUMSUM_BLOCK = 4096
BLOCK = 1 << 15
FSUM_CROSSOVER = 1400  # shorter arrays: math.fsum beats _parts' numpy calls
FSUM_SLICE = 1 << 15    # at most 2^16 with sigma = 2^(e+16): see _parts


def fsum(values) -> float:
    """math.fsum of an iterable or a 1-d array, bit for bit, errors too.

    math.fsum rounds the few exact _parts of a float64 array of
    FSUM_CROSSOVER terms or more. It reads any other array, and one with
    a NaN, an infinity, a term near overflow (where its errors depend on
    term order) or a zero total (whose sign varies with the Python
    version), whole and in place through a memoryview.
    """
    if isinstance(values, np.ndarray):
        if (values.dtype == np.float64 and values.ndim == 1
                and values.size >= FSUM_CROSSOVER):
            total = math.fsum(_parts(values))
            if total != 0.0 and math.isfinite(total):
                return total
        return math.fsum(memoryview(values))
    return math.fsum(values)


def _parts(values: np.ndarray):
    """Float64 parts with the exact sum of the 1-d float64 ``values``, by
    error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput.
    31(1), 2008); a NaN last where a term is not finite or has |x| at or
    above 2^1023 / max(n, 2^16), so that no sum can overflow.

    In slices of FSUM_SLICE terms with |x| < 2^e and sigma = 2^(e+16),
    q = (x + sigma) - sigma and r = x - q are exact, and q is a multiple
    of 2^(e-37) with |q| <= 2^e: 2^16 of them sum exactly in any order,
    np.sum's included. The remainders r, below 2^(e-37), go round again
    until all are zero; once sigma is subnormal, q = x and r = 0.
    """
    n = values.size
    bufs = np.empty((2, min(n, FSUM_SLICE)))
    for lo in range(0, n, FSUM_SLICE):
        x = values[lo:lo + FSUM_SLICE]
        q, spare = bufs[:, :x.size]
        while top := float(max(np.maximum.reduce(x),
                               -np.minimum.reduce(x))):
            if not top * max(n, 1 << 16) < 2.0 ** 1023:
                yield math.nan
                return
            sigma = math.ldexp(1.0, math.frexp(top)[1] + 16)
            np.subtract(np.add(x, sigma, out=q), sigma, out=q)
            yield float(np.add.reduce(q))
            x = np.subtract(x, q, out=q)
            q, spare = spare, q


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


def int_blocks(lo: int, hi: int):
    """The integers lo..hi ascending, as int64 arrays of at most BLOCK."""
    for a in range(lo, hi + 1, BLOCK):
        yield np.arange(a, min(a + BLOCK, hi + 1), dtype=np.int64)


def pieces(steps, lo: int, hi: int):
    """The constant pieces on [lo, hi] of the step function with the
    (jumps, prefix) blocks ``steps``, read BLOCK jumps at a time and only
    until a jump passes hi: [lo, q_a - 1], [q_a, q_(a+1) - 1], ...,
    [q_b, hi] for the jumps q_a < ... < q_b in (lo, hi]. The jumps must
    rise strictly across the stream (DomainError, as for lo > hi); the
    function is 0 before the first and prefix[i] from jumps[i] on.
    Yields (ends, values): the (left, right) pairs, shape (m, 2) and
    ascending when raveled, and the value on each piece."""
    if lo > hi:
        raise DomainError(f"need lo <= hi, got [{lo}, {hi}]")
    left, value, last = lo, 0, -math.inf
    for jumps, prefix in ((q[i:i + BLOCK], v[i:i + BLOCK]) for q, v in steps
                          for i in range(0, q.size, BLOCK)):
        if jumps[0] <= last or np.any(jumps[1:] <= jumps[:-1]):
            raise DomainError("jumps must rise strictly")
        last = jumps[-1]
        a, b = np.searchsorted(jumps, [lo, hi], side="right").tolist()
        values = np.concatenate(([value], prefix[:b]))  # after 0, ..., b
        if b > a:                           # the jumps in (lo, hi]
            ends = np.empty((b - a, 2), dtype=np.int64)
            ends[0, 0], ends[1:, 0] = left, jumps[a:b - 1]
            ends[:, 1] = jumps[a:b] - 1
            yield ends, values[a:b]
            left = jumps[b - 1]
        value = values[b]
        if b < jumps.size:              # a jump past hi: the rest is unread
            break
    yield np.array([[left, hi]]), np.array([value])


def joined(blocks):
    """A stream of array tuples as one tuple of the arrays concatenated."""
    return tuple(map(np.concatenate, zip(*blocks)))


def step_law(name: str, steps, lo: int, hi: int, laws) -> VerificationOutcome:
    """The step function with the (jumps, prefix) blocks ``steps`` (as
    pieces reads them, once) against each (curve, side) of ``laws`` at
    every integer of [lo, hi], each law decided by worst_case_blocks
    (margin >= 0); the outcome of least margin, the first law's on a tie.

    "upper": step <= curve(x) at each piece's left end, witness (step,
    curve); "lower": step >= curve(x) at its right end, witness (curve,
    step); "abs": |step - centre| <= width, a scalar, at both ends in
    ascending order, with (centre, width) = curve(ends), witness
    (|step - centre|, width). Unchecked: the curve rises on every piece
    ("abs": centre is monotone there), so the ends read are the tightest.
    A law keeps each block's first least case, copied so that no block
    outlives its turn.
    """
    least = [[] for _ in laws]
    for ends, step in pieces(steps, lo, hi):
        for kept, (curve, side) in zip(least, laws):
            if side == "abs":
                centre, width = curve(ends)
                dev = np.abs(np.subtract(step[:, None], centre)).ravel()
                block = ends.ravel(), dev, width, width - dev
            else:
                x = ends[:, {"upper": 0, "lower": 1}[side]]
                c = curve(x)
                block = ((x, step, c, c - step) if side == "upper"
                         else (x, c, step, step - c))
            j = [int(np.argmin(block[3]))]
            kept.append([np.take(a, j) for a in np.broadcast_arrays(*block)])
    return min((worst_case_blocks(name, (lo, hi), kept)
                for kept in least), key=lambda o: o.worst_witness.margin)
