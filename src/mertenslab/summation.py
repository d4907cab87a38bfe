"""Deterministic compensated accumulation and step functions.

math.fsum is the scalar workhorse: it returns the exactly rounded sum of
its inputs, which is stronger than Kahan compensation and independent of
input order, so no result here can depend on thread count or shard
boundaries. Prefix sums are built blockwise with fsum-anchored offsets.

Every prime sum is a step function of its upper limit: _jump_cumulative
turns jump positions and sizes into its prefix sums, piece_ends lists
where its constant pieces start and end, and step_values reads it
there. Against a monotone curve the gap on a piece is extreme at one of
its ends, so those points stand for every integer in range.
"""

import math

import numpy as np

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


def _jump_cumulative(positions: np.ndarray, terms: np.ndarray):
    """Sort jump positions and return them with compensated prefix sums."""
    order = np.argsort(positions, kind="stable")
    return positions[order], compensated_cumsum(terms[order])


def piece_ends(jumps: np.ndarray, lo: int, hi: int):
    """Where the constant pieces of a step function on [lo, hi] start and end.

    The step function jumps at each entry of the sorted array ``jumps``
    and is constant from one jump up to the integer before the next. The
    points are lo, hi, and q and q - 1 for every jump q in (lo, hi],
    ascending; duplicates may occur. Against a monotone curve the gap on
    a piece is extreme at one of the piece's two ends, so checking these
    points covers every integer in [lo, hi]. Returns the points and the
    number of jumps at or below each.
    """
    inner = jumps[np.searchsorted(jumps, lo, side="right"):
                  np.searchsorted(jumps, hi, side="right")]
    ns = np.sort(np.concatenate((np.array([lo, hi], dtype=np.int64),
                                 inner, inner - 1)))
    return ns, np.searchsorted(jumps, ns, side="right")


def step_values(cum: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The step function after ``counts`` jumps: ``cum[count - 1]``, where
    ``cum`` holds its prefix sums, or 0 before the first jump."""
    return np.concatenate(([0], cum))[counts]


class RunningSum:
    """Neumaier-compensated running sum for incremental accumulation."""

    __slots__ = ("_s", "_c")

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c
