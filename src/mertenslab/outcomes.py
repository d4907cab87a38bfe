"""Report container for identity and inequality checks, and the two
verdict rules every check goes through: worst_case (or worst_case_blocks,
streamed) for inequalities and tolerances, exact_case for equalities.
worst_case is the one pass rule for margins, >= 0 (> 0 when strict), so
a computed miss of any size fails: no check sets a floor below 0."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Witness:
    """Worst case seen during a check: margin = rhs - lhs (minimum slack)."""

    input: int
    lhs: float
    rhs: float
    margin: float


@dataclass(frozen=True)
class VerificationOutcome:
    name: str
    range: tuple[int, int]
    passed: bool
    worst_witness: Witness | None = None

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lo, hi = self.range
        line = f"{status} {self.name} range=[{lo},{hi}]"
        w = self.worst_witness
        if w is not None:
            line += (f" worst(input={w.input}, lhs={w.lhs!r},"
                     f" rhs={w.rhs!r}, margin={w.margin!r})")
        return line


def worst_case(name: str, rng: tuple[int, int], inputs, lhs, rhs, margins,
               strict: bool = False) -> VerificationOutcome:
    """Outcome witnessed by the first case of smallest margin.

    ``lhs`` and ``rhs`` may be scalars, broadcast over the cases. The check
    passes when that margin is >= 0, or > 0 when ``strict`` (NaN fails).
    """
    return worst_case_blocks(name, rng, [(inputs, lhs, rhs, margins)],
                             strict)


def worst_case_blocks(name: str, rng: tuple[int, int], blocks,
                      strict: bool = False) -> VerificationOutcome:
    """worst_case over a stream of non-empty (inputs, lhs, rhs, margins)
    blocks as if concatenated: a later block's witness wins only with a
    smaller margin or the first NaN, as np.argmin picks over the whole."""
    w = None
    for inputs, lhs, rhs, margins in blocks:
        j = int(np.argmin(margins))
        if w is None or not (math.isnan(w.margin) or margins[j] >= w.margin):
            lhs, rhs = np.broadcast_arrays(lhs, rhs, margins)[:2]
            w = Witness(input=int(inputs[j]), lhs=float(lhs[j]),
                        rhs=float(rhs[j]), margin=float(margins[j]))
    passed = w.margin > 0.0 if strict else w.margin >= 0.0
    return VerificationOutcome(name, rng, passed, w)


def exact_case(name: str, rng: tuple[int, int], inputs, lhs,
               rhs) -> VerificationOutcome:
    """Outcome of an exact equality, lhs == rhs in every case.

    The witness is the first case where they differ, with margin
    -|lhs - rhs|, or the last case, with margin 0.0, when none does.
    ``lhs`` and ``rhs`` may be scalars; integers are compared and
    subtracted as integers.
    """
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    bad = np.flatnonzero(lhs != rhs)
    j = int(bad[0]) if bad.size else len(inputs) - 1
    a, b = lhs[j].item(), rhs[j].item()
    witness = Witness(input=int(inputs[j]), lhs=float(a), rhs=float(b),
                      margin=0.0 - abs(a - b))
    return VerificationOutcome(name, rng, not bad.size, witness)
