"""Independent brute-force oracles the tests check the library against.

Everything here is trial division or direct enumeration: no sieve
tables, no shared code paths with the package. point_sum_reference
alone reads a table's prime list, and sums it whole.
"""

import math

import numpy as np


def trial_factorize(n: int) -> list[tuple[int, int]]:
    factors = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def trial_primes(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]


def trial_largest_factor(n: int) -> int:
    return trial_factorize(n)[-1][0]


def divisor_lambda_loop(x: int) -> np.ndarray:
    """Sum of Lambda over the divisors of n for n = 0..x, one strided add
    per prime power m <= x onto the multiples of m: the primes ascending,
    then the higher powers grouped by p ascending. log p is np.log over
    the array of the primes <= x, the weights the package uses, so the
    result can be compared bit for bit."""
    primes = trial_primes(x)
    logs = np.log(np.array(primes, dtype=np.float64)).tolist()
    powers = [(p ** k, lp) for p, lp in zip(primes, logs)
              for k in range(2, x.bit_length()) if p ** k <= x]
    sums = np.zeros(x + 1, dtype=np.float64)
    for m, lp in [*zip(primes, logs), *powers]:
        sums[m::m] += lp
    return sums


def g_count_all_loop(x_max: int) -> np.ndarray:
    """G(x) for x = 0..x_max from one strided add per prime p <= x_max
    onto its multiples p, 2p, ..., min((p-1)p, x_max), then a cumsum."""
    diff = np.zeros(x_max + 1, dtype=np.int64)
    for p in trial_primes(x_max):
        diff[p:min(p * (p - 1), x_max) + 1:p] += 1
    return np.cumsum(diff)


def split_interval_loop(x_max: int):
    """For each x = 2..x_max, the primes p with p(p - 1) <= x < p^2,
    found by trying every prime <= x_max. Returns int64 arrays: the
    (x, p) pairs as xs and ps, ordered by p and then by x, the floors
    x // p, and the number of such primes at each x."""
    primes = trial_primes(x_max)
    rows = [[p for p in primes if p * (p - 1) <= x < p * p]
            for x in range(2, x_max + 1)]
    found = sorted(((x, p) for x, row in enumerate(rows, 2) for p in row),
                   key=lambda xp: xp[1])
    xs, ps, floors = (np.array(col, dtype=np.int64) for col in
                      zip(*((x, p, x // p) for x, p in found)))
    return xs, ps, floors, np.array([len(row) for row in rows],
                                    dtype=np.int64)


def divisors_brute(n: int) -> list[int]:
    """The divisors of n >= 1, ascending, from its trial factorization."""
    divs = [1]
    for p, e in trial_factorize(n):
        divs = [d * p ** i for d in divs for i in range(e + 1)]
    return sorted(divs)


def lambda_list(x: int) -> list[float]:
    """Lambda(n) for n = 0..x, log p being np.log over the array of the
    primes <= x: the weights the package's whole-range tables use."""
    primes = trial_primes(x)
    lam = [0.0] * (x + 1)
    for p, lp in zip(primes,
                     np.log(np.array(primes, dtype=np.float64)).tolist()):
        m = p
        while m <= x:
            lam[m] = lp
            m *= p
    return lam


def selberg_diffs_loop(n_max: int) -> np.ndarray:
    """|Lambda(n) log n + (Lambda * Lambda)(n) - sum_d mu(d) log^2(n/d)|
    for n = 1..n_max, one divisor loop per n: log n by np.log over
    1..n_max, log^2(m) as math.log(m) ** 2, each sum by math.fsum."""
    lam = lambda_list(n_max)
    logs = [0.0, *np.log(np.arange(1, n_max + 1, dtype=np.float64)).tolist()]
    mu = [0, *map(mobius_brute, range(1, n_max + 1))]
    diffs = []
    for n in range(1, n_max + 1):
        divs = divisors_brute(n)
        lhs = lam[n] * logs[n] + math.fsum(lam[d] * lam[n // d] for d in divs)
        rhs = math.fsum(mu[d] * math.log(n // d) ** 2 for d in divs)
        diffs.append(abs(lhs - rhs))
    return np.array(diffs)


def k1_diffs_loop(n_max: int) -> np.ndarray:
    """|sum_d mu(d) log(n/d) - Lambda(n)| for n = 1..n_max, one divisor
    loop per n, with Lambda(p^a) = math.log(p) as the point values give."""
    mu = [0, *map(mobius_brute, range(1, n_max + 1))]
    diffs = []
    for n in range(1, n_max + 1):
        factors = trial_factorize(n)
        point = math.log(factors[0][0]) if len(factors) == 1 else 0.0
        lam1 = math.fsum(mu[d] * math.log(n // d) for d in divisors_brute(n))
        diffs.append(abs(lam1 - point))
    return np.array(diffs)


def legendre_misses_loop(n_max: int) -> np.ndarray:
    """For n = 2..n_max, the sum over the primes p <= n_max of
    |exponent of p accumulated over the trial factorizations of 2..n
    - Legendre's sum of floor(n / p^i)|: one pass per prime."""
    ns = np.arange(n_max + 1, dtype=np.int64)
    nu = {p: np.zeros(n_max + 1, dtype=np.int64) for p in trial_primes(n_max)}
    for k in range(2, n_max + 1):
        for p, e in trial_factorize(k):
            nu[p][k] = e
    misses = np.zeros(n_max + 1, dtype=np.int64)
    for p, exps in nu.items():
        legendre = np.zeros(n_max + 1, dtype=np.int64)
        pk = p
        while pk <= n_max:
            legendre += ns // pk
            pk *= p
        misses += np.abs(np.cumsum(exps) - legendre)
    return misses[2:]


def dirichlet_brute(f, g, x: int) -> np.ndarray:
    """h(n) = math.fsum of f(d) g(n/d) over every divisor d of n, found by
    trying each d <= n, for n = 0..x; h(0) = 0.0."""
    return np.array([0.0, *(math.fsum(f[d] * g[n // d]
                                      for d in range(1, n + 1) if n % d == 0)
                            for n in range(1, x + 1))])


def census_brute(x_max: int) -> list[int]:
    """counts[x] = #{2 <= n <= x : P(n)^2 > n} for x = 0..max(x_max, 1),
    where P(n) is the largest prime factor by trial division."""
    counts = [0, 0]
    for n in range(2, x_max + 1):
        counts.append(counts[-1] + (trial_largest_factor(n) ** 2 > n))
    return counts


def factorial_exponent(p: int, n: int) -> int:
    """Exponent of p in n! read off the exact big integer."""
    f = math.factorial(n)
    e = 0
    while f % p == 0:
        f //= p
        e += 1
    return e


def mobius_brute(n: int) -> int:
    factors = trial_factorize(n)
    if any(e >= 2 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def fsum_prefix(weights: dict[int, float], hi: int) -> list[float]:
    """F(n) for n = 0..hi, where F(n) is the exactly rounded sum
    (math.fsum) of the weights at positions <= n."""
    values, terms, current = [], [], 0.0
    for n in range(hi + 1):
        if n in weights:
            terms.append(weights[n])
            current = math.fsum(terms)
        values.append(current)
    return values


def abel_summation_quadrature(weights, f, f_prime, lower: float,
                              upper: float, steps: int = 64) -> float:
    """A(upper) f(upper) minus the integral of A(t) f'(t) over [lower,
    upper], where A(t) sums the weights with index <= t; the integral by
    composite Simpson with 2 * steps panels on each constant piece of A.
    Quadrature-limited: a cross-check for exact Abel summation."""
    weights = list(weights)
    idxs = [i for i, _ in weights]
    if not lower < upper or idxs != sorted(idxs):
        raise ValueError("need lower < upper and weights sorted by index")

    def partial_sum(t):
        return math.fsum(a for i, a in weights if i <= t)

    def simpson(a, b):
        n = 2 * steps
        h = (b - a) / n
        ys = [f_prime(a + k * h) for k in range(n + 1)]
        return h / 3 * math.fsum([ys[0], ys[-1], *(4 * y for y in ys[1:-1:2]),
                                  *(2 * y for y in ys[2:-1:2])])

    ends = sorted({lower, upper} | {i for i in idxs if lower < i < upper})
    integral = math.fsum(partial_sum(a) * simpson(a, b)
                         for a, b in zip(ends, ends[1:]))
    return partial_sum(upper) * f(upper) - integral


def bound_sweep_reference(check: str, hi: int, ceiling: float = 2.0,
                          c1: float = 0.3, c2: float = 1.2,
                          log4: float = math.log(4.0)) -> tuple[bool, int]:
    """(passed, witness input) of one exhaustive bound check, from its
    margin at every integer of its range: the witness is the first
    integer with the smallest margin, and the check passes when that
    margin is >= 0."""
    top = {"psi-dyadic": 2 * hi,
           "interval-primorial": 2 * hi + 1}.get(check, hi)
    primes = trial_primes(top)
    powers = {p ** k: math.log(p) for p in primes
              for k in range(1, top.bit_length()) if p ** k <= top}
    theta = fsum_prefix({p: math.log(p) for p in primes}, top)
    holds = True
    if check in ("lambda-sum-bound", "mertens1-bound"):
        terms = ({m: lp / m for m, lp in powers.items()}
                 if check == "lambda-sum-bound"
                 else {p: math.log(p) / p for p in primes})
        f = fsum_prefix(terms, hi)
        lo = 10 if check == "lambda-sum-bound" else 2

        def margin(n):
            return ceiling - abs(f[n] - math.log(n))
    elif check == "pi-upper":
        pi = fsum_prefix(dict.fromkeys(primes, 1.0), hi)
        lo = 3

        def margin(n):
            return math.e * n / math.log(n) - pi[n]
    elif check == "reciprocal-lower":
        s = fsum_prefix({p: 1.0 / p for p in primes}, hi)
        lo = 2
        shift = math.log(math.pi * math.pi / 6.0)

        def margin(n):
            return s[n] - (math.log(math.log(n + 1.0)) - shift)
    elif check == "psi-linear":
        psi = fsum_prefix(powers, top)
        lo = 2

        def margin(n):
            return min(psi[n] - c1 * n, c2 * n - psi[n])
    elif check == "psi-dyadic":
        psi = fsum_prefix(powers, top)
        lo = 1

        def margin(n):
            return log4 * n - (psi[2 * n] - psi[n])
    elif check == "small-part-bound":
        lo = 10
        small_primes = [p for p in primes if p * p <= hi]

        def margin(x):
            roots = [p for p in small_primes if p * p <= x]
            mid = len(roots) * math.sqrt(x)
            top_cap = math.e * x / math.log(math.sqrt(x))
            return min(mid - sum(p - 1 for p in roots), top_cap - mid)
    elif check == "primorial-bound":
        lo = 1

        def margin(k):
            return k * log4 - theta[k]
    elif check == "interval-primorial":
        lo = 1

        def margin(m):
            return m * log4 - (theta[2 * m + 1] - theta[m + 1])
    elif check == "psi-theta-dominance":
        psi = fsum_prefix(powers, top)
        lo = 2

        def margin(x):
            return psi[x] - theta[x]
        # equal below the first higher prime power, 4; log 2 apart after.
        # Read psi - theta as the sum of the higher powers' terms: from 4
        # to 7 it is log 2 in the reals, and the difference of the two
        # exactly rounded prefixes falls 3.3e-16 under it at 5 and 6
        higher = fsum_prefix({m: powers[m] for m in powers.keys()
                              - set(primes)}, top)
        holds = all(higher[x] == 0.0 if x < 4 else higher[x] >= math.log(2)
                    for x in range(lo, hi + 1))
    elif check == "lambda-mertens-gap":
        # the higher powers alone: sum Lambda(m)/m - sum (log p)/p >= 0
        higher = powers.keys() - set(primes)
        gap = fsum_prefix({m: powers[m] / m for m in higher}, hi)
        lo = 2
        holds = min(gap[2:]) >= 0.0

        def margin(x):
            return ceiling - gap[x]
    else:
        raise ValueError(f"no reference for {check}")
    worst = min(range(lo, hi + 1), key=margin)
    return margin(worst) >= 0.0 and holds, worst


def running_sum_loop(values) -> list[float]:
    """Neumaier's compensated running sum, one Python step per value:
    its value s + c after each of them."""
    s = c = 0.0
    out = []
    for x in values:
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
        out.append(s + c)
    return out


def abel_summation_loop(weights, f, f_prime, lower: float,
                        upper: float) -> float:
    """Exact Abel summation with a per-weight running sum: A(t) is the
    Neumaier sum of the weights with index <= t, added in index order,
    and each constant piece of A contributes A * (f(b) - f(a))."""
    weights = list(weights)
    idxs = [i for i, _ in weights]
    if not lower < upper or idxs != sorted(idxs):
        raise ValueError("need lower < upper and weights sorted by index")
    s = c = 0.0

    def add(x):
        nonlocal s, c
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t

    jumps: dict = {}
    for i, a in weights:
        if i <= lower:
            add(a)
        elif i <= upper:
            jumps.setdefault(i, []).append(a)
    pieces = []
    t_cur, f_cur = lower, f(lower)
    a_cur = s + c
    for b in sorted(jumps):
        f_b = f(b)
        pieces.append(a_cur * (f_b - f_cur))
        for a in jumps[b]:
            add(a)
        a_cur = s + c
        t_cur, f_cur = b, f_b
    f_upper = f(upper)
    if t_cur < upper:
        pieces.append(a_cur * (f_upper - f_cur))
    return math.fsum([a_cur * f_upper] + [-piece for piece in pieces])


def piece_ends_sorted(jumps: np.ndarray, lo: int, hi: int):
    """Piece ends by sorting: lo, hi, and q and q - 1 for each jump q in
    (lo, hi], sorted together, with the count of jumps at or below each
    point found by binary search."""
    inner = jumps[np.searchsorted(jumps, lo, side="right"):
                  np.searchsorted(jumps, hi, side="right")]
    ns = np.sort(np.concatenate((np.array([lo, hi], dtype=np.int64),
                                 inner, inner - 1)))
    return ns, np.searchsorted(jumps, ns, side="right")


def compensated_cumsum_loop(values, min_block: int = 4096) -> np.ndarray:
    """Prefix sums anchored per block of max(min_block, ceil(n / 2048))
    values: each block's np.cumsum plus the math.fsum of the exactly
    rounded sums of the blocks before it, one whole array at a time."""
    arr = np.asarray(values, dtype=np.float64)
    block = max(min_block, -(-arr.size // 2048))
    starts = range(0, arr.size, block)
    partials = [math.fsum(arr[a:a + block].tolist()) for a in starts]
    out = np.empty(arr.size)
    for k, start in enumerate(starts):
        chunk = arr[start:start + block]
        out[start:start + chunk.size] = (np.cumsum(chunk)
                                         + math.fsum(partials[:k]))
    return out


def point_sum_reference(table, func: str, x: int, s: float = 2.0):
    """The nine point queries at x from the table's prime list, each as
    one whole-array formula over every term at once, summed by
    math.fsum: the prime powers come primes first, then each p's powers
    p^k <= x, and every log p is np.log of the float primes."""
    ps = table.primes[:int(np.searchsorted(table.primes, x, side="right"))]
    if func == "prime_count":
        return int(ps.size)
    if func == "g_count":
        return int(np.minimum(ps - 1, x // ps).sum())
    pf = ps.astype(np.float64)
    logs = np.log(pf)
    roots = ps[ps <= math.isqrt(x)].tolist()
    powers = [(p ** k, i) for i, p in enumerate(roots)
              for k in range(2, x.bit_length()) if p ** k <= x]
    ms = np.concatenate((pf, [float(m) for m, _ in powers]))
    mlogs = np.concatenate((logs, logs[[i for _, i in powers]]))
    terms = {
        "sum_lambda_over_n": lambda: mlogs / ms,
        "mertens_first_sum": lambda: logs / pf,
        "reciprocal_prime_sum": lambda: 1.0 / pf,
        "chebyshev_psi": lambda: mlogs,
        "theta_log_primorial": lambda: logs,
        "rough_tail_sum": lambda: 1.0 / pf[pf > math.isqrt(x)],
        "log_zeta_truncation": lambda: mlogs / (np.log(ms)
                                                * np.power(ms, s)),
    }[func]()
    return math.fsum(memoryview(terms))
