import numpy as np
import pytest

from mertenslab.sieve import build_sieve


@pytest.fixture(scope="session")
def table_1e4():
    return build_sieve(10 ** 4)


@pytest.fixture(scope="session")
def table_1e5():
    return build_sieve(10 ** 5)


@pytest.fixture(scope="session")
def table_1e6():
    return build_sieve(10 ** 6)


@pytest.fixture(scope="session")
def table_2e7():
    # covers the 1e7 sweeps and the 10^6-th prime (15,485,863)
    return build_sieve(2 * 10 ** 7)


@pytest.fixture
def verdict_args(monkeypatch):
    """spy(module, rule): the (inputs, lhs, rhs) arrays each call of the
    verdict rule ``rule`` (exact_case, worst_case or worst_case_blocks,
    whose blocks are joined) is handed inside ``module``, collected in
    call order into the list it returns."""
    def spy(module, rule):
        seen = []
        real = getattr(module, rule)

        def record(name, rng, *args):
            if rule == "worst_case_blocks":
                args = (list(args[0]), *args[1:])
                sides = zip(*(np.broadcast_arrays(*b)[:3] for b in args[0]))
                seen.append(tuple(map(np.concatenate, sides)))
            else:
                seen.append(tuple(np.asarray(a) for a in args[:3]))
            return real(name, rng, *args)

        monkeypatch.setattr(module, rule, record)
        return seen
    return spy
