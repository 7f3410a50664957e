import pytest

import oracle
from twinsep import sieve

ORACLE_LIMIT = 100_000


@pytest.fixture(scope="session")
def oracle100k():
    """Trial-division ground truth up to 1e5, shared across test modules."""
    primes = oracle.primes_upto(ORACLE_LIMIT)
    twins = oracle.twin_lowers(primes, ORACLE_LIMIT)
    seps, terms = oracle.separation_stream(primes, ORACLE_LIMIT)
    return {
        "limit": ORACLE_LIMIT,
        "primes": primes,
        "twins": twins,
        "seps": seps,
        "terms": terms,
    }


@pytest.fixture(scope="session")
def kernel():
    """The compiled kernel library; tests that need it skip when no C compiler builds it."""
    lib = sieve._load_kernel()
    if lib is None:
        pytest.skip("no C compiler builds the kernel")
    return lib
