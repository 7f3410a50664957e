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
    """The compiled kernel library.  Every test that needs it fails, never skips, when it cannot
    be built: the package has no other path."""
    return sieve._load_kernel()
