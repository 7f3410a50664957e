import shutil

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
    """The compiled kernel library.  Tests that need it skip when there is no C compiler, and
    fail when there is one and the kernel does not build, so a build error is not a skip."""
    lib = sieve._load_kernel()
    if lib is None:
        if shutil.which(sieve.KERNEL_CC[0]):
            pytest.fail(f"{sieve.KERNEL_CC[0]} is on PATH but the kernel did not build or load")
        pytest.skip("no C compiler builds the kernel")
    return lib
