import os

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


@pytest.fixture
def on_cpus(monkeypatch):
    """on_cpus(k, f, *args): f(*args) under an affinity mask of k CPUs, whatever the host has,
    and the largest worker count it ran on; the workers share no state, so no output may
    depend on k."""

    def run(k, f, *args):
        counts = [1]

        def on_workers(work, jobs, workers):
            counts.append(workers)
            return real(work, jobs, workers)

        real = sieve._on_workers
        with monkeypatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
            mp.setattr(sieve, "_on_workers", on_workers)
            return f(*args), max(counts)

    return run
