import pytest

from modtalg.analysis import compute_artifacts, scheme_artifacts
from modtalg.ffmat import field_ctx
from modtalg.fixtures import corpus

PRIMES = (2, 3, 5, 7)


@pytest.fixture(scope="session")
def schemes():
    return dict(corpus())


@pytest.fixture(scope="session")
def artifacts():
    """Memoized full-pipeline artifacts keyed by (fixture name, p, x)."""
    cache, per_scheme = {}, {}
    named = dict(corpus())

    def get(name, p, x=0):
        key = (name, p, x)
        if key not in cache:
            if (name, p) not in per_scheme:
                per_scheme[name, p] = scheme_artifacts(named[name], field_ctx(p))
            cache[key] = compute_artifacts(per_scheme[name, p], x)
        return cache[key]

    return get
