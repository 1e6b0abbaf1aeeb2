from __future__ import annotations

import pytest
from hypothesis import settings

from errandlab.config import default_config
from errandlab.simulate import default_profile, null_profile, perfect_profile

# Every property draws the same examples on every run: a failure seen once is
# seen again, and no example database is kept.  An explicit @settings(...) on
# a test starts from this profile, so it inherits derandomize=True.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def config():
    return default_config()


@pytest.fixture(scope="session")
def perfect():
    return perfect_profile()


@pytest.fixture(scope="session")
def null():
    return null_profile()


@pytest.fixture(scope="session")
def typical():
    return default_profile()


@pytest.fixture(params=[
    pytest.param((lambda value, error: (0.0 * value, error),
                  "alternative marginal is not positive"), id="zero-value"),
    pytest.param((lambda value, error: (value, 0.5 * value),
                  "relative error 5.000e-01 exceeds 1e-6"), id="half-error"),
])
def integral_fault(request, monkeypatch):
    """A fault of the Bayes factor's integral that no real column reaches,
    put into the integrator's results: a zero value, or an error estimate of
    half the value.  Returns the message of the IntegrationFailure it raises."""
    from errandlab import bayes  # here: no other fixture loads numpy

    integrate = bayes._adaptive_gk21
    fault, message = request.param

    def faulty(*args):
        value, error, failures = integrate(*args)
        return (*fault(value, error), failures)

    monkeypatch.setattr(bayes, "_adaptive_gk21", faulty)
    return message
