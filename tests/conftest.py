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
