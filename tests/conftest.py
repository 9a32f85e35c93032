import os

import pytest
from hypothesis import settings

from k3fat.cli import _THREAD_VARS
from k3fat.oracle import PrimeFieldConfig

# A failing property prints its @reproduce_failure line (the default is not
# to); the examples drawn are the default profile's.
settings.register_profile("k3fat", print_blob=True)
settings.load_profile("k3fat")


@pytest.fixture(autouse=True)
def thread_vars_restored():
    """Undo what an in-process `cli.main` writes to the thread variables, so
    that no test leaks them to later tests or to the processes they start."""
    saved = {var: os.environ.get(var) for var in _THREAD_VARS}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


@pytest.fixture(scope="session")
def small_cfg():
    """Single-prime config for fast oracle unit tests."""
    return PrimeFieldConfig(seed=1, trials=2, prime2=None)


@pytest.fixture(scope="session")
def cross_cfg():
    """Dual-prime config matching the defaults of the acceptance suite."""
    return PrimeFieldConfig(seed=1, trials=3)
