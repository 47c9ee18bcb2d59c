import sys
from pathlib import Path

import pytest

from primegaps.sieve import build_factor_table

# the package-independent reference values shared with the benchmark
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))


@pytest.fixture(scope="session")
def table_full_1e4():
    return build_factor_table(2, 10**4 + 1)


@pytest.fixture(scope="session")
def table_full_1e5():
    return build_factor_table(2, 10**5 + 1)


@pytest.fixture(scope="session")
def table_full_1e6():
    return build_factor_table(2, 10**6 + 1)


@pytest.fixture(scope="session")
def table_win_1e4():
    return build_factor_table(10**4, 2 * 10**4 + 9)


@pytest.fixture(scope="session")
def table_win_1e5():
    return build_factor_table(10**5, 2 * 10**5 + 9)


@pytest.fixture(scope="session")
def table_win_1e6():
    return build_factor_table(10**6, 2 * 10**6 + 9)


@pytest.fixture(scope="session")
def table_win_1e7():
    # shared by the heavy acceptance checks; ~2 s to build
    return build_factor_table(10**7, 2 * 10**7 + 9)
