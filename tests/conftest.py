import pytest

from snowflake_groups import GroupParams, bfs_ball
from snowflake_groups.hnn_group import _key_mul, reduce_chars


def right_fold_key(L, chars):
    """Normal-form key of chars folded in from the right, one letter at a time.

    O(n^2): the slow cross-check of reduce_word, which folds from the left.
    """
    out = (0, 0)
    for ch in reversed(chars):
        out = _key_mul(L, reduce_chars(L, ch), out)
    return out


@pytest.fixture(scope="session")
def p6():
    return GroupParams(6)


@pytest.fixture(scope="session")
def p8():
    return GroupParams(8)


@pytest.fixture(scope="session")
def p10():
    return GroupParams(10)


@pytest.fixture(scope="session")
def p12():
    return GroupParams(12)


@pytest.fixture(scope="session")
def ball6_r6(p6):
    """A small L = 6 ball reused as the brute-force distance oracle."""
    return bfs_ball(p6, 6)
