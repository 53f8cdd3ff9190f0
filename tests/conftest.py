import pytest

from depthlab.toyvm import MEMO


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts from an empty memo, so no result or timing depends
    on what ran before it."""
    MEMO.reset()
