import pytest

from wigsim.validation import CHECKS, run_check


@pytest.mark.parametrize("row", CHECKS, ids=[name for name, _, _ in CHECKS])
def test_anchor(row):
    passed, line = run_check(*row)
    assert passed, line
