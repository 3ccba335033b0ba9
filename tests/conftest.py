import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int/str digit limit (4 300 digits) while
    the test runs, whatever an earlier test left; restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(old)
