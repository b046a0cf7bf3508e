from unittest import mock

import numpy as np
import pytest

from toolpath_aa import fixedtext
from toolpath_aa.fixedtext import fixed_point, table, text_rows


def kernel_texts(values, decimals):
    """Each value's text by `fixed_point` and `text_rows`, one a line."""
    return text_rows([fixed_point(values, decimals), b"\n"]).split("\n")[:-1]


def percent_texts(values, decimals):
    return ["%.*f" % (decimals, v) for v in np.asarray(values).tolist()]


# exact ties at 5 and 6 decimals (k/64 and k/128), signed zeros and
# values that round to a signed zero or to one unit, 10-digit integer
# parts, values at 2**52 / 10**decimals and above, and non-finite ones
EDGES = np.array(
    [k / 64 for k in range(-130, 130)] + [k / 128 for k in range(-70, 70)]
    + [0.0, -0.0, 4e-6, -4e-6, 5e-6, -5e-6, 4e-7, -4e-7, 5e-7, -5e-7,
       1.5e-5, -2.5e-6, 0.5, 2.5, 99999.999995, -99999.999995,
       1234567890.12345, -9876543210.98765, 5629499534.21311,
       2.0 ** 52 / 1e5, -(2.0 ** 52) / 1e5, 2.0 ** 52 / 1e6, 2.0 ** 53 / 1e5,
       2.0 ** 49 / 1e5, 1e15, -1e17, 1e300, -1e300, 5e-324, -5e-324,
       np.inf, -np.inf, np.nan])


@pytest.mark.parametrize("decimals", [5, 6])
def test_fixed_point_matches_percent_on_edge_values(decimals):
    assert kernel_texts(EDGES, decimals) == percent_texts(EDGES, decimals)


@pytest.mark.parametrize("decimals", [5, 6])
def test_fixed_point_matches_percent_near_rounding_boundaries(decimals):
    # the halfway points between two outputs and their neighbours a few
    # ulps away, where the rounding of the scaled product decides
    half = (np.arange(-3000, 3000) + 0.5) / 10.0 ** decimals
    half = np.concatenate([half, half * 1e4, half * 1e8])
    values = np.concatenate([np.nextafter(half, -np.inf), half,
                             np.nextafter(half, np.inf),
                             half * (1 + 4e-16), half * (1 - 4e-16)])
    assert kernel_texts(values, decimals) == percent_texts(values, decimals)


@pytest.mark.parametrize("decimals", [5, 6])
def test_fixed_point_matches_percent_on_random_bit_patterns(decimals):
    rng = np.random.default_rng(34 + decimals)
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64),
        rng.uniform(-1e3, 1e3, 20000),
        rng.standard_normal(20000) * 10.0 ** rng.integers(-8, 12, 20000)])
    assert kernel_texts(values, decimals) == percent_texts(values, decimals)


def test_only_near_ties_and_large_or_non_finite_values_take_percent():
    values = np.array([0.015625, -0.046875, 1234567890.12345, -4e-6, 2.5,
                       2.0 ** 52 / 1e5, np.inf, np.nan, 0.1])
    with mock.patch.object(fixedtext, "_by_percent",
                           wraps=fixedtext._by_percent) as by_percent:
        fixed_point(values, 5)
    sent = by_percent.call_args.args[0]
    assert np.array_equal(sent, values[[0, 1, 5, 6, 7]], equal_nan=True)


def test_text_rows_lay_out_constants_numbers_and_tables():
    colours = table([b"%d" % i for i in range(256)])
    x = fixed_point([1.5, -0.25, 100.0], 5)
    got, cuts = text_rows([b"X", x, b" c", colours[[0, 17, 255]], b"\r\n"],
                          ends=[1, 3])
    assert got == "X1.50000 c0\r\nX-0.25000 c17\r\nX100.00000 c255\r\n"
    assert cuts.tolist() == [13, len(got)]
