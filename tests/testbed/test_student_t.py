"""Tests for the in-repo Student-t quantile behind the interval
estimates."""

import pytest

from repro.testbed.student_t import t_quantile

#: Two-sided critical values t_{(1+c)/2, df} from the standard table,
#: for confidence c = 0.80, 0.90, 0.95, 0.99.
TABLE = {
    1: (3.078, 6.314, 12.706, 63.657),
    2: (1.886, 2.920, 4.303, 9.925),
    3: (1.638, 2.353, 3.182, 5.841),
    5: (1.476, 2.015, 2.571, 4.032),
    10: (1.372, 1.812, 2.228, 3.169),
    30: (1.310, 1.697, 2.042, 2.750),
    120: (1.289, 1.658, 1.980, 2.617),
}
CONFIDENCES = (0.80, 0.90, 0.95, 0.99)


@pytest.mark.parametrize("df", sorted(TABLE))
def test_matches_textbook_table(df):
    for confidence, expected in zip(CONFIDENCES, TABLE[df]):
        got = t_quantile(0.5 + confidence / 2.0, df)
        assert got == pytest.approx(expected, abs=5e-4)


def test_symmetric_about_the_median():
    assert t_quantile(0.5, 4) == 0.0
    assert t_quantile(0.025, 7) == -t_quantile(0.975, 7)


@pytest.mark.parametrize("p,df", [(0.0, 3), (1.0, 3), (0.9, 0)])
def test_rejects_out_of_range(p, df):
    with pytest.raises(ValueError):
        t_quantile(p, df)


def test_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for df in range(1, 201):
        for p in (0.6, 0.9, 0.95, 0.975, 0.995, 0.9995, 0.025):
            assert t_quantile(p, df) == pytest.approx(
                stats.t.ppf(p, df), rel=1e-6)
