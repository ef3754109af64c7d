"""svgplot.line_plot against the per-point oracle: the same polylines,
byte for byte, on linear and log-log axes."""

import re

import numpy as np
import pytest

import oracles
from nlw.svgplot import line_plot


def _series():
    """Three series of 2,049 points with NaN, +-inf, zero and negative
    values, and one that nothing survives on log-log axes."""
    t = np.arange(2049) / 32.0
    with np.errstate(divide="ignore"):
        decay = t ** -0.5  # inf at t = 0
    wave = np.exp(-t / 16.0) * np.cos(t)  # changes sign
    spiky = 1.0 + t * t
    spiky[::97] = np.nan
    spiky[5::211] = np.inf
    spiky[7::307] = -np.inf
    spiky[11::401] = 0.0
    return [("decay", t, decay), ("wave", t.tolist(), wave), ("spiky", t, spiky),
            ("negative", t, -spiky)]


@pytest.mark.parametrize("loglog", [False, True])
def test_line_plot_draws_the_oracle_polylines(tmp_path, loglog):
    series = _series()
    text = line_plot(tmp_path / "plot.svg", series, title="t", loglog=loglog).read_text()
    got = re.findall(r'<polyline points="([^"]*)"', text)
    want = oracles.polyline_points(series, loglog)
    assert len(got) == (3 if loglog else 4)
    assert got == want


def test_line_plot_refuses_series_with_no_point_left(tmp_path):
    t = np.arange(4.0)
    with pytest.raises(ValueError, match="nothing to plot"):
        line_plot(tmp_path / "plot.svg", [("bad", t, [np.nan, 0.0, -1.0, np.inf])],
                  loglog=True)
