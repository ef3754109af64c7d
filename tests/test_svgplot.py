"""svgplot.line_plot against the per-point oracle: the same polylines,
byte for byte, on linear and log-log axes; and whole files against
golden digests."""

import hashlib
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


# SHA-256 of the whole file for _golden_series on linear and log-log axes
GOLDEN_SVG = {
    False: "cfe632d6c84e66c926333e167c05e560f870cdacdb3351206547d0ccfdf8cbb0",
    True: "28a82c03552c1dd7bf1c3cb1f4d07559b556d0c8b673f4fc322ac0707b91161a",
}


def _golden_series():
    t = np.linspace(0.25, 64.0, 9)
    return [("E_total", t, np.full_like(t, 3.0)), ("E_minus", t, t ** -0.5),
            ("E_plus", t, 3.0 - t ** -0.5)]


@pytest.mark.parametrize("loglog", [False, True])
def test_line_plot_bytes_are_golden(tmp_path, loglog):
    """Every element of a titled, labelled plot with a three-series legend,
    ticks and grid lines included, byte for byte."""
    path = line_plot(tmp_path / "plot.svg", _golden_series(), title="channel energies",
                     xlabel="t", ylabel="energy", loglog=loglog)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SVG[loglog]
