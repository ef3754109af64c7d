"""Tiny dependency-free SVG line plots for run reports.

Only what the CLI needs: multi-series line plots with linear or log-log
axes, decade/nice-number ticks, and a legend.  Output is a standalone
.svg file.
"""

import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L = 64
_MARGIN_R = 16
_MARGIN_T = 34
_MARGIN_B = 46


def _nice_ticks(lo, hi, target=5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _decade_ticks(lo, hi):
    ticks = []
    e = math.floor(math.log10(lo))
    while 10.0**e <= hi * (1 + 1e-12):
        if 10.0**e >= lo * (1 - 1e-12):
            ticks.append(10.0**e)
        e += 1
    return ticks or [lo, hi]


def _fmt(v):
    if v == 0.0:
        return "0"
    a = abs(v)
    if 1e-3 <= a < 1e4:
        s = f"{v:.6g}"
    else:
        s = f"{v:.1e}"
    return s


def _num(v):
    """An attribute value: a float to one decimal, an int as it is."""
    return f"{v:.1f}" if isinstance(v, float) else str(v)


def _line(x1, y1, x2, y2, stroke, width=None):
    """A <line> element, with a stroke-width unless width is None."""
    sw = "" if width is None else f' stroke-width="{width}"'
    return (f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="{stroke}"{sw}/>')


def _text(x, y, body, size, anchor=None, turned=False):
    """A sans-serif <text> element at (x, y), with a text-anchor unless
    anchor is None, turned by -90 degrees about (x, y) if turned."""
    at = "" if anchor is None else f' text-anchor="{anchor}"'
    turn = f' transform="rotate(-90 {_num(x)} {_num(y)})"' if turned else ""
    return (f'<text x="{_num(x)}" y="{_num(y)}"{at} font-family="sans-serif" '
            f'font-size="{size}"{turn}>{body}</text>')


def line_plot(path, series, title="", xlabel="", ylabel="", loglog=False):
    """Write a line plot to `path`.

    series: iterable of (label, xs, ys).  Non-finite points are dropped;
    on log-log axes non-positive points are dropped too.  Returns path.
    """
    cleaned = []
    for label, xs, ys in series:
        x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if loglog:
            keep &= (x > 0.0) & (y > 0.0)
        if keep.any():
            cleaned.append((str(label), x[keep], y[keep]))
    if not cleaned:
        raise ValueError("nothing to plot: every series is empty after cleaning")

    all_x = np.concatenate([x for _, x, _ in cleaned])
    all_y = np.concatenate([y for *_, y in cleaned])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())

    def scale(v):  # math.log10 per value: np.log10 may differ in the last bit
        v = np.asarray(v, dtype=float)
        return np.array([math.log10(a) for a in v.tolist()]) if loglog else v

    ticks = _decade_ticks if loglog else _nice_ticks
    x_ticks, y_ticks = ticks(x_lo, x_hi), ticks(y_lo, y_hi)
    x0, x1 = scale([x_lo, x_hi]).tolist()
    y0, y1 = scale([y_lo, y_hi]).tolist()
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0

    width, height = 640, 420
    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def px(x):  # pixel columns of the values x, as a list
        return (_MARGIN_L + plot_w * (scale(x) - x0) / (x1 - x0)).tolist()

    def py(y):
        return (_MARGIN_T + plot_h * (1.0 - (scale(y) - y0) / (y1 - y0))).tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(_text(width / 2, 20, title, 14, "middle"))
    bottom = _MARGIN_T + plot_h
    for tv, xp in zip(x_ticks, px(x_ticks)):
        parts.append(_line(xp, bottom, xp, bottom + 5, "#333"))
        parts.append(_text(xp, bottom + 18, _fmt(tv), 11, "middle"))
        parts.append(_line(xp, _MARGIN_T, xp, bottom, "#ddd", 0.5))
    for tv, yp in zip(y_ticks, py(y_ticks)):
        parts.append(_line(_MARGIN_L - 5, yp, _MARGIN_L, yp, "#333"))
        parts.append(_text(_MARGIN_L - 8, yp + 4, _fmt(tv), 11, "end"))
        parts.append(_line(_MARGIN_L, yp, _MARGIN_L + plot_w, yp, "#ddd", 0.5))
    if xlabel:
        parts.append(_text(_MARGIN_L + plot_w / 2, height - 8, xlabel, 12, "middle"))
    if ylabel:
        parts.append(_text(14, _MARGIN_T + plot_h / 2, ylabel, 12, "middle", turned=True))

    for k, (label, x, y) in enumerate(cleaned):
        color = PALETTE[k % len(PALETTE)]
        coords = " ".join(map("{:.2f},{:.2f}".format, px(x), py(y)))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 14 + 16 * k
        lx = _MARGIN_L + plot_w - 150
        parts.append(_line(lx, ly - 4, lx + 22, ly - 4, color, 2))
        parts.append(_text(lx + 28, ly, label, 11))

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
