"""Tiny dependency-free SVG line plots for run reports.

Only what the CLI needs: multi-series line plots with linear or log-log
axes, decade/nice-number ticks, and a legend.  Output is a standalone
.svg file.
"""

import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L = 64
_MARGIN_R = 16
_MARGIN_T = 34
_MARGIN_B = 46


def _finite_pairs(xs, ys, loglog):
    out = []
    for x, y in zip(xs, ys):
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        if loglog and (x <= 0.0 or y <= 0.0):
            continue
        out.append((float(x), float(y)))
    return out


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


def line_plot(path, series, title="", xlabel="", ylabel="", loglog=False):
    """Write a line plot to `path`.

    series: iterable of (label, xs, ys).  Non-finite points are dropped;
    on log-log axes non-positive points are dropped too.  Returns path.
    """
    cleaned = []
    for label, xs, ys in series:
        pts = _finite_pairs(xs, ys, loglog)
        if pts:
            cleaned.append((str(label), pts))
    if not cleaned:
        raise ValueError("nothing to plot: every series is empty after cleaning")

    all_x = [x for _, pts in cleaned for x, _ in pts]
    all_y = [y for _, pts in cleaned for _, y in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    scale = math.log10 if loglog else float
    ticks = _decade_ticks if loglog else _nice_ticks
    x_ticks, y_ticks = ticks(x_lo, x_hi), ticks(y_lo, y_hi)
    x0, x1 = scale(x_lo), scale(x_hi)
    y0, y1 = scale(y_lo), scale(y_hi)
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y1 = y0 + 1.0

    width, height = 640, 420
    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + plot_w * (scale(x) - x0) / (x1 - x0)

    def py(y):
        return _MARGIN_T + plot_h * (1.0 - (scale(y) - y0) / (y1 - y0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for tv in x_ticks:
        xp = px(tv)
        parts.append(
            f'<line x1="{xp:.1f}" y1="{_MARGIN_T + plot_h}" x2="{xp:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{xp:.1f}" y="{_MARGIN_T + plot_h + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{_fmt(tv)}</text>"
        )
        parts.append(
            f'<line x1="{xp:.1f}" y1="{_MARGIN_T}" x2="{xp:.1f}" '
            f'y2="{_MARGIN_T + plot_h}" stroke="#ddd" stroke-width="0.5"/>'
        )
    for tv in y_ticks:
        yp = py(tv)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{yp:.1f}" x2="{_MARGIN_L}" '
            f'y2="{yp:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{yp + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tv)}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{yp:.1f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{yp:.1f}" stroke="#ddd" stroke-width="0.5"/>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{height - 8}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{xlabel}</text>"
        )
    if ylabel:
        yc = _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="14" y="{yc:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {yc:.1f})">{ylabel}</text>'
        )

    for k, (label, pts) in enumerate(cleaned):
        color = PALETTE[k % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 14 + 16 * k
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
