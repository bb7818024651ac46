"""Minimal static SVG charts (polylines and box plots), no plotting deps.

Output is fully deterministic: fixed canvas, fixed palette, fixed-precision
coordinates.
"""

from __future__ import annotations

import numpy as np

_WIDTH = 640
_HEIGHT = 440
_MARGIN = 56
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf",
            "#8c564b", "#7f7f7f")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


class _Canvas:
    def __init__(self, title, x_label, y_label, x_range, y_range):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="14">'
            f'{title}</text>',
        ]
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self._axes(x_label, y_label)

    def px(self, x: float) -> float:
        return _MARGIN + (x - self.x0) / (self.x1 - self.x0) * (_WIDTH - 2 * _MARGIN)

    def py(self, y: float) -> float:
        return _HEIGHT - _MARGIN - (y - self.y0) / (self.y1 - self.y0) * (_HEIGHT - 2 * _MARGIN)

    def _axes(self, x_label, y_label):
        left, right = _MARGIN, _WIDTH - _MARGIN
        top, bottom = _MARGIN, _HEIGHT - _MARGIN
        self.parts.append(f'<rect x="{left}" y="{top}" width="{right - left}" '
                          f'height="{bottom - top}" fill="none" stroke="#333"/>')
        for i in range(5):
            fx = self.x0 + (self.x1 - self.x0) * i / 4
            fy = self.y0 + (self.y1 - self.y0) * i / 4
            self.parts.append(f'<text x="{_fmt(self.px(fx))}" y="{bottom + 18}" '
                              f'text-anchor="middle">{fx:.3g}</text>')
            self.parts.append(f'<text x="{left - 6}" y="{_fmt(self.py(fy) + 4)}" '
                              f'text-anchor="end">{fy:.3g}</text>')
            self.parts.append(f'<line x1="{_fmt(self.px(fx))}" y1="{bottom}" '
                              f'x2="{_fmt(self.px(fx))}" y2="{bottom + 4}" stroke="#333"/>')
            self.parts.append(f'<line x1="{left - 4}" y1="{_fmt(self.py(fy))}" '
                              f'x2="{left}" y2="{_fmt(self.py(fy))}" stroke="#333"/>')
        self.parts.append(f'<text x="{(left + right) / 2:.0f}" y="{_HEIGHT - 12}" '
                          f'text-anchor="middle">{x_label}</text>')
        self.parts.append(f'<text x="16" y="{(top + bottom) / 2:.0f}" text-anchor="middle" '
                          f'transform="rotate(-90 16 {(top + bottom) / 2:.0f})">{y_label}</text>')

    def polyline(self, xs, ys, color, dashed=False):
        points = " ".join(map("{:.2f},{:.2f}".format,
                              self.px(np.asarray(xs, dtype=float)).tolist(),
                              self.py(np.asarray(ys, dtype=float)).tolist()))
        dash = ' stroke-dasharray="5,4"' if dashed else ""
        self.parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                          f'stroke-width="1.5"{dash}/>')

    def legend(self, entries):
        for i, (name, color, dashed) in enumerate(entries):
            y = _MARGIN + 14 + 16 * i
            dash = ' stroke-dasharray="5,4"' if dashed else ""
            self.parts.append(f'<line x1="{_WIDTH - 170}" y1="{y}" x2="{_WIDTH - 140}" '
                              f'y2="{y}" stroke="{color}" stroke-width="1.5"{dash}/>')
            self.parts.append(f'<text x="{_WIDTH - 134}" y="{y + 4}">{name}</text>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def line_chart(series, *, title, x_label, y_label, x_range=None, y_range=None,
               diagonal=False) -> str:
    """series: iterable of (name, xs, ys[, dashed])."""
    series = [(entry[0], np.asarray(entry[1], dtype=float), np.asarray(entry[2], dtype=float),
               bool(entry[3]) if len(entry) > 3 else False) for entry in series]
    if x_range is None:
        x_range = (min(s[1].min() for s in series), max(s[1].max() for s in series))
    if y_range is None:
        y_range = (min(s[2].min() for s in series), max(s[2].max() for s in series))
    canvas = _Canvas(title, x_label, y_label, x_range, y_range)
    if diagonal:
        canvas.polyline([canvas.x0, canvas.x1], [canvas.y0, canvas.y1], "#bbbbbb", dashed=True)
    entries = []
    for i, (name, xs, ys, dashed) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        canvas.polyline(xs, ys, color, dashed)
        entries.append((name, color, dashed))
    canvas.legend(entries)
    return canvas.render()


def box_chart(groups, *, title, y_label) -> str:
    """groups: iterable of (name, BoxplotStats, marker_or_None)."""
    groups = list(groups)
    values = []
    for _, stats, marker in groups:
        values.extend([stats.whisker_low, stats.whisker_high])
        values.extend(np.asarray(stats.outliers, dtype=float).tolist())
        if marker is not None:
            values.append(marker)
    y0, y1 = min(values), max(values)
    pad = 0.05 * (y1 - y0 or 1.0)
    canvas = _Canvas(title, "", y_label, (0.0, float(len(groups))), (y0 - pad, y1 + pad))
    for i, (name, stats, marker) in enumerate(groups):
        cx = i + 0.5
        half = 0.3
        px, py = canvas.px, canvas.py
        canvas.parts.append(
            f'<rect x="{_fmt(px(cx - half))}" y="{_fmt(py(stats.q3))}" '
            f'width="{_fmt(px(cx + half) - px(cx - half))}" '
            f'height="{_fmt(py(stats.q1) - py(stats.q3))}" fill="#dce9f5" stroke="#1f77b4"/>')
        canvas.parts.append(f'<line x1="{_fmt(px(cx - half))}" y1="{_fmt(py(stats.median))}" '
                            f'x2="{_fmt(px(cx + half))}" y2="{_fmt(py(stats.median))}" '
                            f'stroke="#d62728" stroke-width="2"/>')
        for tip, box_edge in ((stats.whisker_low, stats.q1), (stats.whisker_high, stats.q3)):
            canvas.parts.append(f'<line x1="{_fmt(px(cx))}" y1="{_fmt(py(box_edge))}" '
                                f'x2="{_fmt(px(cx))}" y2="{_fmt(py(tip))}" stroke="#333"/>')
            canvas.parts.append(f'<line x1="{_fmt(px(cx - 0.15))}" y1="{_fmt(py(tip))}" '
                                f'x2="{_fmt(px(cx + 0.15))}" y2="{_fmt(py(tip))}" stroke="#333"/>')
        for outlier in stats.outliers:
            canvas.parts.append(f'<text x="{_fmt(px(cx))}" y="{_fmt(py(float(outlier)) + 4)}" '
                                f'text-anchor="middle" fill="#d62728">+</text>')
        if marker is not None:
            canvas.parts.append(f'<text x="{_fmt(px(cx))}" y="{_fmt(py(marker) + 4)}" '
                                f'text-anchor="middle">*</text>')
        canvas.parts.append(f'<text x="{_fmt(px(cx))}" y="{_HEIGHT - _MARGIN + 18}" '
                            f'text-anchor="middle">{name}</text>')
    return canvas.render()
