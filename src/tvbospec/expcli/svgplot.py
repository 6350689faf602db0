"""Minimal deterministic SVG plotting (lines, scatter, log y axis).

Just enough to render spectrum and regret figures without a plotting
dependency: one panel per plot, a linear x axis, a linear or log10 y axis,
automatic ticks,
polyline/marker series and a legend.  Output is plain text SVG with no
timestamps, so identical inputs yield identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Series", "SvgPlot"]

_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
           "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]


@dataclass
class Series:
    xs: list
    ys: list
    label: str = ""
    marker: bool = False
    line: bool = True


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float):
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo]


class SvgPlot:
    """A single-panel plot assembled in memory and written as SVG."""

    WIDTH = 640
    HEIGHT = 420

    def __init__(self, title: str = "", xlabel: str = "", ylabel: str = "",
                 ylog: bool = False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.ylog = ylog
        self.series: list[Series] = []

    def add(self, xs, ys, label: str = "", marker: bool = False,
            line: bool = True) -> None:
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        self.series.append(Series(xs, ys, label, marker, line))

    # -- rendering --------------------------------------------------------

    def _ty(self, v: float) -> float:
        if self.ylog:
            return math.log10(max(v, 1e-300))
        return v

    def render(self) -> str:
        width, height = self.WIDTH, self.HEIGHT
        margin_l, margin_r, margin_t, margin_b = 64, 16, 28, 46
        px = width - margin_l - margin_r
        py = height - margin_t - margin_b

        pts = [(x, self._ty(y))
               for s in self.series
               for x, y in zip(s.xs, s.ys)
               if not self.ylog or y > 0]
        if not pts:
            pts = [(0.0, 0.0), (1.0, 1.0)]
        xs, ys = zip(*pts)
        xlo, xhi = min(xs), max(xs)
        ylo, yhi = min(ys), max(ys)
        if xhi <= xlo:
            xhi = xlo + 1.0
        if yhi <= ylo:
            yhi = ylo + 1.0
        xpad = 0.03 * (xhi - xlo)
        ypad = 0.05 * (yhi - ylo)
        xlo, xhi = xlo - xpad, xhi + xpad
        ylo, yhi = ylo - ypad, yhi + ypad

        def sx(v):
            return margin_l + (v - xlo) / (xhi - xlo) * px

        def sy(v):
            return margin_t + py - (self._ty(v) - ylo) / (yhi - ylo) * py

        out = []
        out.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
                   f'width="{width}" height="{height}" '
                   f'viewBox="0 0 {width} {height}">')
        out.append(f'<rect width="{width}" height="{height}" '
                   f'fill="white"/>')
        out.append(f'<rect x="{margin_l}" y="{margin_t}" width="{px}" '
                   f'height="{py}" fill="none" stroke="#333" stroke-width="1"/>')
        if self.title:
            out.append(f'<text x="{width / 2}" y="18" text-anchor="middle" '
                       f'font-family="sans-serif" font-size="13">{self.title}</text>')

        # ticks (y coordinates live in transformed space; log labels are 10^t)
        for t in _ticks(xlo, xhi):
            x = margin_l + (t - xlo) / (xhi - xlo) * px
            out.append(f'<line x1="{x:.2f}" y1="{margin_t + py}" x2="{x:.2f}" '
                       f'y2="{margin_t + py + 4}" stroke="#333"/>')
            out.append(f'<text x="{x:.2f}" y="{margin_t + py + 16}" '
                       f'text-anchor="middle" font-family="sans-serif" '
                       f'font-size="10">{_fmt(t)}</text>')
        if self.ylog:
            tick_vals = [e for e in range(math.floor(ylo), math.ceil(yhi) + 1)
                         if ylo <= e <= yhi]
        else:
            tick_vals = _ticks(ylo, yhi)
        for t in tick_vals:
            y = margin_t + py - (t - ylo) / (yhi - ylo) * py
            label = _fmt(10.0 ** t) if self.ylog else _fmt(t)
            out.append(f'<line x1="{margin_l - 4}" y1="{y:.2f}" x2="{margin_l}" '
                       f'y2="{y:.2f}" stroke="#333"/>')
            out.append(f'<text x="{margin_l - 8}" y="{y + 3:.2f}" '
                       f'text-anchor="end" font-family="sans-serif" '
                       f'font-size="10">{label}</text>')
        if self.xlabel:
            out.append(f'<text x="{margin_l + px / 2}" y="{height - 10}" '
                       f'text-anchor="middle" font-family="sans-serif" '
                       f'font-size="11">{self.xlabel}</text>')
        if self.ylabel:
            yc = margin_t + py / 2
            out.append(f'<text x="14" y="{yc}" text-anchor="middle" '
                       f'font-family="sans-serif" font-size="11" '
                       f'transform="rotate(-90 14 {yc})">{self.ylabel}</text>')

        # series
        for idx, s in enumerate(self.series):
            color = _COLORS[idx % len(_COLORS)]
            coords = [(sx(x), sy(y)) for x, y in zip(s.xs, s.ys)
                      if not self.ylog or y > 0]
            if s.line and len(coords) > 1:
                path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
                out.append(f'<polyline points="{path}" fill="none" '
                           f'stroke="{color}" stroke-width="1.5"/>')
            if s.marker:
                for x, y in coords:
                    out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" '
                               f'fill="{color}"/>')

        # legend
        labeled = [s for s in self.series if s.label]
        for i, s in enumerate(labeled):
            color = _COLORS[self.series.index(s) % len(_COLORS)]
            lx = margin_l + 10
            ly = margin_t + 14 + 14 * i
            out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                       f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
                       f'font-size="10">{s.label}</text>')

        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
