"""Minimal deterministic SVG line charts (no raster or plotting deps).

Output bytes depend only on the inputs: no timestamps, generated ids, or
library version strings, so plots satisfy the same determinism contract as
the trajectory files.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .trajectory import _atomic_write

__all__ = ["line_chart"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50

# characters XML 1.0 cannot hold, not even as character references
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
_MARKUP = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _text(s) -> str:
    """``s`` as SVG text content: markup escaped, unwritable characters as U+FFFD."""
    return _NOT_XML.sub("\ufffd", str(s)).translate(_MARKUP)


def _ticks_linear(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * step:
        out.append(round(v, 12))
        v += step
    return out


def _ticks_log(lo: float, hi: float) -> list[float]:
    lo_e = math.ceil(math.log10(lo) - 1e-9)
    hi_e = math.floor(math.log10(hi) + 1e-9)
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def line_chart(
    series: list[dict],
    out_path: str,
    loglog: bool = False,
    xlabel: str = "x",
    ylabel: str = "y",
    title: str = "",
) -> list[str]:
    """Render polyline series to an SVG file, written atomically.

    Each series is ``{"x": array, "y": array, "label": str, "dashed": bool}``.
    Nonpositive points are dropped in log-log mode; empty series produce a
    warning string in the returned list instead of failing.  Any label or
    title gives well-formed XML.
    """
    warnings = []
    clean = []
    for s in series:
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if loglog:
            keep &= (x > 0) & (y > 0)
        x, y = x[keep], y[keep]
        if len(x) == 0:
            warnings.append(f"series {s.get('label', '?')!r} has no plottable points")
            continue
        clean.append({**s, "x": x, "y": y})
    if not clean:
        warnings.append("nothing to plot")
        _atomic_write(out_path, f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}"/>\n')
        return warnings

    xs = np.concatenate([s["x"] for s in clean])
    ys = np.concatenate([s["y"] for s in clean])
    if loglog:
        xs, ys = np.log10(xs), np.log10(ys)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    px = lambda v: _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)
    py = lambda v: _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
        'fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{_W/2:.1f}" y="14" text-anchor="middle">{_text(title)}</text>')

    if loglog:
        xticks = [(math.log10(v), f"1e{int(math.log10(v))}") for v in _ticks_log(10**x_lo, 10**x_hi)]
        yticks = [(math.log10(v), f"1e{int(math.log10(v))}") for v in _ticks_log(10**y_lo, 10**y_hi)]
    else:
        xticks = [(v, f"{v:g}") for v in _ticks_linear(x_lo, x_hi)]
        yticks = [(v, f"{v:g}") for v in _ticks_linear(y_lo, y_hi)]
    for v, lab in xticks:
        if x_lo <= v <= x_hi:
            parts.append(f'<line x1="{px(v):.2f}" y1="{_H-_MB}" x2="{px(v):.2f}" '
                         f'y2="{_H-_MB+5}" stroke="black"/>')
            parts.append(f'<text x="{px(v):.2f}" y="{_H-_MB+18}" text-anchor="middle">{lab}</text>')
    for v, lab in yticks:
        if y_lo <= v <= y_hi:
            parts.append(f'<line x1="{_ML-5}" y1="{py(v):.2f}" x2="{_ML}" '
                         f'y2="{py(v):.2f}" stroke="black"/>')
            parts.append(f'<text x="{_ML-8}" y="{py(v)+4:.2f}" text-anchor="end">{lab}</text>')
    parts.append(f'<text x="{(_ML+_W-_MR)/2:.1f}" y="{_H-12}" text-anchor="middle">{_text(xlabel)}</text>')
    parts.append(f'<text x="16" y="{(_MT+_H-_MB)/2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(_MT+_H-_MB)/2:.1f})">{_text(ylabel)}</text>')

    for k, s in enumerate(clean):
        x, y = s["x"], s["y"]
        if loglog:
            x, y = np.log10(x), np.log10(y)
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
        color = _PALETTE[k % len(_PALETTE)]
        dash = ' stroke-dasharray="6,4"' if s.get("dashed") else ""
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"{dash}/>')
        label = s.get("label")
        if label:
            yleg = _MT + 16 + 16 * k
            parts.append(f'<line x1="{_W-_MR-150}" y1="{yleg-4}" x2="{_W-_MR-120}" '
                         f'y2="{yleg-4}" stroke="{color}" stroke-width="1.5"{dash}/>')
            parts.append(f'<text x="{_W-_MR-114}" y="{yleg}">{_text(label)}</text>')
    parts.append("</svg>")
    _atomic_write(out_path, "\n".join(parts) + "\n")
    return warnings
