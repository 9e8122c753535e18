"""Profile selection for plots, column centering, presence-probability
curves, and plain CSV/SVG emission."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from html import escape
from itertools import combinations
from typing import Optional

import numpy as np

from .corpus import csv_text, write_atomic
from .indices import presences
from .sampling import ScoreMatrix

log = logging.getLogger(__name__)


class ProfilesError(Exception):
    pass


@dataclass(frozen=True)
class ProfileSelection:
    selected_ids: tuple
    # per text: (#times in a pair's top-4 largest, #times in its top-4 smallest)
    trace: dict


def _extreme_counts(matrix: ScoreMatrix, top: int = 4):
    values = matrix.values
    n_rows = values.shape[0]
    large = np.zeros(n_rows, dtype=int)
    small = np.zeros(n_rows, dtype=int)
    for a, b in combinations(range(values.shape[1]), 2):
        diffs = values[:, b] - values[:, a]
        order = np.argsort(diffs, kind="stable")
        large[order[-top:]] += 1
        small[order[:top]] += 1
    return large, small


def check_columns(n_cols: int):
    """Profiles compare pairs of columns, so they need at least 2."""
    if n_cols < 2:
        raise ProfilesError(f"profiles need at least 2 columns, got {n_cols}")


def select_profiles(matrix: ScoreMatrix, count: int = 12) -> ProfileSelection:
    """Pick the texts with the most extreme between-condition differences.

    For every condition pair, the four texts with the largest differences
    and the four with the smallest are tallied.  Selection is then: four
    texts with the most "largest" tallies, four more with the most
    "smallest" tallies, and four more with the most combined tallies.
    Ties break lexicographically by text id.
    """
    if count < 1:
        raise ProfilesError(f"profile count must be >= 1, got {count}")
    check_columns(len(matrix.col_labels))
    n_rows = len(matrix.row_ids)
    large, small = _extreme_counts(matrix)
    trace = {
        rid: (int(large[i]), int(small[i]))
        for i, rid in enumerate(matrix.row_ids)
    }
    if n_rows <= count:
        if n_rows < count:
            log.warning("only %d rows available, selecting all", n_rows)
        return ProfileSelection(tuple(matrix.row_ids), trace)

    ids = list(matrix.row_ids)
    remaining = set(range(n_rows))
    per_round = count // 3

    def take(scores, k):
        pool = sorted(remaining, key=lambda i: (-scores[i], ids[i]))
        chosen = pool[:k]
        remaining.difference_update(chosen)
        return chosen

    picked = take(large, per_round)
    picked += take(small, per_round)
    picked += take(large + small, count - 2 * per_round)
    return ProfileSelection(tuple(ids[i] for i in picked), trace)


def center_columns(matrix: ScoreMatrix) -> ScoreMatrix:
    """Subtract each column's mean (used for parameter-impact plots)."""
    centered = matrix.values - matrix.values.mean(axis=0, keepdims=True)
    meta = dict(matrix.meta)
    meta["centered"] = True
    return replace(matrix, values=centered, meta=meta)


def hdd_presence_curves(
    n_tokens: int = 300,
    f_values=range(1, 21),
    n_values: Optional[range] = None,
):
    """Presence probability of a frequency-f type in samples of growing size.

    Returns ``(f_values, n_values, grid)`` with grid[i][j] =
    P(present | freq f_values[i], sample n_values[j]).
    """
    if n_values is None:
        n_values = range(10, n_tokens + 1)
    f_values = list(f_values)
    n_values = list(n_values)
    return f_values, n_values, presences(n_tokens, n_values, f_values).T


def _series_of(data):
    """Normalize a matrix or presence curves into [(name, xs, ys), ...]."""
    if isinstance(data, ScoreMatrix):
        xs = []
        for label in data.col_labels:
            try:
                xs.append(float(label))
            except ValueError:
                xs.append(float(len(xs)))
        return [
            (rid, xs, list(map(float, data.values[i])))
            for i, rid in enumerate(data.row_ids)
        ]
    if isinstance(data, tuple) and len(data) == 3:
        f_values, n_values, grid = data
        return [
            (f"f={f}", list(map(float, n_values)), list(map(float, grid[i])))
            for i, f in enumerate(f_values)
        ]
    raise ProfilesError(f"cannot emit {type(data).__name__}")


def subset_rows(matrix: ScoreMatrix, selection: ProfileSelection) -> ScoreMatrix:
    index = {rid: i for i, rid in enumerate(matrix.row_ids)}
    rows = [index[rid] for rid in selection.selected_ids]
    return replace(
        matrix,
        row_ids=list(selection.selected_ids),
        values=matrix.values[rows],
    )


def emit_plot_data(data, path, format: str = "csv"):
    """Write plot-ready data, whole or not at all: long-form CSV
    ``series,x,y`` or a bare SVG multi-line chart."""
    series = _series_of(data)
    if format == "csv":
        text = csv_text(["series", "x", "y"],
                        ([name, repr(float(x)), repr(float(y))]
                         for name, xs, ys in series for x, y in zip(xs, ys)))
    elif format == "svg":
        text = _svg_text(series)
    else:
        raise ProfilesError(f"unknown format {format!r}")
    write_atomic(path, text)


def _svg_text(series, width=800, height=500, margin=60):
    if series:
        all_x = [x for _, xs, _ in series for x in xs]
        all_y = [y for _, _, ys in series for y in ys]
        x0, x1 = min(all_x), max(all_x)
        y0, y1 = min(all_y), max(all_y)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
    else:
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for i in range(5):
        xv = x0 + i * (x1 - x0) / 4
        yv = y0 + i * (y1 - y0) / 4
        lines.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 20}" '
            f'font-size="11" text-anchor="middle">{xv:.4g}</text>'
        )
        lines.append(
            f'<text x="{margin - 8}" y="{sy(yv):.1f}" font-size="11" '
            f'text-anchor="end">{yv:.4g}</text>'
        )
    for i, (name, xs, ys) in enumerate(series):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        color = palette[i % len(palette)]
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"><title>{escape(name, quote=False)}</title></polyline>'
        )
    lines.append("</svg>")
    return "\n".join(lines)
