"""Intensity snapshots: SVG heatmaps plus CSV sidecars with the exact values.

The CSV is the testable artifact; each cell holds the conditional intensity
evaluated at that cell's center. The SVG is presentation built from the same
numbers, with past fixations and the upcoming fixation overlaid.

A grid builds the history state once per timestamp and evaluates all its
cells through ``HistoryState.intensity_at``, which works in blocks of
bounded size; every cell value is bit-identical to evaluating that cell's
center alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import Rect, Scanpath
from .errors import DomainError, ValidationError
from .fileio import format_float
from .saccade import HistoryState, SaccadeParams, SaccadeSpec

# dark-to-bright perceptual ramp, sampled at equal spacing
_STOPS = ((68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37))


def split_at_time(scanpath: Scanpath, t: float) -> tuple[Scanpath, Optional[int]]:
    """History completed by t and the index of the upcoming fixation.

    t must lie inside the scanpath's span and in a saccade, not inside any
    fixation interval.
    """
    if len(scanpath) == 0:
        raise ValidationError("cannot plot an empty scanpath")
    onsets = scanpath.onsets
    ends = onsets + scanpath.durations
    if not onsets[0] <= t <= ends[-1]:
        raise ValidationError(
            f"timestamp {t} lies outside the scanpath's span [{onsets[0]}, {ends[-1]}]")
    k = int(np.searchsorted(onsets, t, side="right"))  # the fixations starting by t
    inside = np.flatnonzero(ends[:k] > t)
    if inside.size:
        i = inside[0]
        raise DomainError(
            f"timestamp {t} falls inside the fixation interval [{onsets[i]}, {ends[i]})")
    history = Scanpath.from_arrays(scanpath.reader_id, scanpath.text_id, onsets[:k],
                                   scanpath.durations[:k], scanpath.locations[:k])
    nxt = k if k < len(scanpath) else None
    return history, nxt


def grid_centers(omega: Rect, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    if nx < 1 or ny < 1:
        raise ValidationError(f"grid resolution must be >= 1, got {nx}x{ny}")
    xs = omega.x0 + (np.arange(nx) + 0.5) * (omega.width / nx)
    ys = omega.y0 + (np.arange(ny) + 0.5) * (omega.height / ny)
    return xs, ys


def intensity_grid(t: float, scanpath: Scanpath, spec: SaccadeSpec,
                   params: SaccadeParams, omega: Rect, nx: int, ny: int,
                   X: Optional[np.ndarray] = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intensity at every grid-cell center at time t; shape (ny, nx)."""
    history, _ = split_at_time(scanpath, t)
    hx = None if X is None else np.asarray(X, dtype=float)[:len(history)]
    xs, ys = grid_centers(omega, nx, ny)
    state = HistoryState.build(history, hx, spec, params)
    cells = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    return xs, ys, state.intensity_at(t, cells).reshape(ny, nx)


def grid_csv(xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> str:
    lines = ["x,y,intensity"]
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            lines.append(f"{format_float(float(x))},{format_float(float(y))},"
                         f"{format_float(float(values[j, i]))}")
    return "\n".join(lines) + "\n"


def _colors(fracs: np.ndarray) -> list[str]:
    """Hex colour of each fraction of the value range, linear between the ramp's stops."""
    pos = np.clip(fracs, 0.0, 1.0) * (len(_STOPS) - 1)
    lo = pos.astype(int)
    hi = np.minimum(lo + 1, len(_STOPS) - 1)
    w = (pos - lo)[:, None]
    stops = np.array(_STOPS, dtype=float)
    # np.rint rounds half to even, as round() does
    rgb = np.rint((1 - w) * stops[lo] + w * stops[hi]).astype(int).tolist()
    return ["#{:02x}{:02x}{:02x}".format(*c) for c in rgb]


def svg_heatmap(t: float, scanpath: Scanpath, omega: Rect, xs: np.ndarray,
                ys: np.ndarray, values: np.ndarray) -> str:
    """Heatmap of the grid with fixation overlays; colors span the value range."""
    history, nxt = split_at_time(scanpath, t)
    vmin = float(np.min(values))
    vmax = float(np.max(values))
    span = vmax - vmin
    cw = omega.width / len(xs)
    ch = omega.height / len(ys)
    mark = 0.012 * max(omega.width, omega.height)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{omega.x0:g} {omega.y0:g} {omega.width:g} {omega.height:g}" '
        f'width="640" height="{640 * omega.height / omega.width:g}">',
        f"<title>intensity at t={t:g}</title>",
    ]
    fracs = np.full(values.size, 0.5) if span == 0 else (np.ravel(values) - vmin) / span
    fills = _colors(fracs)
    # each column's x and each row's y formatted once
    cols = [f'<rect x="{x - cw / 2:g}" y="' for x in xs.tolist()]
    size = f'" width="{cw:g}" height="{ch:g}" fill="'
    for j, y in enumerate(ys.tolist()):
        row = f"{y - ch / 2:g}{size}"
        parts.extend(f'{col}{row}{fill}"/>'
                     for col, fill in zip(cols, fills[j * len(cols):(j + 1) * len(cols)]))
    pts = [f"{x:g},{y:g}" for x, y in history.locations.tolist()]
    if len(pts) > 1:
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="#ffffff" stroke-opacity="0.6" stroke-width="{mark / 4:g}"/>')
    for x, y in history.locations.tolist():
        parts.append(f'<circle cx="{x:g}" cy="{y:g}" r="{mark:g}" '
                     f'fill="none" stroke="#ffffff" stroke-width="{mark / 3:g}"/>')
    if nxt is not None:
        x, y = scanpath.locations[nxt].tolist()
        parts.append(f'<circle cx="{x:g}" cy="{y:g}" r="{mark * 1.4:g}" '
                     f'fill="none" stroke="#ff3333" stroke-width="{mark / 2:g}"/>')
        parts.append(
            f'<line x1="{x - mark * 2:g}" y1="{y:g}" x2="{x + mark * 2:g}" '
            f'y2="{y:g}" stroke="#ff3333" stroke-width="{mark / 3:g}"/>')
        parts.append(
            f'<line x1="{x:g}" y1="{y - mark * 2:g}" x2="{x:g}" '
            f'y2="{y + mark * 2:g}" stroke="#ff3333" stroke-width="{mark / 3:g}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@dataclass(frozen=True, eq=False)
class PlotPage:
    """One timestamp's rendering: the SVG and its exact-value sidecar."""

    time: float
    svg: str
    csv: str


def plot_intensity(scanpath: Scanpath, spec: SaccadeSpec, params: SaccadeParams,
                   omega: Rect, timestamps: Sequence[float], nx: int = 50,
                   ny: int = 50, X: Optional[np.ndarray] = None) -> list[PlotPage]:
    """One heatmap page per timestamp; fails fast on any invalid timestamp."""
    for t in timestamps:
        split_at_time(scanpath, t)
    pages = []
    for t in timestamps:
        xs, ys, values = intensity_grid(t, scanpath, spec, params, omega, nx, ny, X=X)
        pages.append(PlotPage(time=float(t), svg=svg_heatmap(t, scanpath, omega, xs, ys, values),
                              csv=grid_csv(xs, ys, values)))
    return pages
