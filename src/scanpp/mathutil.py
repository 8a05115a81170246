"""Numerical helpers: link functions, stable exponential-interval integrals, and
the pair band on which both model families sum over pairs of events: each
row's first kept source, ``_first_kept``, and its row blocks, ``_band``."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri

LOG2 = float(np.log(2.0))

# Source-target pairs per row block of the band, and point-source pairs that
# saccade.HistoryState.intensity_at evaluates at once; each temporary array of
# a block then takes 128 KB.
_BLOCK_PAIRS = 1 << 14


def softplus(x):
    x = np.asarray(x, dtype=float)
    # log(1 + e^x), split to avoid overflow for large |x|
    out = np.where(x > 0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0.0))))
    return out if out.ndim else float(out)


def softplus_deriv(x):
    return sigmoid(x)


def softplus_inv(y):
    """Inverse of softplus; y must be > 0."""
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.where(y > 1.0, y + np.log(-np.expm1(-y)), np.log(np.expm1(y)))
    return out if out.ndim else float(out)


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(np.minimum(x, 0.0))))
    return out if out.ndim else float(out)


def relu(x):
    x = np.asarray(x, dtype=float)
    out = np.maximum(x, 0.0)
    return out if out.ndim else float(out)


def relu_deriv(x):
    x = np.asarray(x, dtype=float)
    out = (x > 0).astype(float)
    return out if out.ndim else float(out)


LINKS = {
    "softplus": (softplus, softplus_deriv),
    "relu": (relu, relu_deriv),
}


def apply_link(name, x):
    try:
        fn, _ = LINKS[name]
    except KeyError:
        raise ValueError(f"unknown link {name!r}") from None
    return fn(x)


def link_deriv(name, x):
    return LINKS[name][1](x)


def exp_interval_g0(x):
    """(1 - e^-x)/x, the mean of e^-bt over [0, x/b]; g0(0) = 1.

    Accurate for all x >= 0 including x near 0. Each branch is evaluated
    only where it applies.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-12
    if not small.any():
        out = -np.expm1(-x) / x
    else:
        out = np.empty_like(x)
        out[small] = 1.0 - x[small] / 2.0
        xl = x[~small]
        out[~small] = -np.expm1(-xl) / xl
    return out if out.ndim else float(out)


# Taylor coefficients of g1, (-1)^k (k+1) / (k+2)!; below the switch the
# omitted terms are under 1e-17 of the value.
_G1_SWITCH = 1.5
_G1_SERIES = tuple((-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(21))


def exp_interval_g1(x):
    """(1 - (1+x) e^-x)/x^2; g1(0) = 1/2.

    The direct form loses about 1e-16/x^2 of relative accuracy to
    cancellation, so below |x| = 1.5 the Taylor series is summed instead.
    Relative error is below 1e-15 over [1e-8, 1e2].
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < _G1_SWITCH
    xs = x[small]
    acc = np.full_like(xs, _G1_SERIES[-1])
    for c in _G1_SERIES[-2::-1]:
        acc *= xs
        acc += c
    out[small] = acc
    xl = x[~small]
    out[~small] = (1.0 - (1.0 + xl) * np.exp(-xl)) / (xl * xl)
    return out if out.ndim else float(out)


def exp_integral_0(b, lo, gap):
    """∫ exp(-b(lo + u)) du over u in [0, gap]; exact limit gap at b = 0."""
    b = np.asarray(b, dtype=float)
    x = b * gap
    return np.exp(-b * lo) * gap * exp_interval_g0(x)


def exp_integrals(b, lo, gap):
    """``exp_integral_0`` and ∫ (lo + u) exp(-b(lo + u)) du over u in [0, gap].

    The two share exp(-b·lo) and g0; the first is bitwise the value
    ``exp_integral_0`` gives. The band's gradient pass calls it once per
    source, with lo = 0 and gap the span on the kernel clock that the
    source's kept rows tile, so its sums over rows of both integrals come
    in closed form.
    """
    b = np.asarray(b, dtype=float)
    x = b * gap
    decay = np.exp(-b * lo)
    g0 = exp_interval_g0(x)
    return (decay * gap * g0,
            decay * (lo * gap * g0 + gap * gap * exp_interval_g1(x)))


def _first_kept(clock: np.ndarray, w: float, starts=(0,)) -> np.ndarray:
    """The band's first kept source lo_i of each row i; non-decreasing in i.

    ``starts`` holds the first row of each segment. Row i keeps the sources
    lo_i <= j < i of its own segment, where lo_i is at most the first source
    at which the running maximum of the segment's clock reaches
    min(c_{i-1}, c_i) - w, with c_{i-1} = 0 at a segment's first row. So
    every dropped source is older than w at both ends of event i's window,
    also where the clock is not monotone; an infinite w keeps every pair
    within a segment. Where the clock runs backwards, a row may take a later
    row's smaller lo, which only keeps more pairs; so the rows that keep
    source j are j+1 up to the last row i with lo_i <= j. Where the clock is
    monotone, every lo_i is the first source that reaches the bound.
    """
    n = clock.shape[0]
    if not n:
        return np.zeros(0, dtype=np.intp)
    idx = np.arange(n)
    start = np.minimum(clock, np.concatenate(([0.0], clock[:-1])))
    starts = np.asarray(starts, dtype=np.intp)
    seg = np.repeat(np.arange(starts.shape[0]), np.concatenate((starts[1:], [n])) - starts)
    # Segment k's clock, offset by k times the clock's span, lies above every
    # earlier segment's, so the running maximum of the offset clock restarts
    # at each segment; the clamp to the segment's first row does the rest,
    # also where w is infinite. A segment's first row keeps no sources, so its
    # window start may read the clock of the segment before. With one segment
    # the offset is zero and the clamp changes nothing.
    offset = seg * (clock.max() - clock.min())
    lo = np.searchsorted(np.maximum.accumulate(clock + offset), start + offset - w)
    lo = np.minimum(np.maximum(lo, starts[seg]), idx)
    return np.minimum.accumulate(lo[::-1])[::-1]


def _band(lo: np.ndarray):
    """Row blocks of the band: (first row, end row, rows, sources) of its pairs.

    Row i holds the pairs (i, j) for lo[i] <= j < i, with ``lo`` from
    ``_first_kept``. A pass over the blocks takes O(n·w) memory and forms no
    n x n array. A block holds at most ``_BLOCK_PAIRS`` pairs, or one row,
    and no row straddles two blocks.
    """
    n = lo.shape[0]
    idx = np.arange(n)
    ends = np.cumsum(idx - lo)
    r0 = 0
    while r0 < n:
        before = int(ends[r0 - 1]) if r0 else 0
        r1 = max(int(np.searchsorted(ends, before + _BLOCK_PAIRS, side="right")), r0 + 1)
        counts = idx[r0:r1] - lo[r0:r1]
        rows = np.repeat(idx[r0:r1], counts)
        shift = lo[r0:r1] - (ends[r0:r1] - counts - before)
        yield r0, r1, rows, np.arange(int(ends[r1 - 1]) - before) + np.repeat(shift, counts)
        r0 = r1


def norm_cdf(z):
    return ndtr(z)


def norm_ppf(q):
    return ndtri(q)


def norm_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
