"""Property-based invariant checks over randomized structures."""
import math
from fractions import Fraction

import numpy as np
import scipy.integrate
from hypothesis import example, given, settings, strategies as st

import scanpp as sp
from scanpp.fileio import dumps_scanpaths, loads_scanpaths
from scanpp.mathutil import (
    exp_integral_0,
    exp_integrals,
    exp_interval_g0,
    exp_interval_g1,
    softplus,
    softplus_inv,
)


coord = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False,
                  allow_infinity=False, width=64)
dur = st.floats(min_value=1e-3, max_value=2.0, allow_nan=False, width=64)
gap = st.floats(min_value=1e-4, max_value=3.0, allow_nan=False, width=64)


@st.composite
def scanpaths(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    t = 0.0
    fixes = []
    for _ in range(n):
        t += draw(gap)
        d = draw(dur)
        fixes.append(sp.Fixation(t, draw(coord), draw(coord), d))
        t += d
    reader = draw(st.sampled_from(["r0", "r1", "reader with space"]))
    return sp.Scanpath(reader, "t0", tuple(fixes))


@settings(max_examples=60, deadline=None)
@given(st.lists(scanpaths(), min_size=1, max_size=4))
def test_scanpath_serialization_round_trip(paths):
    # (reader, text) is the grouping key of the format, so make it unique
    paths = [sp.Scanpath(p.reader_id, f"t{i}", p.fixations)
             for i, p in enumerate(paths)]
    text = dumps_scanpaths(paths)
    back = loads_scanpaths(text)
    assert back == paths
    assert dumps_scanpaths(back) == text


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
def test_softplus_inverse_round_trip(x):
    y = softplus(x)
    assert y > 0
    assert math.isclose(softplus_inv(y), x, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=20.0),
       st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=5.0))
def test_exp_integral_matches_quadrature(b, lo, length):
    got = float(exp_integral_0(b, lo, length))
    want, _ = scipy.integrate.quad(lambda u: math.exp(-b * (lo + u)), 0.0, length,
                                   epsabs=1e-13, epsrel=1e-11)
    assert math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-13)


def test_exp_integrals_bitwise_equal_the_single_integrals():
    # The single integrals as written before they shared one kernel, with
    # g0's two branches taken by np.where.
    def g0(x):
        small = np.abs(x) < 1e-12
        safe = np.where(small, 1.0, x)
        return np.where(small, 1.0 - x / 2.0, -np.expm1(-safe) / safe)

    xs = np.array([0.0, 1e-13, 5e-13, 1e-8, 1e-3, 0.7, np.nextafter(1.5, 0.0), 1.5, 3.0, 50.0])
    b = np.repeat([0.0, 0.4, 2.5, 40.0], xs.size)
    gap = np.where(b > 0.0, np.tile(xs, 4) / np.where(b > 0.0, b, 1.0), np.tile(xs, 4))
    lo = np.linspace(0.0, 3.0, b.size)
    x = b * gap
    want0 = np.exp(-b * lo) * gap * g0(x)
    want1 = np.exp(-b * lo) * (lo * gap * g0(x) + gap * gap * exp_interval_g1(x))
    i0, i1 = exp_integrals(b, lo, gap)
    assert np.array_equal(i0, want0) and np.array_equal(i1, want1)
    assert np.array_equal(exp_integral_0(b, lo, gap), want0)
    assert np.array_equal(exp_interval_g0(x), g0(x))
    for k in (0, 1, 3, 8):
        assert exp_integrals(b[k], lo[k], gap[k]) == (want0[k], want1[k])


def g1_exact(x: float) -> Fraction:
    """(1 - (1+x) e^-x)/x^2 from its Taylor series in exact rational arithmetic.

    The terms (-1)^k (k+1) x^k / (k+2)! alternate and shrink once k > x, so
    the error is below the first omitted term, under 1e-30, while g1 is at
    least about 1e-4 on (0, 100].
    """
    x = Fraction(x)
    total, term, k = Fraction(0), Fraction(1, 2), 0
    while k <= x or abs(term) > Fraction(1, 10 ** 30):
        total += term
        term = -term * x * (k + 2) / ((k + 1) * (k + 3))
        k += 1
    return total


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-8.0, max_value=2.0).map(lambda e: 10.0 ** e))
@example(1.07e-4)
@example(np.nextafter(1.5, 0.0))
@example(1.5)
@example(100.0)
def test_exp_interval_g1_near_machine_precision(x):
    want = g1_exact(x)
    rel = abs(Fraction(exp_interval_g1(x)) - want) / want
    assert rel <= Fraction(1, 10 ** 15), float(rel)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from([(1.0, 0.0, 0.0), (0.8, 0.2, 0.0), (0.6, 0.2, 0.2),
                        (0.5, 0.25, 0.25), (0.34, 0.33, 0.33)]))
def test_split_partitions_data(n, seed, fractions):
    data = list(range(n))
    parts = sp.split(data, fractions, seed)
    combined = sorted(parts.train + parts.val + parts.test)
    assert combined == data
    again = sp.split(data, fractions, seed)
    assert (again.train, again.val, again.test) == (parts.train, parts.val, parts.test)

