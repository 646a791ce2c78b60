import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratecert.model import (
    FunctionClass,
    InvalidC,
    StepSizeInterval,
    interval_asymmetric,
    interval_from_c,
)


def test_function_class():
    fc = FunctionClass(1.0, 10.0)
    assert fc.kappa() == 10.0
    with pytest.raises(ValueError):
        FunctionClass(0.0, 1.0)
    with pytest.raises(ValueError):
        FunctionClass(2.0, 1.0)
    with pytest.raises(ValueError):
        FunctionClass(1.0, float("nan"))


def test_function_class_rejects_an_overflowing_condition_number():
    # Both constants are finite, but kappa = L/m is not; certify would fail
    # later, in reduced units, with a message about m and L.
    with pytest.raises(ValueError, match="condition number kappa = L/m must be finite"):
        FunctionClass(1e-300, 1e300)
    with pytest.raises(ValueError, match="condition number"):
        FunctionClass(5e-324, 1.0)
    assert FunctionClass(1e-300, 1e7).kappa() == 1e307


def test_interval_from_c_examples():
    fc = FunctionClass(1.0, 10.0)
    iv = interval_from_c(fc, 1.0)
    assert iv.lo == iv.hi == 0.1
    assert iv.degenerate
    iv = interval_from_c(fc, 1.4)
    assert iv.lo == pytest.approx(1.0 / 14.0, rel=1e-15)
    assert iv.hi == pytest.approx(0.14, rel=1e-15)
    with pytest.raises(InvalidC):
        interval_from_c(fc, 0.5)


def test_interval_asymmetric_examples():
    fc = FunctionClass(1.0, 10.0)
    iv = interval_asymmetric(fc, 1.0, 1.0)
    assert iv.lo == iv.hi == 0.1
    iv = interval_asymmetric(fc, 2.0, 1.0)
    assert (iv.lo, iv.hi) == (0.05, 0.1)
    with pytest.raises(InvalidC):
        interval_asymmetric(fc, 0.5, 0.1)  # 0.2 > 0.01
    for c1, c2 in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0), (math.inf, 1.0),
                   (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(InvalidC, match="positive finite"):
            interval_asymmetric(fc, c1, c2)


def test_interval_validation():
    with pytest.raises(ValueError):
        StepSizeInterval(0.0, 0.1)
    with pytest.raises(ValueError):
        StepSizeInterval(0.2, 0.1)
    for lo, hi in ((0.1, math.inf), (math.nan, 0.1), (0.1, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            StepSizeInterval(lo, hi)


def test_endpoints_examples():
    assert StepSizeInterval(0.1, 0.14).endpoints == (0.1, 0.14)
    # A constant step is checked once, never at a midpoint.
    assert StepSizeInterval(0.1, 0.1).endpoints == (0.1,)
    fc = FunctionClass(1.0, 10.0)
    assert interval_from_c(fc, 1.0).endpoints == (0.1,)
    assert interval_asymmetric(fc, 2.0, 1.0).endpoints == (0.05, 0.1)


def test_endpoints_read_only():
    iv = StepSizeInterval(0.1, 0.2)
    with pytest.raises(AttributeError):
        iv.endpoints = (0.05, 0.1)
    with pytest.raises(AttributeError):
        iv.hi = 0.3
    assert iv.endpoints == (0.1, 0.2)


@settings(max_examples=100, deadline=None)
@given(
    lo=st.floats(1e-3, 10.0),
    width=st.floats(0.0, 5.0),
)
def test_endpoints_subset_and_sorted(lo, width):
    iv = StepSizeInterval(lo, lo + width)
    pts = np.asarray(iv.endpoints)
    assert np.all(pts >= iv.lo) and np.all(pts <= iv.hi)
    assert np.all(np.diff(pts) > 0.0)
    assert pts[0] == iv.lo and pts[-1] == iv.hi
    assert len(pts) == (1 if iv.degenerate else 2)


@settings(max_examples=50, deadline=None)
@given(
    m=st.floats(1e-3, 10.0),
    ratio=st.floats(1.0, 1e3),
    c=st.floats(1.0, 2.5),
)
def test_symmetric_equals_asymmetric_with_equal_constants(m, ratio, c):
    fc = FunctionClass(m, m * ratio)
    a = interval_from_c(fc, c)
    b = interval_asymmetric(fc, c, c)
    assert a.lo == b.lo and a.hi == b.hi


@settings(max_examples=50, deadline=None)
@given(
    m=st.floats(1e-2, 10.0),
    ratio=st.floats(1.0, 100.0),
    c=st.floats(1.0, 2.5),
    scale=st.floats(1e-2, 1e2),
)
def test_scale_covariance(m, ratio, c, scale):
    # Scaling (m, L) by s divides both endpoints by s.
    base = interval_from_c(FunctionClass(m, m * ratio), c)
    scaled = interval_from_c(FunctionClass(m * scale, m * ratio * scale), c)
    assert scaled.lo == pytest.approx(base.lo / scale, rel=1e-12)
    assert scaled.hi == pytest.approx(base.hi / scale, rel=1e-12)
