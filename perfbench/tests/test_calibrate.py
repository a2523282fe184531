"""Calibration factor: reference time over the kernel times around a span."""

import pytest

import calibrate


def test_factor_brackets_the_span(monkeypatch):
    times = iter([0.02, 0.04, 0.01])
    monkeypatch.setattr(calibrate.Calibrator, "measure", lambda self: next(times))
    cal = calibrate.Calibrator()            # measures 0.02
    assert cal.factor() == pytest.approx(calibrate.REFERENCE_S / 0.03)
    assert cal.factor() == pytest.approx(calibrate.REFERENCE_S / 0.025)


def test_kernel_time_is_positive():
    assert calibrate.Calibrator(rounds=1).measure() > 0
