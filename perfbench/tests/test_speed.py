"""The speed probe that states times at the reference speed."""

import signal
from time import perf_counter

import pytest

import speed


def test_rescale_divides_out_the_reference_speed():
    # The reference ran at half the reference speed, so the 10 s stretch
    # reads 5 s; the outlying samples are trimmed.
    samples = [2 * speed.REFERENCE_S] * 18 + [0.0, 1.0]
    assert speed.rescale(10.0, samples) == pytest.approx(5.0)


def test_probe_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(period=0.01) as probe:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            sum(range(1000))
        wall = perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= speed.MIN_SAMPLES
    assert 0 < probe.spent < wall
    assert probe.rescaled(wall) > 0


def test_short_stretch_is_topped_up_with_samples():
    with speed.SpeedProbe(period=10.0) as probe:
        pass
    assert len(probe.samples) == speed.MIN_SAMPLES and probe.spent == 0.0
