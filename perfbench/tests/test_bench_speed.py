"""The speed probe: its scaling arithmetic and its timer."""
import signal
import time

import pytest

import speed


def test_scaled_takes_out_kernel_time_and_scales_by_the_mean_around():
    probe = speed.SpeedProbe()
    # (start, seconds) of kernel calls: one before, two inside (1, 2), one after
    probe.samples = [(0.0, 0.002), (1.2, 0.004), (1.5, 0.002), (3.0, 0.004)]
    busy, scaled = probe.scaled(1.0, 2.0)
    assert busy == pytest.approx(1.0 - 0.006)
    assert scaled == pytest.approx(busy * speed.REFERENCE_S / 0.003)
    # no call inside: the speed comes from the calls on either side
    busy, scaled = probe.scaled(2.0, 2.5)
    assert busy == pytest.approx(0.5)
    assert scaled == pytest.approx(0.5 * speed.REFERENCE_S / 0.003)


def test_probe_samples_while_entered_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 4
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
