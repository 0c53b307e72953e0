"""Time-cost model: compute/uplink formulas, straggler rounds, profile sampling."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsel.cost import (
    DeviceProfile,
    compute_time,
    comm_time,
    round_cost,
    sample_profiles,
    schedule_cost,
    uplink_rate,
)


def profile(device_id=0, cycles=2.0, cpu=1000.0, data_bits=500.0,
            payload=1000.0, snr=1.0, bandwidth=250.0):
    noise = 1e-9
    return DeviceProfile(
        device_id=device_id,
        cycles_per_bit=cycles,
        cpu_freq_hz=cpu,
        data_bits=data_bits,
        payload_bits=payload,
        tx_power_w=snr * noise * bandwidth,
        channel_gain=1.0,
        noise_density_w_hz=noise,
        bandwidth_hz=bandwidth,
    )


def test_compute_time_examples():
    assert compute_time(profile(cycles=2.0, cpu=1000.0, data_bits=500.0)) == 1.0
    assert compute_time(profile(cycles=1.0, cpu=1.0, data_bits=1.0)) == 1.0
    assert compute_time(profile(cycles=2.0, cpu=1000.0, data_bits=250.0)) == 0.5
    with pytest.raises(ValueError, match="data_bits"):
        profile(data_bits=0.0)


def test_uplink_rate_examples():
    assert uplink_rate(profile(snr=1.0)) == 1.0
    assert uplink_rate(profile(snr=3.0)) == 2.0


def test_comm_time_example():
    # 1000 payload bits at 2 bit/s/Hz over 250 Hz -> 2 seconds
    assert comm_time(profile(snr=3.0, payload=1000.0, bandwidth=250.0)) == 2.0


def test_snr_round_trips_through_power():
    p = profile(snr=7.5)
    assert p.snr == pytest.approx(7.5, rel=1e-12)


def test_profile_positivity_validation():
    with pytest.raises(ValueError, match="cpu_freq_hz"):
        profile(cpu=0.0)
    with pytest.raises(ValueError, match="payload_bits"):
        profile(payload=-1.0)
    # every field must be finite too: an infinite one makes a time 0 or inf
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=r"^DeviceProfile\.bandwidth_hz must be in \(0, inf\)"):
            replace(profile(), bandwidth_hz=value)
        with pytest.raises(ValueError, match=r"^DeviceProfile\.cycles_per_bit must be"):
            profile(cycles=value)


def test_round_cost_is_straggler_max():
    assert round_cost({0: (0.5, 0.5), 1: (1.0, 2.0), 2: (1.5, 0.5)}) == 3.0


def test_round_cost_refuses_an_empty_schedule():
    with pytest.raises(ValueError, match="nonempty"):
        round_cost({})


def test_schedule_cost_epochs_scale_compute_only():
    profiles = {0: profile(cycles=2.0, cpu=1000.0, data_bits=500.0,
                           snr=3.0, payload=1000.0, bandwidth=250.0)}
    # 1 s of compute per epoch, 2 s of uplink once
    assert schedule_cost(profiles, [0], epochs=1) == 1.0 + 2.0
    assert schedule_cost(profiles, [0], epochs=5) == 5.0 + 2.0


def test_schedule_cost_ignores_unscheduled_devices():
    profiles = {
        0: profile(device_id=0, cycles=1.0, cpu=1.0, data_bits=1.0),  # 1s + slow radio
        1: profile(device_id=1, cycles=2.0, cpu=1000.0, data_bits=500.0, snr=3.0),
    }
    assert schedule_cost(profiles, [1]) == 1.0 + 2.0
    assert schedule_cost(profiles, [0, 1]) == 1.0 + 4.0


@given(
    times=st.dictionaries(
        st.integers(0, 20),
        st.tuples(st.floats(0.001, 100), st.floats(0.001, 100)),
        min_size=1,
        max_size=10,
    ),
    extra=st.tuples(st.floats(0.001, 100), st.floats(0.001, 100)),
)
def test_round_cost_monotone_in_schedule(times, extra):
    base = round_cost(times)
    widened = dict(times)
    widened[99] = extra
    assert round_cost(widened) >= base


def test_sample_profiles_deterministic_and_in_range():
    sizes = [10, 20, 30, 40]
    a = sample_profiles(4, sizes, feature_count=5, seed=3)
    b = sample_profiles(4, sizes, feature_count=5, seed=3)
    c = sample_profiles(4, sizes, feature_count=5, seed=4)
    assert a == b
    assert a != c
    for m, p in a.items():
        assert 0.5e9 <= p.cpu_freq_hz <= 10e9
        assert 10.0 <= p.cycles_per_bit <= 40.0
        assert 1.0 <= p.snr <= 15.0 + 1e-9
        assert p.data_bits == 8 * 5 * sizes[m]
        assert p.payload_bits == 32 * 5


def test_sample_profiles_honors_custom_ranges():
    profiles = sample_profiles(
        6, [1] * 6, feature_count=2, seed=0,
        cpu_freq_range_hz=(1e6, 2e6), cycles_per_bit_range=(1.0, 1.5),
        snr_range=(2.0, 2.0), bandwidth_hz=5e5,
    )
    for p in profiles.values():
        assert 1e6 <= p.cpu_freq_hz <= 2e6
        assert 1.0 <= p.cycles_per_bit <= 1.5
        assert p.snr == pytest.approx(2.0, rel=1e-12)
        assert p.bandwidth_hz == 5e5


def test_sampled_profiles_feed_the_cost_formulas():
    profiles = sample_profiles(3, [4, 4, 4], feature_count=2, seed=1)
    expected = {
        m: 2 * compute_time(profiles[m]) + comm_time(profiles[m]) for m in profiles
    }
    assert schedule_cost(profiles, [0, 1, 2], epochs=2) == max(expected.values())


def test_sample_profiles_refuse_a_time_that_overflows():
    # cycles_per_bit * data_bits overflows to inf, which every round cost would carry
    with pytest.raises(ValueError, match="device 0's compute and uplink times must be finite"):
        sample_profiles(3, [1] * 3, feature_count=5, seed=0, cycles_per_bit_range=(10.0, 1e308))
    with pytest.raises(ValueError, match="device 2's"):
        sample_profiles(3, [1, 1, 1e306], feature_count=5, seed=0)
