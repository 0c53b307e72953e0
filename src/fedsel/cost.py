"""Analytic per-round time-cost model for the device schedule.

Simulated time only: compute time is cycles-per-bit work at the device's CPU
frequency, uplink time is payload over Shannon-rate bandwidth, and a
synchronous round costs what its slowest scheduled device costs. The downlink
and all server-side work (including contribution permutations) are free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .rng import PROFILES, substream
from .settings import Setting, check_values

BITS_PER_FEATURE = 8  # a raw feature's size in a device's data
PAYLOAD_BITS_PER_WEIGHT = 32  # an uploaded weight's size

# the [cost] config keys: the uniform ranges sample_profiles draws from
CPU_FREQ_MIN_HZ = Setting(
    "cost.cpu_freq_min_hz", "float", 0.5e9, "(0, inf)", bound=("<=", "cost.cpu_freq_max_hz")
)
CPU_FREQ_MAX_HZ = Setting("cost.cpu_freq_max_hz", "float", 10e9, "(0, inf)")
CYCLES_PER_BIT_MIN = Setting(
    "cost.cycles_per_bit_min", "float", 10.0, "(0, inf)", bound=("<=", "cost.cycles_per_bit_max")
)
CYCLES_PER_BIT_MAX = Setting("cost.cycles_per_bit_max", "float", 40.0, "(0, inf)")
SNR_MIN = Setting("cost.snr_min", "float", 1.0, "(0, inf)", bound=("<=", "cost.snr_max"))
SNR_MAX = Setting("cost.snr_max", "float", 15.0, "(0, inf)")
BANDWIDTH_HZ = Setting("cost.bandwidth_hz", "float", 1e6, "(0, inf)")


@dataclass(frozen=True)
class DeviceProfile:
    """Per-device compute/radio parameters, all positive and finite."""

    device_id: int
    cycles_per_bit: float
    cpu_freq_hz: float
    data_bits: float
    payload_bits: float
    tx_power_w: float
    channel_gain: float
    noise_density_w_hz: float
    bandwidth_hz: float

    def __post_init__(self) -> None:
        for f in fields(self)[1:]:  # every field but device_id
            value = getattr(self, f.name)
            if not 0 < value < math.inf:
                raise ValueError(f"DeviceProfile.{f.name} must be in (0, inf), got {value}")

    @property
    def snr(self) -> float:
        return self.tx_power_w * self.channel_gain / (self.noise_density_w_hz * self.bandwidth_hz)


def compute_time(profile: DeviceProfile) -> float:
    """Seconds of local computation: cycles_per_bit * data_bits / cpu_freq."""
    return profile.cycles_per_bit * profile.data_bits / profile.cpu_freq_hz


def uplink_rate(profile: DeviceProfile) -> float:
    """Spectral efficiency log2(1 + SNR) in bit/s/Hz."""
    return float(np.log2(1.0 + profile.snr))


def comm_time(profile: DeviceProfile) -> float:
    """Seconds to upload the payload at rate * bandwidth."""
    rate = uplink_rate(profile)
    if rate <= 0:
        raise ValueError(f"device {profile.device_id} has zero uplink rate")
    return profile.payload_bits / (rate * profile.bandwidth_hz)


def round_cost(per_device: dict[int, tuple[float, float]]) -> float:
    """Straggler cost in seconds: max over scheduled devices of compute +
    uplink time. An empty schedule is refused."""
    if not per_device:
        raise ValueError("round_cost needs a nonempty schedule")
    return max(t_comp + t_comm for t_comp, t_comm in per_device.values())


def schedule_cost(profiles: dict[int, DeviceProfile], scheduled, epochs: int = 1) -> float:
    """One exploration round's straggler cost in seconds (round_cost).

    Each scheduled device runs `epochs` passes over its local data and uploads
    once. Exploitation (server-side permutation sampling) never appears here.
    The run, not this model, keeps the running total.
    """
    per_device = {
        m: (epochs * compute_time(profiles[m]), comm_time(profiles[m]))
        for m in scheduled
    }
    return round_cost(per_device)


def sample_profiles(
    num_devices: int,
    device_sizes,
    feature_count: int,
    seed: int,
    cpu_freq_range_hz: tuple[float, float] = (CPU_FREQ_MIN_HZ.default, CPU_FREQ_MAX_HZ.default),
    cycles_per_bit_range: tuple[float, float] = (
        CYCLES_PER_BIT_MIN.default, CYCLES_PER_BIT_MAX.default
    ),
    snr_range: tuple[float, float] = (SNR_MIN.default, SNR_MAX.default),
    bandwidth_hz: float = BANDWIDTH_HZ.default,
) -> dict[int, DeviceProfile]:
    """Draw one heterogeneous profile per device from uniform ranges, seeded.

    data_bits counts the device's raw feature bits; payload is one float
    weight vector. The noise density is fixed and transmit power is set to hit
    the drawn SNR, which the profile's snr gives back only to rounding: the
    round trip tx = snr * N0 * B, then tx / (N0 * B), changed 32,318 of
    100,000 uniform draws from [1, 15] at B = 1 MHz in their last bits (at
    most 2.4e-16 relative). An argument its [cost] setting refuses (named as
    `snr_range[0]`) and a compute or uplink time that overflows raise.
    """
    check_values({
        "cpu_freq_range_hz[0]": (CPU_FREQ_MIN_HZ, cpu_freq_range_hz[0]),
        "cpu_freq_range_hz[1]": (CPU_FREQ_MAX_HZ, cpu_freq_range_hz[1]),
        "cycles_per_bit_range[0]": (CYCLES_PER_BIT_MIN, cycles_per_bit_range[0]),
        "cycles_per_bit_range[1]": (CYCLES_PER_BIT_MAX, cycles_per_bit_range[1]),
        "snr_range[0]": (SNR_MIN, snr_range[0]),
        "snr_range[1]": (SNR_MAX, snr_range[1]),
        "bandwidth_hz": (BANDWIDTH_HZ, bandwidth_hz),
    })
    rng = substream(seed, PROFILES)
    noise_density = 1e-9
    profiles = {}
    for m in range(num_devices):
        cpu = rng.uniform(*cpu_freq_range_hz)
        cycles = rng.uniform(*cycles_per_bit_range)
        snr = rng.uniform(*snr_range)
        profiles[m] = DeviceProfile(
            device_id=m,
            cycles_per_bit=cycles,
            cpu_freq_hz=cpu,
            data_bits=float(BITS_PER_FEATURE * feature_count * device_sizes[m]),
            payload_bits=float(PAYLOAD_BITS_PER_WEIGHT * feature_count),
            tx_power_w=snr * noise_density * bandwidth_hz,
            channel_gain=1.0,
            noise_density_w_hz=noise_density,
            bandwidth_hz=bandwidth_hz,
        )
        times = compute_time(profiles[m]), comm_time(profiles[m])
        if not np.isfinite(times).all():
            raise ValueError(f"device {m}'s compute and uplink times must be finite, got {times}")
    return profiles
