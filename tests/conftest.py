import binascii
import struct

import pytest

from navfuse.attitude import ImuSample
from navfuse.flightsim import (
    SensorNoiseModel,
    ZERO_NOISE,
    generate_flight,
    standard_profile,
)
from navfuse.telemetry import FrameKind, TelemetryFrame, encode_frame, fix_to_gps_counts, sample_to_imu_counts


@pytest.fixture(scope="session")
def std_noisy_flight():
    """Standard 218 s profile with default noise, shared across tests."""
    profile = standard_profile()
    truth, imu, fixes = generate_flight(profile, SensorNoiseModel())
    return profile, truth, imu, fixes


@pytest.fixture(scope="session")
def std_clean_flight():
    profile = standard_profile()
    truth, imu, fixes = generate_flight(profile, ZERO_NOISE)
    return profile, truth, imu, fixes


@pytest.fixture(scope="session")
def std_noisy_arrays(std_noisy_flight):
    _, truth, imu, fixes = std_noisy_flight
    return (truth, *imu, fixes)


def make_level_stream(n=300, rate_hz=60.0, accel=(0.0, 0.0, 9.80665), gyro=(0.0, 0.0, 0.0), mag=None):
    """Constant-reading IMU stream starting at t=0."""
    return [
        ImuSample(t=i / rate_hz, accel=accel, gyro=gyro, mag=mag)
        for i in range(n)
    ]


def build_stream(imu, fixes):
    """Interleave IMU and GPS frames by timestamp, like two transmitters."""
    blob = bytearray()
    seq_i = seq_g = 0
    fi = 0
    for i in range(len(imu.t)):
        s = ImuSample(
            t=float(imu.t[i]), accel=tuple(imu.accel[i].tolist()), gyro=tuple(imu.gyro[i].tolist()),
            mag=tuple(imu.mag[i].tolist()),
        )
        while fi < len(fixes) and fixes[fi].t <= s.t:
            blob += encode_frame(
                TelemetryFrame(FrameKind.GPS, seq_g % 65536, round(fixes[fi].t * 1000),
                               fix_to_gps_counts(fixes[fi]))
            )
            seq_g += 1
            fi += 1
        blob += encode_frame(
            TelemetryFrame(FrameKind.IMU, seq_i % 65536, round(s.t * 1000), sample_to_imu_counts(s))
        )
        seq_i += 1
    return bytes(blob)


_WIRE_FORMATS = {0x01: struct.Struct("<BBHI9h"), 0x02: struct.Struct("<BBHIiiHHiB")}


def raw_frame(kind: int, seq: int, t_ms: int, *fields: int) -> bytes:
    """A CRC-valid frame of raw wire fields, in the ``IMU_WIRE``/``GPS_WIRE``
    field order, without the encoder's range checks: any GPS flags byte and
    any int32 position."""
    body = _WIRE_FORMATS[kind].pack(0xA5, kind, seq, t_ms, *fields)
    return body + struct.pack("<H", binascii.crc_hqx(body, 0xFFFF))
