import binascii
import math
import struct

import numpy as np
import pytest

from navfuse.attitude import ImuArrays
from navfuse.flightsim import (
    SensorNoiseModel,
    ZERO_NOISE,
    generate_flight,
    standard_profile,
)
from navfuse.navigation import GpsArrays
from navfuse.telemetry import gps_arrays_to_counts, imu_arrays_to_counts


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
    """Constant-reading IMU stream starting at t=0, without a magnetometer
    when ``mag`` is None."""
    rows = np.ones((n, 1))
    return ImuArrays(
        np.arange(n) / rate_hz, rows * accel, rows * gyro, rows * (mag or (0.0, 0.0, 0.0)),
        np.full(n, mag is not None, dtype=np.uint8),
    )


def gps_arrays(t=(), lat=0.0, lon=0.0, speed=10.0, valid=True, course=math.nan, alt=math.nan):
    """``GpsArrays`` of the fixes at times ``t``; any other column may be
    one value for every fix."""
    t = np.array(t, dtype=np.float64).reshape(-1)
    cols = [np.broadcast_to(np.asarray(c, dtype=np.float64), t.shape).copy() for c in (lat, lon, speed, course, alt)]
    return GpsArrays(t, *cols, np.broadcast_to(np.asarray(valid, dtype=bool), t.shape).copy())


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # signed zeros too


def build_stream(imu, gps):
    """Interleave IMU and GPS frames by timestamp, like two transmitters.

    A frame always carries a magnetometer reading, so a row without one is
    framed with its zero ``mag``.
    """
    blob = bytearray()
    counts = gps_arrays_to_counts(gps)
    fields = ("lat_e7", "lon_e7", "speed_cmps", "course_cdeg", "alt_cm", "flags")
    gps_frames = [
        raw_frame(0x02, seq % 65536, round(t * 1000), *row)
        for seq, (t, *row) in enumerate(zip(gps.t.tolist(), *(counts[f].tolist() for f in fields)))
    ]
    fix_t = gps.t.tolist()
    fi = 0
    counts = imu_arrays_to_counts(imu._replace(has_mag=np.ones_like(imu.has_mag)))
    imu_rows = zip(imu.t.tolist(), imu.t_ms.tolist(), counts.tolist())
    for seq, (t, t_ms, row) in enumerate(imu_rows):
        while fi < len(fix_t) and fix_t[fi] <= t:
            blob += gps_frames[fi]
            fi += 1
        blob += raw_frame(0x01, seq % 65536, t_ms, *row)
    return bytes(blob)


_WIRE_FORMATS = {0x01: struct.Struct("<BBHI9h"), 0x02: struct.Struct("<BBHIiiHHiB")}


def raw_frame(kind: int, seq: int, t_ms: int, *fields: int) -> bytes:
    """A CRC-valid frame of raw wire fields, in the ``IMU_WIRE``/``GPS_WIRE``
    field order, without the encoder's range checks: any GPS flags byte and
    any int32 position."""
    body = _WIRE_FORMATS[kind].pack(0xA5, kind, seq, t_ms, *fields)
    return body + struct.pack("<H", binascii.crc_hqx(body, 0xFFFF))
