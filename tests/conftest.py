import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from navfuse.attitude import ImuArrays
from navfuse.flightsim import SensorNoiseModel, generate_flight, standard_profile
from navfuse.navigation import GpsArrays, gps_track, prepare_gps_reference
from navfuse.pipeline import FusionOutput
from navfuse.telemetry import GPS_WIRE, IMU_WIRE, encode_frames, gps_arrays_to_counts, imu_arrays_to_counts

ZERO_NOISE = SensorNoiseModel(
    accel_noise_sigma=0.0, accel_bias=0.0, gyro_noise_sigma=0.0, gyro_bias=0.0,
    mag_noise_sigma=0.0, gps_pos_sigma_m=0.0, gps_dropout_prob=0.0,
)


GPS_NAMES = ("lat_e7", "lon_e7", "speed_cmps", "course_cdeg", "alt_cm", "flags")
# Every class of wire value a fix can carry: positions up to the poles and
# both meridian signs, any speed, courses at and past 360 deg, any int32
# altitude, and any flags byte (bit 0 valid, bit 1 altitude valid).
GPS_FIELDS = st.tuples(
    st.one_of(st.sampled_from([-900_000_000, 0, 900_000_000]), st.integers(-900_000_000, 900_000_000)),
    st.one_of(st.sampled_from([-1_800_000_000, 0, 1_800_000_000]), st.integers(-1_800_000_000, 1_800_000_000)),
    st.one_of(st.sampled_from([0, 65535]), st.integers(0, 65535)),
    st.one_of(st.sampled_from([0, 35999, 36000, 65535]), st.integers(0, 65535)),
    st.one_of(st.sampled_from([-(2**31), 0, 2**31 - 1]), st.integers(-(2**31), 2**31 - 1)),
    st.integers(0, 255),
)


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


class FusedNav(NamedTuple):
    vel: np.ndarray   # (n, 2) v_north, v_east
    lat: np.ndarray
    lon: np.ndarray


def fuse_nav(nav, t, acc, q, gps):
    """The position fusion step as ``fuse_blocks`` runs it: ``nav``'s world-frame
    accel blended with the GPS reference of its options, by ``blend_velocity``
    and then ``blend_position``."""
    ref = prepare_gps_reference(t, gps_track(gps), nav.cfg.gps_mode, nav.cfg.stale_after_s)
    vel = nav.blend_velocity(t, nav.world_accel(acc, q), ref)
    return FusedNav(vel, *nav.blend_position(t, vel, ref))


def joined(blocks):
    """The ``FusionOutput`` blocks of ``fuse_blocks`` as one, each column concatenated."""
    return FusionOutput._make(map(np.concatenate, zip(*blocks)))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # signed zeros too


def interleave(imu, gps, before):
    """``IMU_WIRE`` and ``GPS_WIRE`` records as one list of frame bytes, GPS
    frame j just before IMU frame ``before[j]`` (after the last one for
    ``len(imu)``). ``before`` is non-decreasing, so each kind keeps its order.
    """
    rank = np.concatenate([2 * np.arange(len(imu)) + 1, 2 * np.asarray(before, dtype=np.int64)])
    frames = [f.tobytes() for f in imu] + [f.tobytes() for f in gps]
    return [frames[k] for k in np.argsort(rank, kind="stable")]


def stream_frames(imu, gps):
    """The frames of a flight in stream order, each as bytes: IMU and GPS
    frames interleaved by timestamp, like two transmitters. A fix goes just
    before the first IMU frame at or after its time; a fix after the last IMU
    frame is not sent. ``seq`` counts each kind's frames.

    A frame always carries a magnetometer reading, so a row without one is
    framed with its zero ``mag``.
    """
    counts = imu_arrays_to_counts(imu._replace(has_mag=np.ones_like(imu.has_mag)))
    imu_frames = encode_frames(IMU_WIRE, imu.t_ms, counts=counts)
    gps_frames = encode_frames(GPS_WIRE, np.rint(gps.t * 1000).astype(np.int64), **gps_arrays_to_counts(gps))
    before = np.searchsorted(imu.t, gps.t)
    sent = before < len(imu.t)
    return interleave(imu_frames, gps_frames[sent], before[sent])


def build_stream(imu, gps):
    """The wire stream of a flight: ``stream_frames`` joined."""
    return b"".join(stream_frames(imu, gps))


def reframe(frames):
    """``IMU_WIRE`` or ``GPS_WIRE`` records encoded again from their fields,
    so that records whose fields a test edited carry a valid CRC."""
    payload = {name: frames[name] for name in frames.dtype.names[4:-1]}
    return encode_frames(frames.dtype, frames["t_ms"], frames["seq"], **payload)


def encode_one(kind, seq, t_ms, fields):
    """The bytes of one frame of ``kind`` (0x01 IMU, 0x02 GPS) with the
    payload ``fields`` in wire order."""
    if kind == 0x01:
        return encode_frames(IMU_WIRE, [t_ms], [seq], counts=[fields]).tobytes()
    return encode_frames(GPS_WIRE, [t_ms], [seq], **{n: [v] for n, v in zip(GPS_WIRE.names[4:-1], fields)}).tobytes()
