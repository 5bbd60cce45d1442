import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navfuse.attitude import GRAVITY_MPS2
from navfuse.errors import CorruptionError, EncodeRangeError, FramingError, TruncationError
from navfuse.geo import GeoPoint
from navfuse.navigation import GpsFix
from navfuse.telemetry import (
    GPS_FRAME_LEN,
    IMU_FRAME_LEN,
    MAX_FRAME_LEN,
    FrameKind,
    GpsPayload,
    ImuPayload,
    TelemetryFrame,
    crc16_ccitt_false,
    decode_frame,
    encode_frame,
    fix_to_gps_counts,
    gps_counts_to_fix,
    imu_counts_to_arrays,
    imu_counts_to_sample,
    sample_to_imu_counts,
    scan_stream,
)

# Derived by hand from the layout (struct) plus an independent table-driven
# CRC-16/CCITT-FALSE implementation; see the layout docstring.
GOLDEN_IMU_ZERO = bytes.fromhex(
    "a5010000000000000000000000000000000000000000000000005a8c"
)
GOLDEN_GPS = bytes.fromhex("a502070040e20100b0275ffb2020c941dc05282339300000035a59")


def random_imu_frame(rng):
    return TelemetryFrame(
        FrameKind.IMU,
        int(rng.integers(0, 2**16)),
        int(rng.integers(0, 2**32)),
        ImuPayload(*(int(v) for v in rng.integers(-32768, 32768, 9))),
    )


def random_gps_frame(rng):
    return TelemetryFrame(
        FrameKind.GPS,
        int(rng.integers(0, 2**16)),
        int(rng.integers(0, 2**32)),
        GpsPayload(
            lat_e7=int(rng.integers(-900_000_000, 900_000_001)),
            lon_e7=int(rng.integers(-1_799_999_999, 1_800_000_001)),
            speed_cmps=int(rng.integers(0, 2**16)),
            course_cdeg=int(rng.integers(0, 36000)),
            valid=bool(rng.integers(0, 2)),
            alt_cm=int(rng.integers(-100_000, 3_000_000)),
            alt_valid=bool(rng.integers(0, 2)),
        ),
    )


class TestCrc:
    def test_catalog_check_value(self):
        assert crc16_ccitt_false(b"123456789") == 0x29B1

    def test_empty_is_init(self):
        assert crc16_ccitt_false(b"") == 0xFFFF

    def test_matches_bitwise_reference(self):
        def bitwise(data):
            crc = 0xFFFF
            for byte in data:
                crc ^= byte << 8
                for _ in range(8):
                    crc = ((crc << 1) ^ 0x1021) if crc & 0x8000 else (crc << 1)
                    crc &= 0xFFFF
            return crc

        rng = np.random.default_rng(62)
        for _ in range(500):
            data = rng.integers(0, 256, int(rng.integers(0, 64)), dtype=np.uint8).tobytes()
            assert crc16_ccitt_false(data) == bitwise(data)


class TestEncode:
    def test_golden_zero_imu_frame(self):
        f = TelemetryFrame(FrameKind.IMU, 0, 0, ImuPayload(0, 0, 0, 0, 0, 0, 0, 0, 0))
        assert encode_frame(f) == GOLDEN_IMU_ZERO

    def test_golden_gps_frame(self):
        f = TelemetryFrame(
            FrameKind.GPS, 7, 123456,
            GpsPayload(-77_650_000, 1_103_700_000, 1500, 9000, True, 12345, True),
        )
        assert encode_frame(f) == GOLDEN_GPS

    def test_frame_lengths_fixed(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            assert len(encode_frame(random_imu_frame(rng))) == IMU_FRAME_LEN == 28
            assert len(encode_frame(random_gps_frame(rng))) == GPS_FRAME_LEN == 27

    def test_within_radio_payload_limit(self):
        assert IMU_FRAME_LEN <= MAX_FRAME_LEN
        assert GPS_FRAME_LEN <= MAX_FRAME_LEN

    @pytest.mark.parametrize(
        "field,value",
        [("seq", -1), ("seq", 65536), ("t_ms", -1), ("t_ms", 2**32)],
    )
    def test_header_range_errors(self, field, value):
        kw = dict(kind=FrameKind.IMU, seq=0, t_ms=0, payload=ImuPayload(0, 0, 0, 0, 0, 0, 0, 0, 0))
        kw[field] = value
        with pytest.raises(EncodeRangeError):
            encode_frame(TelemetryFrame(**kw))

    def test_payload_range_error(self):
        f = TelemetryFrame(FrameKind.IMU, 0, 0, ImuPayload(40000, 0, 0, 0, 0, 0, 0, 0, 0))
        with pytest.raises(EncodeRangeError):
            encode_frame(f)


class TestDecode:
    def test_roundtrip_random_frames(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            f = random_imu_frame(rng) if rng.random() < 0.5 else random_gps_frame(rng)
            assert decode_frame(encode_frame(f)) == f

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**32 - 1),
           st.lists(st.integers(-32768, 32767), min_size=9, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, seq, t_ms, vals):
        f = TelemetryFrame(FrameKind.IMU, seq, t_ms, ImuPayload(*vals))
        assert decode_frame(encode_frame(f)) == f

    def test_empty_input_truncation(self):
        with pytest.raises(TruncationError):
            decode_frame(b"")

    def test_bad_magic(self):
        data = bytearray(GOLDEN_IMU_ZERO)
        data[0] = 0x55
        with pytest.raises(FramingError) as exc:
            decode_frame(bytes(data))
        assert exc.value.offset == 0

    def test_unknown_kind(self):
        data = bytearray(GOLDEN_IMU_ZERO)
        data[1] = 0x7F
        with pytest.raises(FramingError) as exc:
            decode_frame(bytes(data))
        assert exc.value.offset == 1

    def test_short_frame_truncation(self):
        with pytest.raises(TruncationError):
            decode_frame(GOLDEN_IMU_ZERO[:20])

    def test_wrong_length_rejected(self):
        with pytest.raises(FramingError):
            decode_frame(GOLDEN_IMU_ZERO + b"\x00")

    def test_crc_mismatch_offset(self):
        data = bytearray(GOLDEN_IMU_ZERO)
        data[10] ^= 0xFF
        with pytest.raises(CorruptionError) as exc:
            decode_frame(bytes(data))
        assert exc.value.offset == IMU_FRAME_LEN - 2

    def test_every_single_bit_flip_detected(self):
        rng = np.random.default_rng(43)
        for frame in (random_imu_frame(rng), random_gps_frame(rng)):
            encoded = encode_frame(frame)
            for byte_idx in range(len(encoded)):
                for bit in range(8):
                    corrupted = bytearray(encoded)
                    corrupted[byte_idx] ^= 1 << bit
                    with pytest.raises((FramingError, CorruptionError, TruncationError)):
                        decode_frame(bytes(corrupted))


class TestScanStream:
    def _frames(self, rng, n):
        return [random_imu_frame(rng) if rng.random() < 0.7 else random_gps_frame(rng) for _ in range(n)]

    def test_clean_concatenation(self):
        rng = np.random.default_rng(44)
        frames = self._frames(rng, 40)
        data = b"".join(encode_frame(f) for f in frames)
        out, diags = scan_stream(data)
        assert out == frames
        assert diags == []

    def test_recovers_through_garbage(self):
        rng = np.random.default_rng(45)
        frames = self._frames(rng, 30)
        chunks = []
        for f in frames:
            chunks.append(bytes(rng.integers(0, 256, int(rng.integers(0, 40)), dtype=np.uint8)))
            chunks.append(encode_frame(f))
        data = b"".join(chunks)
        out, diags = scan_stream(data)
        # every real frame recovered (garbage may decode into extra frames
        # only by a CRC collision, which the seeded data avoids)
        assert [f for f in out if f in frames] == frames

    def test_garbage_only(self):
        out, diags = scan_stream(b"\x00\x01\x02" * 100)
        assert out == []
        assert len(diags) >= 1

    def test_truncated_tail(self):
        rng = np.random.default_rng(46)
        frames = self._frames(rng, 5)
        data = b"".join(encode_frame(f) for f in frames) + encode_frame(random_imu_frame(rng))[:15]
        out, diags = scan_stream(data)
        assert out == frames
        assert len(diags) == 1
        assert diags[0].reason == "truncation"

    def test_corruption_produces_diagnostic_and_resync(self):
        rng = np.random.default_rng(47)
        frames = self._frames(rng, 3)
        blobs = [bytearray(encode_frame(f)) for f in frames]
        blobs[1][12] ^= 0x40  # corrupt the middle frame
        out, diags = scan_stream(b"".join(bytes(b) for b in blobs))
        assert frames[0] in out and frames[2] in out
        assert frames[1] not in out
        assert any(d.reason == "corruption" for d in diags)

    def test_never_loses_frame_after_1kib_garbage(self):
        rng = np.random.default_rng(48)
        frame = random_imu_frame(rng)
        garbage = bytes(rng.integers(0, 256, 1024, dtype=np.uint8))
        out, _ = scan_stream(garbage + encode_frame(frame))
        assert frame in out

    def test_linear_time_resync(self):
        # a long run of magic bytes must not blow up
        out, diags = scan_stream(b"\xa5" * 5000)
        assert out == []


class TestConversions:
    def test_zero_counts_give_zero_sample(self):
        s = imu_counts_to_sample(0, ImuPayload(0, 0, 0, 0, 0, 0, 0, 0, 0))
        assert s.t == 0.0
        assert s.accel == (0.0, 0.0, 0.0)
        assert s.gyro == (0.0, 0.0, 0.0)

    def test_one_g_is_2048_counts(self):
        counts = sample_to_imu_counts(
            imu_counts_to_sample(0, ImuPayload(0, 0, 2048, 0, 0, 0, 0, 0, 0))
        )
        assert counts.az == 2048
        s = imu_counts_to_sample(0, ImuPayload(0, 0, 2048, 0, 0, 0, 0, 0, 0))
        assert s.accel[2] == pytest.approx(9.80665, abs=1e-9)

    def test_counts_roundtrip(self):
        rng = np.random.default_rng(49)
        for _ in range(200):
            p = ImuPayload(*(int(v) for v in rng.integers(-32768, 32768, 9)))
            s = imu_counts_to_sample(int(rng.integers(0, 2**31)), p)
            assert sample_to_imu_counts(s) == p

    def test_gps_fix_roundtrip(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            alt_valid = bool(rng.integers(0, 2))
            p = GpsPayload(
                lat_e7=int(rng.integers(-900_000_000, 900_000_001)),
                lon_e7=int(rng.integers(-1_799_999_999, 1_800_000_001)),
                speed_cmps=int(rng.integers(0, 2**16)),
                course_cdeg=int(rng.integers(0, 36000)),
                valid=True,
                alt_cm=int(rng.integers(-100_000, 3_000_000)) if alt_valid else 0,
                alt_valid=alt_valid,
            )
            fix = gps_counts_to_fix(int(rng.integers(0, 2**31)), p)
            assert fix_to_gps_counts(fix) == p

    def test_arrays_match_python_round_on_every_count(self):
        # np.round(x, 9) differs from Python's round(x, 9) on some counts
        counts = np.arange(-32768, 32768)
        imu = imu_counts_to_arrays(np.arange(len(counts)), np.repeat(counts[:, None], 9, axis=1))
        scales = {
            "accel": GRAVITY_MPS2 / 2048.0,
            "gyro": (math.pi / 180.0) / 16.4,
            "mag": 1.0 / 1090.0,
        }
        for name, k in scales.items():
            expected = np.array([round(c * k, 9) for c in counts.tolist()])
            for axis in range(3):
                np.testing.assert_array_equal(getattr(imu, name)[:, axis], expected)
        np.testing.assert_array_equal(imu.t, np.arange(len(counts)) / 1000.0)
        assert (imu.has_mag == 1).all()

    def test_values_exact_at_nine_decimals(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            p = ImuPayload(*(int(v) for v in rng.integers(-32768, 32768, 9)))
            s = imu_counts_to_sample(0, p)
            for v in (*s.accel, *s.gyro, *s.mag):
                assert float("%.9f" % v) == v

    def test_mag_required_for_imu_frame(self):
        from navfuse.attitude import ImuSample

        with pytest.raises(EncodeRangeError):
            sample_to_imu_counts(ImuSample(t=0, accel=(0, 0, 9.8), gyro=(0, 0, 0), mag=None))

    def test_fix_without_course_encodes_zero(self):
        f = GpsFix(t=0, pos=GeoPoint(1.0, 2.0), speed=3.0, course=None)
        assert fix_to_gps_counts(f).course_cdeg == 0
