import contextlib
import dataclasses
import io
import math
import struct

import numpy as np
import pytest
from conftest import gps_arrays, raw_frame
from hypothesis import given, settings
from hypothesis import strategies as st

from navfuse import cli
from navfuse.attitude import GRAVITY_MPS2
from navfuse.errors import CorruptionError, EncodeRangeError, FramingError, TruncationError
from navfuse.telemetry import (
    GPS_FRAME_LEN,
    GPS_WIRE,
    IMU_FRAME_LEN,
    IMU_WIRE,
    MAGIC,
    MAX_FRAME_LEN,
    FrameKind,
    GpsPayload,
    ImuPayload,
    StreamDiagnostic,
    TelemetryFrame,
    crc16_ccitt_false,
    decode_frame,
    encode_frame,
    gps_arrays_to_counts,
    imu_arrays_to_counts,
    imu_counts_to_arrays,
    scan_frames,
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


def reference_decode_frame(data: bytes) -> TelemetryFrame:
    """The object-per-frame decoder the column scan replaced, for a frame
    of the right length; raises CorruptionError on a CRC mismatch."""
    kind = FrameKind(data[1])
    need = len(data)
    body, crc_bytes = data[: need - 2], data[need - 2 :]
    (crc_rx,) = struct.unpack("<H", crc_bytes)
    crc_calc = crc16_ccitt_false(body)
    if crc_rx != crc_calc:
        raise CorruptionError(
            f"CRC mismatch: received 0x{crc_rx:04X}, computed 0x{crc_calc:04X}", offset=need - 2
        )
    _, _, seq, t_ms = struct.unpack_from("<BBHI", body)
    if kind == FrameKind.IMU:
        payload = ImuPayload(*struct.unpack_from("<9h", body, 8))
    else:
        lat_e7, lon_e7, speed, course, alt_cm, flags = struct.unpack_from("<iiHHiB", body, 8)
        payload = GpsPayload(
            lat_e7, lon_e7, speed, course, bool(flags & 0x01), alt_cm, bool(flags & 0x02)
        )
    return TelemetryFrame(kind=kind, seq=seq, t_ms=t_ms, payload=payload)


def reference_scan(data: bytes):
    """The frame-object scanner the column scan replaced: the oracle for
    frames and diagnostics."""
    frames, diags = [], []
    i = 0
    n = len(data)
    while i < n:
        if data[i] != MAGIC:
            j = data.find(MAGIC, i)
            if j < 0:
                j = n
            diags.append(StreamDiagnostic(i, "skip", f"skipped {j - i} non-frame byte(s)"))
            i = j
            continue
        if n - i < 2:
            diags.append(StreamDiagnostic(i, "truncation", "stream ends after magic byte"))
            break
        kind_byte = data[i + 1]
        if kind_byte not in (FrameKind.IMU, FrameKind.GPS):
            diags.append(StreamDiagnostic(i, "framing", f"unknown frame kind 0x{kind_byte:02X}"))
            i += 1
            continue
        need = {FrameKind.IMU: IMU_FRAME_LEN, FrameKind.GPS: GPS_FRAME_LEN}[FrameKind(kind_byte)]
        if n - i < need:
            diags.append(
                StreamDiagnostic(i, "truncation", f"stream ends {need - (n - i)} byte(s) into a frame")
            )
            break
        try:
            frames.append(reference_decode_frame(data[i : i + need]))
            i += need
        except CorruptionError as exc:
            diags.append(StreamDiagnostic(i, "corruption", str(exc)))
            i += 1
    return frames, diags


def reference_gps_counts_to_fix(t_ms: int, p: GpsPayload) -> tuple:
    """The per-fix conversion the fix columns replaced, as one (t, lat, lon,
    speed, course, alt, valid) row with NaN for an absent altitude."""
    return (
        t_ms / 1000.0,
        round(p.lat_e7 / 1e7, 9),
        round(p.lon_e7 / 1e7, 9),
        round(p.speed_cmps / 100.0, 9),
        round(math.radians(p.course_cdeg / 100.0), 9),
        round(p.alt_cm / 100.0, 9) if p.alt_valid else math.nan,
        p.valid,
    )


def assert_same_fixes(gps, rows):
    """``GpsArrays`` columns hold exactly the bits of the fix rows."""
    want = list(zip(*rows)) or [()] * 7
    for k, col in enumerate(gps):
        ref = np.array(want[k], dtype=bool if k == 6 else np.float64)
        assert col.dtype == ref.dtype and col.shape == ref.shape
        assert col.tobytes() == ref.tobytes()


def reference_decode(data: bytes):
    """The CLI's decode as one loop over frame objects: (ImuArrays, fix rows,
    stderr text). GPS positions out of range are dropped and -180 deg
    longitude becomes +180 deg before the retransmission check."""
    frames, diags = reference_scan(data)
    err = [f"navfuse: stream diagnostic at byte {d.offset}: {d.reason}: {d.detail}\n" for d in diags]

    def first_per_t_ms(kind, group):
        kept, conflicts = [], 0
        for fr in sorted(group, key=lambda fr: fr.t_ms):
            if kept and fr.t_ms == kept[-1].t_ms:
                conflicts += fr.payload != kept[-1].payload
            else:
                kept.append(fr)
        dropped = len(group) - len(kept)
        if dropped:
            err.append(
                f"navfuse: dropped {kind} frames repeating an earlier t_ms: {dropped} "
                f"({dropped - conflicts} exact duplicates, {conflicts} with a conflicting payload)\n"
            )
        return kept

    imu = first_per_t_ms("IMU", [fr for fr in frames if fr.kind == FrameKind.IMU])
    gps = [fr for fr in frames if fr.kind == FrameKind.GPS]
    in_range = [
        fr for fr in gps
        if abs(fr.payload.lat_e7) <= 900_000_000 and abs(fr.payload.lon_e7) <= 1_800_000_000
    ]
    if len(in_range) < len(gps):
        err.append(f"navfuse: dropped GPS frames with a position out of range: {len(gps) - len(in_range)}\n")
    gps = [
        dataclasses.replace(fr, payload=dataclasses.replace(fr.payload, lon_e7=1_800_000_000))
        if fr.payload.lon_e7 == -1_800_000_000 else fr
        for fr in in_range
    ]
    gps = first_per_t_ms("GPS", gps)
    arrays = imu_counts_to_arrays([fr.t_ms for fr in imu], [list(fr.payload) for fr in imu])
    fixes = [reference_gps_counts_to_fix(fr.t_ms, fr.payload) for fr in gps]
    return arrays, fixes, "".join(err)


# Garbage rich in the bytes the scanner branches on.
_RICH_BYTE = st.one_of(st.sampled_from([MAGIC, 0x01, 0x02]), st.integers(0, 255))
_T_MS = st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1))


@st.composite
def dirty_streams(draw):
    """Encoded IMU and GPS frames, some sent again (exactly, or with one
    field changed), with garbage between them, then bit flips, byte
    deletions and insertions, and a cut at any byte."""
    sent = []
    chunks = []
    for _ in range(draw(st.integers(0, 12))):
        step = draw(st.sampled_from(["imu", "gps", "again", "garbage"]))
        if step == "garbage":
            chunks.append(bytes(draw(st.lists(_RICH_BYTE, min_size=1, max_size=40))))
            continue
        if step == "again" and sent:
            kind, seq, t_ms, fields = draw(st.sampled_from(sent))
            fields = list(fields)
            if draw(st.booleans()) and kind == 0x02:
                # flag bits 2-7 carry nothing, bits 0-1 do
                fields[-1] ^= draw(st.sampled_from([0x04, 0x80, 0xFC, 0x01, 0x02, 0x03]))
            elif draw(st.booleans()):
                fields[draw(st.integers(0, len(fields) - 1))] ^= 1
        elif step == "gps":
            kind, seq, t_ms = 0x02, draw(st.integers(0, 2**16 - 1)), draw(_T_MS)
            fields = [
                draw(st.integers(-900_000_000, 900_000_000)),
                draw(st.integers(-1_799_999_999, 1_800_000_000)),
                draw(st.integers(0, 2**16 - 1)),
                draw(st.integers(0, 2**16 - 1)),
                draw(st.integers(-(2**31), 2**31 - 1)),
                draw(st.integers(0, 255)),
            ]
        else:
            kind, seq, t_ms = 0x01, draw(st.integers(0, 2**16 - 1)), draw(_T_MS)
            fields = draw(st.lists(st.integers(-32768, 32767), min_size=9, max_size=9))
        sent.append((kind, seq, t_ms, tuple(fields)))
        chunks.append(raw_frame(kind, seq, t_ms, *fields))
    data = bytearray(b"".join(chunks))
    for op, where, value in draw(st.lists(
        st.tuples(st.sampled_from(["flip", "delete", "insert"]), st.integers(0, 2**20), _RICH_BYTE),
        max_size=4,
    )):
        if op == "insert":
            data.insert(where % (len(data) + 1), value)
        elif data and op == "flip":
            data[where % len(data)] ^= 1 << (value % 8)
        elif data:
            del data[where % len(data)]
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return bytes(data)


class TestScanFrames:
    def test_columns_hold_the_frames(self):
        rng = np.random.default_rng(52)
        frames = [random_imu_frame(rng) if rng.random() < 0.6 else random_gps_frame(rng) for _ in range(60)]
        imu, gps, diags = scan_frames(b"\x00\xa5\x07" + b"".join(encode_frame(f) for f in frames))
        assert imu.dtype == IMU_WIRE and gps.dtype == GPS_WIRE
        assert IMU_WIRE.itemsize == IMU_FRAME_LEN and GPS_WIRE.itemsize == GPS_FRAME_LEN
        assert [(d.offset, d.reason) for d in diags] == [(0, "skip"), (1, "framing"), (2, "skip")]
        want_imu = [f for f in frames if f.kind == FrameKind.IMU]
        want_gps = [f for f in frames if f.kind == FrameKind.GPS]
        assert imu["t_ms"].tolist() == [f.t_ms for f in want_imu]
        assert imu["seq"].tolist() == [f.seq for f in want_imu]
        assert imu["counts"].tolist() == [list(f.payload) for f in want_imu]
        assert gps["lat_e7"].tolist() == [f.payload.lat_e7 for f in want_gps]
        assert gps["alt_cm"].tolist() == [f.payload.alt_cm for f in want_gps]
        assert (gps["flags"] & 0x01).astype(bool).tolist() == [f.payload.valid for f in want_gps]

    def test_empty_and_short_streams(self):
        for data in (b"", b"\xa5", b"\xa5\x01" + bytes(20)):
            imu, gps, _ = scan_frames(data)
            assert len(imu) == len(gps) == 0
            assert imu.dtype == IMU_WIRE and gps.dtype == GPS_WIRE
        # one GPS frame is shorter than the IMU frame length
        imu, gps, diags = scan_frames(GOLDEN_GPS)
        assert len(imu) == 0 and diags == []
        assert gps["t_ms"].tolist() == [123456] and gps["lon_e7"].tolist() == [1_103_700_000]

    @given(dirty_streams())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_scan_and_decode(self, data):
        assert scan_stream(data) == reference_scan(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            imu, gps = cli._decode_stream(data)
        ref_imu, ref_fixes, ref_err = reference_decode(data)
        for col, ref in zip(imu, ref_imu):
            assert col.dtype == ref.dtype and col.shape == ref.shape
            assert col.tobytes() == ref.tobytes()
        assert_same_fixes(gps, ref_fixes)
        assert err.getvalue() == ref_err


_GPS_NAMES = ("lat_e7", "lon_e7", "speed_cmps", "course_cdeg", "alt_cm", "flags")
# Every class of wire value a fix can carry: positions up to the poles and
# both meridian signs, any speed, courses at and past 360 deg, any int32
# altitude, and any flags byte (bit 0 valid, bit 1 altitude valid).
_GPS_FIELDS = st.tuples(
    st.one_of(st.sampled_from([-900_000_000, 0, 900_000_000]), st.integers(-900_000_000, 900_000_000)),
    st.one_of(st.sampled_from([-1_800_000_000, 0, 1_800_000_000]), st.integers(-1_800_000_000, 1_800_000_000)),
    st.one_of(st.sampled_from([0, 65535]), st.integers(0, 65535)),
    st.one_of(st.sampled_from([0, 35999, 36000, 65535]), st.integers(0, 65535)),
    st.one_of(st.sampled_from([-(2**31), 0, 2**31 - 1]), st.integers(-(2**31), 2**31 - 1)),
    st.integers(0, 255),
)


class TestConversions:
    def test_zero_counts_give_zero_sample(self):
        imu = imu_counts_to_arrays([0], np.zeros((1, 9), dtype=np.int64))
        assert imu.t.tolist() == [0.0]
        assert imu.accel.tolist() == [[0.0, 0.0, 0.0]]
        assert imu.gyro.tolist() == [[0.0, 0.0, 0.0]]

    def test_one_g_is_2048_counts(self):
        imu = imu_counts_to_arrays([0], [[0, 0, 2048, 0, 0, 0, 0, 0, 0]])
        assert imu_arrays_to_counts(imu)[0, 2] == 2048
        assert imu.accel[0, 2] == pytest.approx(9.80665, abs=1e-9)

    def test_counts_roundtrip(self):
        # every int16 count in each of the 9 columns, rolled so rows mix counts
        every = np.arange(-32768, 32768, dtype=np.int64)
        counts = np.column_stack([np.roll(every, 7919 * k) for k in range(9)])
        back = imu_arrays_to_counts(imu_counts_to_arrays(np.arange(len(every)), counts))
        assert back.dtype == np.int64 and back.shape == counts.shape
        np.testing.assert_array_equal(back, counts)

    @given(st.lists(_GPS_FIELDS, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_gps_columns_match_per_fix_conversion(self, fields):
        """The wire decode's fix columns hold the per-fix conversion's values
        bit for bit, and convert back to the counts exactly."""
        data = b"".join(raw_frame(0x02, k, k, *f) for k, f in enumerate(fields))
        with contextlib.redirect_stderr(io.StringIO()):
            _, gps = cli._decode_stream(data)
        counts = [
            # -180 deg is the +180 deg meridian
            (lat, 1_800_000_000 if lon == -1_800_000_000 else lon, speed, course, alt, flags)
            for lat, lon, speed, course, alt, flags in fields
        ]
        assert_same_fixes(gps, [
            reference_gps_counts_to_fix(k, GpsPayload(lat, lon, speed, course, bool(flags & 1), alt, bool(flags & 2)))
            for k, (lat, lon, speed, course, alt, flags) in enumerate(counts)
        ])
        back = gps_arrays_to_counts(gps)
        assert list(zip(*(back[f].tolist() for f in _GPS_NAMES))) == [
            (lat, lon, speed, course % 36000, alt if flags & 2 else 0, flags & 3)
            for lat, lon, speed, course, alt, flags in counts
        ]

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
        imu = imu_counts_to_arrays(np.zeros(100), rng.integers(-32768, 32768, (100, 9)))
        for v in np.concatenate([imu.accel, imu.gyro, imu.mag]).ravel().tolist():
            assert float("%.9f" % v) == v

    def test_mag_required_for_imu_frame(self):
        imu = imu_counts_to_arrays([0, 17], np.zeros((2, 9), dtype=np.int64))
        with pytest.raises(EncodeRangeError):
            imu_arrays_to_counts(imu._replace(has_mag=np.array([1, 0], dtype=np.uint8)))

    @pytest.mark.parametrize("column,what", [(0, "accel"), (4, "gyro"), (8, "mag")])
    @pytest.mark.parametrize("count", [32768, -32769])
    def test_count_beyond_int16_rejected(self, column, what, count):
        counts = np.zeros((1, 9), dtype=np.int64)
        counts[0, column] = count
        imu = imu_counts_to_arrays([0], counts)  # the decode takes any integer count
        with pytest.raises(EncodeRangeError, match=f"{what} exceeds the sensor full-scale range"):
            imu_arrays_to_counts(imu)

    def test_fix_without_course_encodes_zero(self):
        f = gps_arrays([0.0], 1.0, 2.0, speed=3.0, course=math.nan)
        assert gps_arrays_to_counts(f)["course_cdeg"].tolist() == [0]
