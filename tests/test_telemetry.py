import binascii
import contextlib
import io
import math
import struct
from collections import namedtuple

import numpy as np
import pytest
from conftest import encode_one, gps_arrays, interleave
from hypothesis import given, settings
from hypothesis import strategies as st

from navfuse import cli
from navfuse.attitude import GRAVITY_MPS2
from navfuse.errors import EncodeRangeError
from navfuse.telemetry import (
    GPS_FRAME_LEN,
    GPS_WIRE,
    IMU_FRAME_LEN,
    IMU_WIRE,
    MAGIC,
    StreamDiagnostic,
    encode_frames,
    gps_arrays_to_counts,
    gps_counts_to_arrays,
    imu_arrays_to_counts,
    imu_counts_to_arrays,
    scan_frames,
)

# Derived by hand from the layout (struct) plus an independent table-driven
# CRC-16/CCITT-FALSE implementation; see the layout docstring.
GOLDEN_IMU_ZERO = bytes.fromhex(
    "a5010000000000000000000000000000000000000000000000005a8c"
)
GOLDEN_GPS = bytes.fromhex("a502070040e20100b0275ffb2020c941dc05282339300000035a59")


def crc16_ccitt_false(data: bytes) -> int:
    """The reference CRC-16/CCITT-FALSE: binascii's CRC-CCITT (XMODEM) is the
    same unreflected poly-0x1021 CRC, and seeding it with 0xFFFF makes it
    CCITT-FALSE."""
    return binascii.crc_hqx(data, 0xFFFF)


def golden_frames():
    """The records of the two golden frames: an all-zero IMU frame, and a
    GPS fix with both flags set."""
    imu = encode_frames(IMU_WIRE, [0], counts=np.zeros((1, 9), dtype=np.int64))
    gps = encode_frames(GPS_WIRE, [123456], [7], lat_e7=[-77_650_000], lon_e7=[1_103_700_000],
                        speed_cmps=[1500], course_cdeg=[9000], alt_cm=[12345], flags=[3])
    return imu, gps


def random_imu_frames(rng, n):
    return encode_frames(IMU_WIRE, rng.integers(0, 2**32, n), rng.integers(0, 2**16, n),
                         counts=rng.integers(-32768, 32768, (n, 9)))


def random_gps_frames(rng, n):
    return encode_frames(
        GPS_WIRE, rng.integers(0, 2**32, n), rng.integers(0, 2**16, n),
        lat_e7=rng.integers(-900_000_000, 900_000_001, n),
        lon_e7=rng.integers(-1_799_999_999, 1_800_000_001, n),
        speed_cmps=rng.integers(0, 2**16, n),
        course_cdeg=rng.integers(0, 36000, n),
        alt_cm=rng.integers(-100_000, 3_000_000, n),
        flags=rng.integers(0, 4, n),
    )


def shuffle_kinds(rng, imu, gps):
    """The frames of both kinds as bytes, in a random order that keeps each
    kind's own order."""
    return interleave(imu, gps, np.sort(rng.integers(0, len(imu) + 1, len(gps))))


def wire_rows(frames):
    """Each record's fields between the kind byte and the CRC, as one flat
    tuple per frame."""
    if not len(frames):
        return []
    cols = [frames[name].reshape(len(frames), -1) for name in frames.dtype.names[2:-1]]
    return [tuple(row) for row in np.hstack(cols).tolist()]


def assert_same_records(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


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
    def test_golden_frames(self):
        imu, gps = golden_frames()
        assert imu.tobytes() == GOLDEN_IMU_ZERO
        assert gps.tobytes() == GOLDEN_GPS

    def test_frame_lengths_fixed(self):
        rng = np.random.default_rng(41)
        assert len(random_imu_frames(rng, 50).tobytes()) == 50 * IMU_FRAME_LEN == 50 * 28
        assert len(random_gps_frames(rng, 50).tobytes()) == 50 * GPS_FRAME_LEN == 50 * 27

    def test_seq_defaults_to_row_index(self):
        frames = encode_frames(IMU_WIRE, np.arange(70000), counts=np.zeros((70000, 9), dtype=np.int64))
        assert frames["seq"][[0, 1, 65535, 65536, 69999]].tolist() == [0, 1, 65535, 0, 4463]

    def test_frames_match_struct_packing(self):
        rng = np.random.default_rng(40)
        imu, gps = random_imu_frames(rng, 200), random_gps_frames(rng, 200)
        for frames, fmt in ((imu, "<BBHI9h"), (gps, "<BBHIiiHHiB")):
            for row, frame in zip(frames.tolist(), frames):
                body = struct.pack(fmt, *np.hstack(row[:-1]).tolist())
                assert frame.tobytes() == body + struct.pack("<H", crc16_ccitt_false(body))

    @pytest.mark.parametrize("field,column", [
        ("seq", [-1]), ("seq", [65536]), ("t_ms", [-1]), ("t_ms", [2**32]),
        ("counts", [[40000] + [0] * 8]), ("counts", [[0] * 8 + [-32769]]),
        ("seq", [1.0]), ("t_ms", [0.5]), ("counts", [[True] * 9]),
    ])
    def test_imu_range_errors(self, field, column):
        kw = dict(t_ms=[0], seq=[0], counts=[[0] * 9])
        kw[field] = column
        with pytest.raises(EncodeRangeError, match=f"^{field} "):
            encode_frames(IMU_WIRE, **kw)

    @pytest.mark.parametrize("field,value", [
        ("lat_e7", 2**31), ("lon_e7", -(2**31) - 1), ("speed_cmps", 65536), ("course_cdeg", -1),
        ("alt_cm", 2**31), ("flags", 256), ("flags", -1), ("alt_cm", 1.5), ("flags", True),
    ])
    def test_gps_range_errors(self, field, value):
        fields = {name: [0] for name in GPS_WIRE.names[4:-1]}
        fields[field] = [value]
        with pytest.raises(EncodeRangeError, match=f"^{field} "):
            encode_frames(GPS_WIRE, [0], **fields)

    def test_payload_fields_required(self):
        with pytest.raises(TypeError):
            encode_frames(GPS_WIRE, [0], lat_e7=[0], lon_e7=[0])
        with pytest.raises(TypeError):
            encode_frames(IMU_WIRE, [0], counts=np.zeros((1, 9), dtype=np.int64), flags=[0])


class TestDecode:
    """A single frame decodes through the scan, and a failed one leaves the
    scan's diagnostics."""

    def test_roundtrip_random_frames(self):
        rng = np.random.default_rng(42)
        imu, gps = random_imu_frames(rng, 1000), random_gps_frames(rng, 1000)
        got_imu, got_gps, diags = scan_frames(b"".join(shuffle_kinds(rng, imu, gps)))
        assert_same_records(got_imu, imu)
        assert_same_records(got_gps, gps)
        assert diags == []

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**32 - 1),
           st.lists(st.integers(-32768, 32767), min_size=9, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, seq, t_ms, vals):
        frame = encode_frames(IMU_WIRE, [t_ms], [seq], counts=[vals])
        imu, gps, diags = scan_frames(frame.tobytes())
        assert_same_records(imu, frame)
        assert len(gps) == 0 and diags == []
        assert reference_scan(frame.tobytes()) == ([RefFrame(0x01, seq, t_ms, tuple(vals))], [])

    @pytest.mark.parametrize("edit,diags", [
        ("bad magic", [(0, "skip")]),
        ("unknown kind", [(0, "framing"), (1, "skip")]),
        ("short", [(0, "truncation")]),
        ("crc", [(0, "corruption"), (1, "skip")]),
    ])
    def test_failure_reason(self, edit, diags):
        data = bytearray(GOLDEN_IMU_ZERO)
        if edit == "bad magic":
            data[0] = 0x55
        elif edit == "unknown kind":
            data[1] = 0x7F
        elif edit == "short":
            del data[20:]
        else:
            data[10] ^= 0xFF
        imu, gps, got = scan_frames(bytes(data))
        assert len(imu) == len(gps) == 0
        assert [(d.offset, d.reason) for d in got] == diags

    def test_crc_mismatch_detail(self):
        data = bytearray(GOLDEN_IMU_ZERO)
        data[10] ^= 0xFF
        diag = scan_frames(bytes(data))[2][0]
        assert diag.detail == f"CRC mismatch: received 0x8C5A, computed 0x{crc16_ccitt_false(data[:-2]):04X}"

    def test_trailing_byte_is_skipped(self):
        imu, _, diags = scan_frames(GOLDEN_IMU_ZERO + b"\x00")
        assert_same_records(imu, golden_frames()[0])
        assert [(d.offset, d.reason) for d in diags] == [(IMU_FRAME_LEN, "skip")]

    def test_every_single_bit_flip_detected(self):
        rng = np.random.default_rng(43)
        for frame in (random_imu_frames(rng, 1), random_gps_frames(rng, 1)):
            encoded = frame.tobytes()
            for byte_idx in range(len(encoded)):
                for bit in range(8):
                    corrupted = bytearray(encoded)
                    corrupted[byte_idx] ^= 1 << bit
                    imu, gps, diags = scan_frames(bytes(corrupted))
                    assert len(imu) == len(gps) == 0
                    assert diags


class TestScanStream:
    def _frames(self, rng, n):
        """n random frames of both kinds, about 70% IMU."""
        n_gps = rng.binomial(n, 0.3)
        return random_imu_frames(rng, n - n_gps), random_gps_frames(rng, n_gps)

    def test_clean_concatenation(self):
        rng = np.random.default_rng(44)
        imu, gps = self._frames(rng, 40)
        got_imu, got_gps, diags = scan_frames(b"".join(shuffle_kinds(rng, imu, gps)))
        assert_same_records(got_imu, imu)
        assert_same_records(got_gps, gps)
        assert diags == []

    def test_recovers_through_garbage(self):
        rng = np.random.default_rng(45)
        imu, gps = self._frames(rng, 30)
        chunks = []
        for frame in shuffle_kinds(rng, imu, gps):
            chunks.append(bytes(rng.integers(0, 256, int(rng.integers(0, 40)), dtype=np.uint8)))
            chunks.append(frame)
        got_imu, got_gps, _ = scan_frames(b"".join(chunks))
        # every real frame recovered (garbage may decode into extra frames
        # only by a CRC collision, which the seeded data avoids)
        for got, want in ((got_imu, imu), (got_gps, gps)):
            want = wire_rows(want)
            assert [r for r in wire_rows(got) if r in want] == want

    def test_garbage_only(self):
        imu, gps, diags = scan_frames(b"\x00\x01\x02" * 100)
        assert len(imu) == len(gps) == 0
        assert len(diags) >= 1

    def test_truncated_tail(self):
        rng = np.random.default_rng(46)
        imu, gps = self._frames(rng, 5)
        data = b"".join(shuffle_kinds(rng, imu, gps)) + random_imu_frames(rng, 1).tobytes()[:15]
        got_imu, got_gps, diags = scan_frames(data)
        assert_same_records(got_imu, imu)
        assert_same_records(got_gps, gps)
        assert [d.reason for d in diags] == ["truncation"]

    def test_corruption_produces_diagnostic_and_resync(self):
        rng = np.random.default_rng(47)
        frames = random_imu_frames(rng, 3)
        blobs = [bytearray(f.tobytes()) for f in frames]
        blobs[1][12] ^= 0x40  # corrupt the middle frame
        imu, _, diags = scan_frames(b"".join(bytes(b) for b in blobs))
        assert_same_records(imu, frames[[0, 2]])
        assert any(d.reason == "corruption" for d in diags)

    def test_never_loses_frame_after_1kib_garbage(self):
        rng = np.random.default_rng(48)
        frame = random_gps_frames(rng, 1)
        garbage = bytes(rng.integers(0, 256, 1024, dtype=np.uint8))
        _, gps, _ = scan_frames(garbage + frame.tobytes())
        assert wire_rows(frame)[0] in wire_rows(gps)

    def test_linear_time_resync(self):
        # a long run of magic bytes must not blow up
        imu, gps, _ = scan_frames(b"\xa5" * 5000)
        assert len(imu) == len(gps) == 0


# A frame as the reference decoder reads it: the kind byte, the header and
# the payload fields in wire order (the IMU counts as one tuple).
RefFrame = namedtuple("RefFrame", "kind seq t_ms payload")


def reference_decode_frame(data: bytes) -> RefFrame:
    """The object-per-frame decoder the column scan replaced, for a frame
    of the right length; raises ValueError on a CRC mismatch."""
    need = len(data)
    body, crc_bytes = data[: need - 2], data[need - 2 :]
    (crc_rx,) = struct.unpack("<H", crc_bytes)
    crc_calc = crc16_ccitt_false(body)
    if crc_rx != crc_calc:
        raise ValueError(f"CRC mismatch: received 0x{crc_rx:04X}, computed 0x{crc_calc:04X}")
    _, kind, seq, t_ms = struct.unpack_from("<BBHI", body)
    if kind == 0x01:
        return RefFrame(kind, seq, t_ms, struct.unpack_from("<9h", body, 8))
    return RefFrame(kind, seq, t_ms, struct.unpack_from("<iiHHiB", body, 8))


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
        if kind_byte not in (0x01, 0x02):
            diags.append(StreamDiagnostic(i, "framing", f"unknown frame kind 0x{kind_byte:02X}"))
            i += 1
            continue
        need = {0x01: IMU_FRAME_LEN, 0x02: GPS_FRAME_LEN}[kind_byte]
        if n - i < need:
            diags.append(
                StreamDiagnostic(i, "truncation", f"stream ends {need - (n - i)} byte(s) into a frame")
            )
            break
        try:
            frames.append(reference_decode_frame(data[i : i + need]))
            i += need
        except ValueError as exc:
            diags.append(StreamDiagnostic(i, "corruption", str(exc)))
            i += 1
    return frames, diags


def ref_frames(imu, gps):
    """Scanned records as reference frames, IMU first."""
    return [RefFrame(0x01, seq, t_ms, tuple(counts)) for seq, t_ms, *counts in wire_rows(imu)] + [
        RefFrame(0x02, seq, t_ms, tuple(fields)) for seq, t_ms, *fields in wire_rows(gps)
    ]


def reference_gps_counts_to_fix(t_ms: int, lat_e7, lon_e7, speed_cmps, course_cdeg, alt_cm, flags) -> tuple:
    """The per-fix conversion the fix columns replaced, as one (t, lat, lon,
    speed, course, alt, valid) row with NaN for an absent altitude."""
    return (
        t_ms / 1000.0,
        round(lat_e7 / 1e7, 9),
        round(lon_e7 / 1e7, 9),
        round(speed_cmps / 100.0, 9),
        round(math.radians(course_cdeg / 100.0), 9),
        round(alt_cm / 100.0, 9) if flags & 0x02 else math.nan,
        bool(flags & 0x01),
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

    imu = first_per_t_ms("IMU", [fr for fr in frames if fr.kind == 0x01])
    gps = [fr for fr in frames if fr.kind == 0x02]
    in_range = [fr for fr in gps if abs(fr.payload[0]) <= 900_000_000 and abs(fr.payload[1]) <= 1_800_000_000]
    if len(in_range) < len(gps):
        err.append(f"navfuse: dropped GPS frames with a position out of range: {len(gps) - len(in_range)}\n")
    gps = []
    for fr in in_range:
        lat, lon, *rest, flags = fr.payload
        # -180 deg is the +180 deg meridian, and flag bits 2-7 carry nothing
        lon = 1_800_000_000 if lon == -1_800_000_000 else lon
        gps.append(fr._replace(payload=(lat, lon, *rest, flags & 0x03)))
    gps = first_per_t_ms("GPS", gps)
    arrays = imu_counts_to_arrays([fr.t_ms for fr in imu], [list(fr.payload) for fr in imu])
    fixes = [reference_gps_counts_to_fix(fr.t_ms, *fr.payload) for fr in gps]
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
        chunks.append(encode_one(kind, seq, t_ms, fields))
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
        want_imu, want_gps = random_imu_frames(rng, 36), random_gps_frames(rng, 24)
        imu, gps, diags = scan_frames(b"\x00\xa5\x07" + b"".join(shuffle_kinds(rng, want_imu, want_gps)))
        assert imu.dtype == IMU_WIRE and gps.dtype == GPS_WIRE
        assert IMU_WIRE.itemsize == IMU_FRAME_LEN and GPS_WIRE.itemsize == GPS_FRAME_LEN
        assert [(d.offset, d.reason) for d in diags] == [(0, "skip"), (1, "framing"), (2, "skip")]
        assert_same_records(imu, want_imu)
        assert_same_records(gps, want_gps)

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
        imu, gps, diags = scan_frames(data)
        ref, ref_diags = reference_scan(data)
        assert diags == ref_diags
        assert ref_frames(imu, gps) == sorted(ref, key=lambda fr: fr.kind)  # a stable sort
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            imu, gps = cli._decode_stream(data)
        ref_imu, ref_fixes, ref_err = reference_decode(data)
        for col, ref in zip(imu, ref_imu):
            assert col.dtype == ref.dtype and col.shape == ref.shape
            assert col.tobytes() == ref.tobytes()
        assert_same_fixes(gps, ref_fixes)
        assert err.getvalue() == ref_err


def nested_imu_frames():
    """An IMU frame whose ``counts[6]`` (0x01A5) puts a magic and an IMU kind
    byte at its offset 20, and the CRC-valid IMU frame that starts there: its
    header is the outer frame's last 8 bytes."""
    outer = encode_frames(IMU_WIRE, [1000], [3], counts=[[1, 2, 3, 4, 5, 6, 0x01A5, 7, 8]]).tobytes()
    seq, t_ms = struct.unpack_from("<HI", outer, 22)
    inner = encode_frames(IMU_WIRE, [t_ms], [seq], counts=[[9, -9, 2048, 0, 0, 0, 100, 0, -100]]).tobytes()
    assert inner[:8] == outer[20:]
    return outer, inner


def _nested(corrupt_outer):
    outer, inner = nested_imu_frames()
    if corrupt_outer:
        outer = outer[:10] + bytes([outer[10] ^ 0xFF]) + outer[11:]
    return outer + inner[8:]


class TestOverlappingFrames:
    """Streams in which a CRC-valid frame starts inside another, or that end
    on a magic byte: the scan matches the reference walk, frames and
    diagnostics alike."""

    @pytest.mark.parametrize("data", [
        _nested(False),
        _nested(True),
        b"\xa5\x01" * 2000,
        GOLDEN_IMU_ZERO + b"\xa5",
        _nested(False) * 3 + _nested(True) + _nested(False),
    ], ids=["inner-skipped", "inner-accepted", "a501-run", "magic-last", "mixed"])
    def test_matches_reference_scan(self, data):
        imu, gps, diags = scan_frames(data)
        ref, ref_diags = reference_scan(data)
        assert diags == ref_diags
        assert ref_frames(imu, gps) == sorted(ref, key=lambda fr: fr.kind)

    def test_the_frame_the_walk_meets_first_wins(self):
        outer, inner = nested_imu_frames()
        imu, _, diags = scan_frames(_nested(False))
        assert imu.tobytes() == outer
        assert [(d.offset, d.reason) for d in diags] == [(IMU_FRAME_LEN, "skip")]
        imu, _, diags = scan_frames(_nested(True))
        assert imu.tobytes() == inner
        assert [(d.offset, d.reason) for d in diags] == [(0, "corruption"), (1, "skip")]


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
        k = np.arange(len(fields))
        columns = zip(*fields) if fields else [()] * 6
        data = encode_frames(GPS_WIRE, k, k, **{n: np.array(c, dtype=np.int64) for n, c in zip(_GPS_NAMES, columns)})
        with contextlib.redirect_stderr(io.StringIO()):
            _, gps = cli._decode_stream(data.tobytes())
        counts = [
            # -180 deg is the +180 deg meridian
            (lat, 1_800_000_000 if lon == -1_800_000_000 else lon, speed, course, alt, flags)
            for lat, lon, speed, course, alt, flags in fields
        ]
        assert_same_fixes(gps, [
            reference_gps_counts_to_fix(k, *row) for k, row in enumerate(counts)
        ])
        back = gps_arrays_to_counts(gps)
        assert list(zip(*(back[f].tolist() for f in _GPS_NAMES))) == [
            (lat, lon, speed, course % 36000, alt if flags & 2 else 0, flags & 3)
            for lat, lon, speed, course, alt, flags in counts
        ]

    @pytest.mark.parametrize("counts", [
        np.arange(-32768, 32768),
        np.arange(0),
        np.array([-32769, 32769, 40000, 0, -32769, 7]),                 # beyond int16
        np.concatenate([np.arange(-32768, 32768), [-32769, 32769, 40000]]),
        np.array([-(2**40), 2**40, 3, -(2**40)]),                        # a range far past the block's size
    ], ids=["int16", "no-rows", "beyond-int16", "int16-and-beyond", "far-apart"])
    def test_arrays_match_python_round_on_every_count(self, counts):
        # np.round(x, 9) differs from Python's round(x, 9) on some counts
        imu = imu_counts_to_arrays(np.arange(len(counts)), np.repeat(counts[:, None], 9, axis=1))
        scales = {
            "accel": GRAVITY_MPS2 / 2048.0,
            "gyro": (math.pi / 180.0) / 16.4,
            "mag": 1.0 / 1090.0,
        }
        for name, k in scales.items():
            expected = np.array([round(c * k, 9) for c in counts.tolist()], dtype=np.float64)
            for axis in range(3):
                got = getattr(imu, name)[:, axis]
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(imu.t, np.arange(len(counts)) / 1000.0)
        assert (imu.has_mag == 1).all()

    @pytest.mark.parametrize("field,column,scale", [
        ("lat_e7", "lat", 1e7), ("lon_e7", "lon", 1e7), ("speed_cmps", "speed", 100.0), ("alt_cm", "alt", 100.0),
    ])
    def test_gps_counts_need_no_round(self, field, column, scale):
        """A count over 10**p is already its own ``round(v, 9)``, over the
        field's whole wire range: its extremes, -1, 0 and 1, and random counts."""
        info = np.iinfo(GPS_WIRE[field])
        rng = np.random.default_rng(29)
        k = np.concatenate([
            [info.min, info.min + 1, info.max - 1, info.max, -1, 0, 1],
            rng.integers(info.min, info.max, 200_000, endpoint=True),
        ])
        k = k[k >= info.min]  # an unsigned field has no -1
        rec = np.zeros(len(k), dtype=GPS_WIRE)
        rec[field] = k
        rec["flags"] = 3
        got = getattr(gps_counts_to_arrays(rec["t_ms"], rec), column)
        expected = np.array([round(c / scale, 9) for c in k.tolist()], dtype=np.float64)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

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
