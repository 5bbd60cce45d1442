"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports navfuse, so the inputs stay the same while the code
under test changes. The constants restate the documented formats and noise
settings (README "File formats" and "Config file") and the standard flight:

- truth: the analytic racetrack of the standard flight (15 m/s, 60 s
  straights joined by 180-degree turns at 4 deg/s, heading 0 = north), flown
  level, with latitude and longitude both scaled by 180 / (pi * 6371 km) per
  metre, which is navfuse's default (``lon_scale_correction`` off);
- IMU: 60 Hz, specific force, body rates and magnetic field quantised to
  int16 counts at 2048 LSB/g, 16.4 LSB/(deg/s) and 1090 LSB/gauss;
- GPS: 1 Hz fixes on IMU sample times with position noise and dropouts;
- telemetry: little-endian frames with a table-driven CRC-16/CCITT-FALSE;
- recordings: the flight-recording CSV schema with 9 decimal places.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

G = 9.80665
EARTH_RADIUS_M = 6_371_000.0
DEG_PER_M = 180.0 / (math.pi * EARTH_RADIUS_M)
M_PER_DEG = 1.0 / DEG_PER_M

IMU_RATE_HZ = 60
GPS_EVERY = 60                      # one fix per 60 IMU samples (1 Hz)
SPEED_MPS = 15.0
TURN_RATE = math.radians(4.0)       # rad/s, positive = clockwise seen from above
START_LAT, START_LON, START_ALT_M = -7.765, 110.37, 120.0
MAG_FIELD_GAUSS = (0.28, 0.0, -0.12)    # north, east, vertical

ACCEL_LSB_PER_MPS2 = 2048.0 / G
GYRO_LSB_PER_RADPS = 16.4 * 180.0 / math.pi
MAG_LSB_PER_GAUSS = 1090.0

ACCEL_SIGMA, GYRO_SIGMA, GYRO_BIAS, MAG_SIGMA = 0.05, 0.005, 0.01, 0.003
GPS_SIGMA_M, GPS_DROPOUT = 2.5, 0.1

# One lap of the standard flight; a flight of `laps` laps ends with an 8 s straight.
LAP = ((60.0, 0.0), (45.0, TURN_RATE), (60.0, 0.0), (45.0, TURN_RATE))
FINAL_STRAIGHT_S = 8.0

MAGIC = 0xA5
KIND_IMU, KIND_GPS = 0x01, 0x02
IMU_DTYPE = np.dtype([("magic", "u1"), ("kind", "u1"), ("seq", "<u2"), ("t_ms", "<u4"),
                      ("counts", "<i2", (9,)), ("crc", "<u2")])
GPS_DTYPE = np.dtype([("magic", "u1"), ("kind", "u1"), ("seq", "<u2"), ("t_ms", "<u4"),
                      ("lat_e7", "<i4"), ("lon_e7", "<i4"), ("speed_cmps", "<u2"),
                      ("course_cdeg", "<u2"), ("alt_cm", "<i4"), ("flags", "u1"), ("crc", "<u2")])
assert IMU_DTYPE.itemsize == 28 and GPS_DTYPE.itemsize == 27

RECORDING_HEADER = "t_ms,ax,ay,az,gx,gy,gz,mx,my,mz,gps_valid,lat,lon,speed_mps,course_deg,alt_m"


def _crc_table() -> np.ndarray:
    table = np.zeros(256, dtype=np.uint32)
    for i in range(256):
        crc = i << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) if crc & 0x8000 else (crc << 1)
        table[i] = crc & 0xFFFF
    return table


CRC_TABLE = _crc_table()


def crc16_rows(rows: np.ndarray) -> np.ndarray:
    """CRC-16/CCITT-FALSE of each row of a (n, k) uint8 array, all rows at once."""
    crc = np.full(rows.shape[0], 0xFFFF, dtype=np.uint32)
    for k in range(rows.shape[1]):
        crc = ((crc << 8) & 0xFFFF) ^ CRC_TABLE[(crc >> 8) ^ rows[:, k]]
    return crc.astype(np.uint16)


if int(crc16_rows(np.frombuffer(b"123456789", dtype=np.uint8)[None, :])[0]) != 0x29B1:
    raise RuntimeError("CRC-16/CCITT-FALSE table fails its check value 0x29B1")


@dataclass
class Flight:
    """Truth and quantised sensor counts on the IMU time grid."""

    t_ms: np.ndarray        # (n,) int64
    lat: np.ndarray         # (n,) truth, degrees
    lon: np.ndarray
    counts: np.ndarray      # (n, 9) int16: accel, gyro, mag
    fix_idx: np.ndarray     # (m,) sample index of each delivered fix
    fix: np.ndarray         # (m,) GPS_DTYPE payload fields filled in

    @property
    def n(self) -> int:
        return len(self.t_ms)


def racetrack(t: np.ndarray, laps: int):
    """Analytic truth at times t (s): lat, lon, v_north, v_east, heading, turn rate."""
    legs = LAP * laps + ((FINAL_STRAIGHT_S, 0.0),)
    north = np.zeros_like(t)
    east = np.zeros_like(t)
    psi = np.zeros_like(t)
    rate = np.zeros_like(t)
    t0, n0, e0, psi0 = 0.0, 0.0, 0.0, 0.0
    for k, (dur, w) in enumerate(legs):
        last = k == len(legs) - 1
        m = (t >= t0) & ((t <= t0 + dur) if last else (t < t0 + dur))
        s = t[m] - t0
        if w == 0.0:
            psi[m] = psi0
            north[m] = n0 + SPEED_MPS * s * math.cos(psi0)
            east[m] = e0 + SPEED_MPS * s * math.sin(psi0)
        else:
            p = psi0 + w * s
            r = SPEED_MPS / w
            psi[m] = p
            rate[m] = w
            north[m] = n0 + r * (np.sin(p) - math.sin(psi0))
            east[m] = e0 - r * (np.cos(p) - math.cos(psi0))
        if w == 0.0:
            n0 += SPEED_MPS * dur * math.cos(psi0)
            e0 += SPEED_MPS * dur * math.sin(psi0)
        else:
            p1 = psi0 + w * dur
            n0 += SPEED_MPS / w * (math.sin(p1) - math.sin(psi0))
            e0 -= SPEED_MPS / w * (math.cos(p1) - math.cos(psi0))
            psi0 = p1
        t0 += dur
    lat = START_LAT + north * DEG_PER_M
    lon = START_LON + east * DEG_PER_M
    return lat, lon, SPEED_MPS * np.cos(psi), SPEED_MPS * np.sin(psi), psi, rate


def flight_duration_s(laps: int) -> float:
    return laps * sum(d for d, _ in LAP) + FINAL_STRAIGHT_S


def imu_time_grid(laps: int) -> np.ndarray:
    n = int(round(flight_duration_s(laps) * IMU_RATE_HZ)) + 1
    return np.rint(np.arange(n) * (1000.0 / IMU_RATE_HZ)).astype(np.int64)


def make_flight(laps: int, rng: np.random.Generator) -> Flight:
    t_ms = imu_time_grid(laps)
    n = len(t_ms)
    lat, lon, vn, ve, psi, rate = racetrack(t_ms / 1000.0, laps)
    c, s = np.cos(psi), np.sin(psi)
    # Level flight: body axes are the world axes turned by the heading.
    a_n, a_e = -SPEED_MPS * rate * s, SPEED_MPS * rate * c
    accel = np.column_stack([c * a_n + s * a_e, -s * a_n + c * a_e, np.full(n, G)])
    gyro = np.column_stack([np.zeros(n), np.zeros(n), rate])
    mn, me, md = MAG_FIELD_GAUSS
    mag = np.column_stack([c * mn + s * me, -s * mn + c * me, np.full(n, md)])
    accel += ACCEL_SIGMA * rng.standard_normal((n, 3))
    gyro += GYRO_BIAS + GYRO_SIGMA * rng.standard_normal((n, 3))
    mag += MAG_SIGMA * rng.standard_normal((n, 3))
    counts = np.rint(np.hstack([accel * ACCEL_LSB_PER_MPS2, gyro * GYRO_LSB_PER_RADPS,
                                mag * MAG_LSB_PER_GAUSS]))
    if np.abs(counts).max() > 32767:
        raise ValueError("sensor count outside int16")

    cand = np.arange(0, n, GPS_EVERY)
    m = len(cand)
    keep = rng.random(m) >= GPS_DROPOUT
    keep[0] = keep[-1] = True
    noise = rng.standard_normal((m, 3)) * GPS_SIGMA_M
    idx = cand[keep]
    fix = np.zeros(len(idx), dtype=GPS_DTYPE)
    fix["lat_e7"] = np.rint((lat[idx] + noise[keep, 0] * DEG_PER_M) * 1e7)
    fix["lon_e7"] = np.rint((lon[idx] + noise[keep, 1] * DEG_PER_M) * 1e7)
    fix["speed_cmps"] = np.rint(np.hypot(vn[idx], ve[idx]) * 100.0)
    fix["course_cdeg"] = np.rint(np.degrees(np.arctan2(ve[idx], vn[idx])) % 360.0 * 100.0) % 36000
    fix["alt_cm"] = np.rint((START_ALT_M + noise[keep, 2]) * 100.0)
    fix["flags"] = 0x03
    return Flight(t_ms=t_ms, lat=lat, lon=lon, counts=counts.astype(np.int16), fix_idx=idx, fix=fix)


# Damage rates per frame for telemetry streams. They come from no measured
# link: they are set so that every diagnostic reason turns up in each stream.
# navbench/README.md gives live timings at 0x, 1x and 5x these rates.
BITFLIP_RATE = 0.01
CUT_RATE = 0.003
GARBAGE_RATE = 0.005
GARBAGE_MAX = 64


@dataclass
class Stream:
    data: bytes
    imu_ok: np.ndarray      # (n,) bool: IMU frame of sample i arrives intact


def _frames(f: Flight) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clean frames in transmit order: (bytes (total,), frame offsets, frame lengths).

    Each fix frame follows the IMU frame of its sample; one link counter
    numbers all frames.
    """
    n, m = f.n, len(f.fix_idx)
    order_key = np.concatenate([np.arange(n) * 2, f.fix_idx * 2 + 1])
    order = np.argsort(order_key, kind="stable")      # positions < n are IMU frames
    seq = np.empty(n + m, dtype=np.uint16)
    seq[order] = np.arange(n + m) % 65536

    imu = np.zeros(n, dtype=IMU_DTYPE)
    imu["magic"], imu["kind"], imu["seq"], imu["t_ms"] = MAGIC, KIND_IMU, seq[:n], f.t_ms
    imu["counts"] = f.counts
    gps = f.fix.copy()
    gps["magic"], gps["kind"], gps["seq"], gps["t_ms"] = MAGIC, KIND_GPS, seq[n:], f.t_ms[f.fix_idx]
    imu_u8 = imu.view(np.uint8).reshape(n, 28)
    gps_u8 = gps.view(np.uint8).reshape(m, 27)
    imu["crc"] = crc16_rows(imu_u8[:, :26])
    gps["crc"] = crc16_rows(gps_u8[:, :25])

    lengths = np.where(order < n, 28, 27)
    offsets = np.zeros(n + m, dtype=np.int64)
    offsets[1:] = np.cumsum(lengths)[:-1]
    buf = np.empty(int(lengths.sum()), dtype=np.uint8)
    pos = np.empty(n + m, dtype=np.int64)              # frame id -> stream position
    pos[order] = np.arange(n + m)
    buf[(offsets[pos[:n]][:, None] + np.arange(28)).ravel()] = imu_u8.ravel()
    buf[(offsets[pos[n:]][:, None] + np.arange(27)).ravel()] = gps_u8.ravel()
    return buf, offsets[pos], lengths[pos]


def make_stream(f: Flight, rng: np.random.Generator, damage_scale: float = 1.0) -> Stream:
    """Frame a flight and damage it: bit flips, frames cut short, garbage
    bursts between frames, and a stream cut inside its last frame.

    ``damage_scale`` multiplies the three per-frame damage rates. Garbage
    never holds the magic byte, and the first fix is kept intact so the
    fused track starts on GPS.
    """
    buf, off, length = _frames(f)
    total = len(off)
    n = f.n
    first_fix = n                                       # frame id of fix 0
    flip = rng.random(total) < BITFLIP_RATE * damage_scale
    cut = (rng.random(total) < CUT_RATE * damage_scale) & ~flip
    garbage = rng.random(total) < GARBAGE_RATE * damage_scale
    flip[first_fix] = cut[first_fix] = False
    last = int(np.argmax(off))
    cut[last], flip[last] = True, False

    ids = np.flatnonzero(flip)
    bit_at = off[ids] + rng.integers(0, length[ids])
    buf[bit_at] ^= (1 << rng.integers(0, 8, len(ids))).astype(np.uint8)

    chunks = []
    prev = 0
    events = sorted(np.flatnonzero(cut | garbage).tolist(), key=lambda i: off[i])
    for i in events:
        start = int(off[i])
        if garbage[i]:
            chunks.append(buf[prev:start].tobytes())
            junk = rng.integers(0, 255, int(rng.integers(1, GARBAGE_MAX + 1)), dtype=np.uint8)
            chunks.append(np.where(junk >= MAGIC, junk + 1, junk).astype(np.uint8).tobytes())
            prev = start
        if cut[i]:
            # Drop at least 3 bytes: with 1 or 2 gone, the bytes that follow
            # (the next magic byte, say) can complete the frame by chance.
            keep = int(rng.integers(1, length[i] - 2))
            chunks.append(buf[prev:start + keep].tobytes())
            prev = start + int(length[i])
    chunks.append(buf[prev:].tobytes())
    lost = flip | cut
    return Stream(data=b"".join(chunks), imu_ok=~lost[:n])


def write_recording(path, f: Flight, seed: int) -> None:
    """Write the flight as a recording CSV (documented schema, 9 decimals)."""
    k = f.counts.astype(np.float64)
    values = np.hstack([k[:, :3] / ACCEL_LSB_PER_MPS2, k[:, 3:6] / GYRO_LSB_PER_RADPS,
                        k[:, 6:] / MAG_LSB_PER_GAUSS])
    gps = ["0,,,,,"] * f.n
    for i, fx in zip(f.fix_idx.tolist(), f.fix.tolist()):
        gps[i] = "1,%.9f,%.9f,%.9f,%.9f,%.9f" % (
            fx[4] / 1e7, fx[5] / 1e7, fx[6] / 100.0, fx[7] / 100.0, fx[8] / 100.0)
    row = "%d," + ",".join(["%.9f"] * 9) + ",%s\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# source=navbench\n# seed={seed}\n{RECORDING_HEADER}\n")
        fh.writelines(row % (t, *v, g) for t, v, g in zip(f.t_ms.tolist(), values.tolist(), gps))
