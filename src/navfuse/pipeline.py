"""End-to-end fusion orchestration shared by the CLI modes.

Takes an IMU stream as ``ImuArrays`` columns and the GPS fixes as
``GpsArrays`` columns, runs the attitude and then the position estimator
over them, and formats the fused output rows. Live and replay runs differ only in the GPS
position reference (latest fix vs linear interpolation), so replaying a
recording reproduces the live attitude output bit for bit.

``fuse_blocks`` fuses a stream in blocks: a first block of
``_FIRST_BLOCK_ROWS`` (64) rows, so that the first rows wait for a short
fusion only, then blocks of ``_FUSE_BLOCK_ROWS`` (4,096) rows, so that the
per-block set-up is paid a few times per stream. A block's temporaries
grow with its rows: while a 38k-row ``live`` stream is fused, at most 3.3
MB more is allocated than at the start with 1,024-row blocks, 3.6 MB with
4,096 and 4.3 MB with 8,192. ``fused_rows`` formats a block ``_BLOCK_ROWS`` (1,024) rows at
a time, which bounds the formatter's memory, and the CLI writes each
block's rows as soon as it is fused instead of after the whole flight.
Everything that can refuse the input (the cutoffs, the IMU columns, the
GPS fixes) is checked before the first block, so an input error leaves no
row behind; the other options are checked when the ``FusionConfig`` is
built. The estimators carry their state from block to block, so the
output does not depend on the block size, bit for bit.

``format_rows`` prints the numeric CSV bodies (fused, truth, filter-compare
and recording rows) byte for byte as one ``%`` per cell would, with numpy
arithmetic on a block of cells at a time:

- A ``%.9f`` cell prints R = |x| * 10**9 rounded half to even, whose last 9
  digits are the fraction. While the float product hi = |x| * 1e9 is below
  2**52, its floor f and its fraction d = hi - f are exact. An ulp of hi is
  then at most 0.5, d is a multiple of it, and the product's rounding error
  is at most half of it. So R is f + 1 for d > 0.5 and f for d < 0.5,
  whatever the error. Only at d == 0.5 does the exact error decide: it comes
  from Dekker's two-product, for those cells alone, and an error of 0 is a
  true tie, which goes to the even one of f and f + 1.
- The sign is the sign bit, so -0.0 and -1e-12 print ``-0.000000000`` as
  ``%`` does. A ``%d`` cell prints the int of the float, with a sign only
  where that int is not 0 (``'%d' % -0.5 == '0'``).
- Integer ``//`` passes write the digits into one uint8 matrix of slots
  (sign, integer digits, ".", fraction digits, separator) per cell, in
  which a slot with nothing to print holds a 0 byte: a plus sign, a leading
  zero, every slot of an empty cell but its separator. One
  ``bytes.translate`` drops them.
- A block holding a non-finite cell or one out of range is printed per cell
  with ``%``, which holds anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterator, NamedTuple

import numpy as np

from .attitude import AttitudeEstimator, ImuArrays, check_imu, warn_gaps
from .geo import EARTH_RADIUS_M, check_earth_radius
from .navigation import GpsArrays, NavEstimator, gps_track, prepare_gps_reference

FUSED_HEADER = "t_ms,qw,qx,qy,qz,roll_deg,pitch_deg,yaw_deg,lat,lon,v_north,v_east"
_FUSED_ROW = "%d" + ",%.9f" * 11
_BLOCK_ROWS = 1024
_FIRST_BLOCK_ROWS = 64
_FUSE_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class FusionConfig:
    """Every option of the fusion, and its one default. ``AttitudeEstimator``
    and ``NavEstimator`` read their fields from it. Building one refuses
    each value that needs no sample rate to check (``inf`` is a valid
    ``stale_after_s``: every fix stays fresh); the estimators' filter
    designs refuse a cutoff outside (0, Nyquist)."""

    alpha: float = 0.1
    beta: float = 0.1
    gamma_rp: float = 0.98
    gamma_yaw: float = 0.98
    accel_lp_hz: float = 5.0
    gyro_hp_hz: float = 0.1
    cutoff_hz: float | None = None          # None: default_position_cutoff_hz(fs), fs/6 capped at 10
    declination_deg: float = 0.0
    lon_scale_correction: bool = False
    earth_radius_m: float = EARTH_RADIUS_M
    stale_after_s: float = 3.0
    gps_mode: str = "live"                  # "live" | "replay"

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma_rp", "gamma_yaw"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not math.isfinite(self.declination_deg):
            raise ValueError(f"declination_deg must be finite, got {self.declination_deg}")
        check_earth_radius(self.earth_radius_m)
        if not self.stale_after_s >= 0.0:
            raise ValueError(f"stale_after_s must be >= 0, got {self.stale_after_s}")
        if self.gps_mode not in ("live", "replay"):
            raise ValueError(f"unknown GPS reference mode {self.gps_mode!r}")


class FusionOutput(NamedTuple):
    t: np.ndarray
    t_ms: np.ndarray
    euler: np.ndarray   # (n, 3) radians
    q: np.ndarray       # (n, 4)
    vel: np.ndarray     # (n, 2) v_north, v_east
    lat: np.ndarray
    lon: np.ndarray
    att_flags: np.ndarray   # (n,) uint8 attitude FLAG_* bits


def read_option(name: str, value, like):
    """``value`` read as the kind of ``like``: a float takes an int or a
    float, a ``None`` takes ``None`` or a float, and any other kind
    (``bool``, ``int``, ``str``, ``dict``) only a value of its own kind, a
    bool never being an int. Raises ``ValueError`` naming ``name`` for a
    value of another kind."""
    kind = float if like is None else type(like)
    if value is None and like is None:
        return None
    takes = (int, float) if kind is float else kind
    try:
        if not isinstance(value, takes) or isinstance(value, bool) != (kind is bool):
            raise TypeError
        return kind(value)
    except (TypeError, OverflowError):
        raise ValueError(f"option {name!r}: expected {kind.__name__}, got {value!r}") from None


def replace_fields(record, values: dict):
    """The frozen dataclass ``record`` with the scalar fields named in
    ``values`` replaced, each value read by ``read_option`` as the kind of
    the field's value in ``record``. Raises ``ValueError`` for a name that
    is not such a field, a value of the wrong kind, or whatever ``record``'s
    own checks raise."""
    scalar = (bool, int, float, str, type(None))
    names = {f.name for f in fields(record) if isinstance(getattr(record, f.name), scalar)}
    unknown = sorted(values.keys() - names)
    if unknown:
        raise ValueError("unknown option " + ", ".join(map(repr, unknown)))
    return replace(record, **{k: read_option(k, v, getattr(record, k)) for k, v in values.items()})


def median(x: np.ndarray) -> float:
    """``np.median`` of a non-empty finite 1-D float64 array, bit for bit (the
    same partition and mean, which turns a -0.0 into 0.0), without the NaN
    check for which ``np.median`` imports ``numpy.ma``."""
    h = len(x) // 2
    lo = h if len(x) % 2 else h - 1
    return float(np.mean(np.partition(x, [lo, h, -1])[lo:h + 1]))


def estimate_sample_rate(t: np.ndarray) -> float:
    """1 / the median step of ``t`` (60 Hz below two samples), the one rate
    that ``fuse_blocks`` and ``flightsim.sweep_cells`` design filters at."""
    if len(t) < 2:
        return 60.0
    return 1.0 / median(np.diff(t))


def fuse_blocks(
    imu: ImuArrays, gps: GpsArrays, cfg: FusionConfig = FusionConfig(),
) -> Iterator[FusionOutput]:
    """The fusion of ``imu`` and ``gps`` as one ``FusionOutput`` per block:
    the first ``_FIRST_BLOCK_ROWS`` rows, then blocks of ``_FUSE_BLOCK_ROWS`` rows.

    This call does the per-stream work and raises for a bad input or cutoff;
    the iterator it returns only fuses. The sample rate is the whole
    stream's and ``gps_track`` of the fixes is made once; each block's GPS
    reference and ``t_ms`` come from its own rows, so no column of the
    whole stream is kept. The first row starts at its row 0, whose
    ``ref_lat``/``ref_lon`` hold the mode's fix position whether or not
    ``has_pos`` lets the blend use it. After the last block, one warning
    names the stream's gaps.
    """
    if len(imu.t) == 0:
        raise ValueError("no IMU samples to fuse")
    check_imu(imu.t, imu.accel, imu.gyro)
    fs = estimate_sample_rate(imu.t)
    att, nav = AttitudeEstimator(cfg, fs), NavEstimator(cfg, fs)
    track = gps_track(gps)

    def blocks():
        gaps = 0
        bounds = [0, *range(_FIRST_BLOCK_ROWS, len(imu.t), _FUSE_BLOCK_ROWS), len(imu.t)]
        for rows in map(slice, bounds, bounds[1:]):
            block = imu._make(col[rows] for col in imu)
            a = att.run(*block)
            gaps += a.gaps
            ref = prepare_gps_reference(block.t, track, cfg.gps_mode, cfg.stale_after_s)
            vel = nav.blend_velocity(a.t, nav.world_accel(block.accel, a.q), ref)
            lat, lon = nav.blend_position(a.t, vel, ref)
            yield FusionOutput(a.t, block.t_ms, a.euler, a.q, vel, lat, lon, a.flags)
            del a, ref, vel, lat, lon  # so that no block's arrays outlive their use while the next one is fused
        warn_gaps(gaps)

    return blocks()


def csv_blocks(row_format: str, cols: np.ndarray):
    """Format the rows of a float64 (n, k) array as ``format_rows`` does,
    yielding strings of up to ``_BLOCK_ROWS`` (1,024) newline-terminated lines."""
    for lo in range(0, len(cols), _BLOCK_ROWS):
        yield format_rows(row_format, cols[lo:lo + _BLOCK_ROWS])


def format_rows(row_format: str, cols: np.ndarray, empty: np.ndarray | None = None) -> str:
    """The rows of a float64 (n, k) array as newline-terminated lines: each
    cell as ``row_format``'s ``%d`` or ``%.9f`` prints it (a ``%d`` cell
    takes a float, which prints as its int does), or as nothing where the
    bool (n, k) array ``empty`` is set.

    The digits come from numpy arithmetic (see the module docstring), which
    prints what ``%`` prints, byte for byte. Rows holding a cell out of its
    range (non-finite, ``|x| * 1e9`` at least 2**52 for ``%.9f``, ``|x|`` at
    least 2**63 for ``%d``) are printed per cell with ``%`` instead.
    """
    cells = row_format.split(",")
    n, k = cols.shape
    if len(cells) != k or not set(cells) <= {"%d", "%.9f"}:
        raise ValueError(f"row format {row_format!r} is not {k} cells of %d or %.9f")
    if not n:
        return ""
    fixed = np.array([c == "%.9f" for c in cells])
    v = cols if empty is None else np.where(empty, 0.0, cols)
    a = np.abs(v)
    # |x| < 2**52 / 1e9 is exactly |x| * 1e9 < 2**52 in floats; a NaN compares false
    if not (a.max(axis=0) < np.where(fixed, 2.0**52 / 1e9, 2.0**63)).all():
        return _format_cells(cells, cols, empty)
    ints = {}  # the int of each %d column, which takes no part in the rounding
    for j in np.flatnonzero(~fixed).tolist():
        ints[j] = np.floor(a[:, j]).astype(np.int64)
        a[:, j] = 0.0

    # the %.9f cells: r = |x| * 1e9 rounded half to even, exactly
    hi = a * 1e9
    r = np.floor(hi)
    frac = hi - r
    up = frac > 0.5
    tie = np.flatnonzero(frac == 0.5)
    if len(tie):
        up.ravel()[tie] = _round_up_at_tie(a.ravel()[tie], hi.ravel()[tie], r.ravel()[tie])
    r = (r + up).astype(np.int64)
    whole = r // 1_000_000_000
    fraction = (r - whole * 1_000_000_000).astype(np.int32)
    whole = whole.astype(np.int32)  # below 2**52 / 1e9
    width = max([len(str(int(whole.max())))] + [len(str(int(w.max()))) - 10 for w in ints.values()])

    # slots: the sign, `width` integer digits, ".", 9 fraction digits and the
    # separator; a 0 byte prints nothing
    m = np.empty((width + 12, n, k), dtype=np.uint8)
    np.multiply(np.signbit(v), ord("-"), out=m[0], casting="unsafe")
    _put_digits(whole, m[1:width + 1])
    m[width + 1] = ord(".")
    _put_digits(fraction, m[width + 2:width + 11], zeros=True)
    m[-1] = ord(",")
    m[-1, :, -1] = ord("\n")
    # a %d cell prints its digits in every slot between its sign and separator
    for j, w in ints.items():
        np.multiply(v[:, j] <= -1.0, ord("-"), out=m[0, :, j], casting="unsafe")
        _put_digits(w, m[1:-1, :, j])
    if empty is not None:
        m[:-1] *= ~empty
    return m.transpose(1, 2, 0).tobytes().translate(None, b"\0").decode("ascii")


def _round_up_at_tie(a: np.ndarray, hi: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Whether ``a * 1e9`` rounds up to an integer where its float product
    ``hi`` lies exactly halfway between ``r`` and ``r + 1``: the exact product
    decides, half to even."""
    c = a * 134217729.0  # 2**27 + 1: Veltkamp's split of a into two 26-bit halves
    a_hi = c - (c - a)
    # a * 1e9 - hi exactly (Dekker's two-product; 1e9 has 21 significant bits)
    err = (a_hi * 1e9 - hi) + (a - a_hi) * 1e9
    return (err > 0.0) | ((err == 0.0) & (r % 2.0 == 1.0))


def _put_digits(q: np.ndarray, slots: np.ndarray, zeros: bool = False) -> None:
    """Write the decimal digits of the ints ``q`` >= 0 right-aligned into
    ``slots[0]``, ``slots[1]``, ... as ASCII; a leading zero is a 0 byte
    unless ``zeros``."""
    for s in range(len(slots) - 1, -1, -1):
        t = q // 10
        d = q - t * 10 + ord("0")
        if not zeros and s < len(slots) - 1:
            d *= q != 0
        slots[s] = d
        q = t


def _format_cells(cells: list[str], cols: np.ndarray, empty: np.ndarray | None) -> str:
    """``format_rows`` cell by cell with ``%``."""
    vals = cols.ravel().tolist()
    skip = [False] * len(vals) if empty is None else empty.ravel().tolist()
    out = ["" if e else f % x for f, x, e in zip(cells * len(cols), vals, skip)]
    k = len(cells)
    return "".join(",".join(out[i:i + k]) + "\n" for i in range(0, len(out), k))


def fused_rows(out: FusionOutput):
    """Yield the output CSV rows, header excluded, in strings of up to
    ``_BLOCK_ROWS`` (1,024) newline-terminated lines, each formatted from the
    columns of its own rows only."""
    for lo in range(0, len(out.t_ms), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        yield format_rows(_FUSED_ROW, np.column_stack(
            [out.t_ms[rows], out.q[rows], out.euler[rows] * (180.0 / math.pi), out.lat[rows], out.lon[rows],
             out.vel[rows]]))
