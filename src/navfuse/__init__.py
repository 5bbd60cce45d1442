"""navfuse: deterministic IMU+GPS complementary-filter sensor fusion.

Quaternion attitude estimation from pre-filtered accelerometer/gyro/
magnetometer streams, dead-reckoning/GPS position blending, a binary
telemetry frame codec, CSV flight recordings with record/replay, and a
synthetic-flight oracle for error studies. The fusion is plain Python in
its estimators: ``AttitudeEstimator.run`` and ``NavEstimator.blend`` loop
only over the recursive blend, and the pre-filters (``FilterState.run``),
rotation, tilt and quaternion assembly run as array passes.
"""

from .attitude import (
    AttitudeEstimator,
    FusionGains,
    ImuArrays,
    accel_to_roll_pitch,
    complementary_angle,
    mag_to_heading,
)
from .filters import (
    BiquadCoeffs,
    FilterState,
    design_butterworth2_lp,
    design_chebyshev1_2_lp,
    design_first_order_hp,
    design_first_order_lp,
    frequency_response,
)
from .geo import EarthModel, GeoPoint, bearing, meters_to_degrees_lat
from .navigation import (
    BlendWeights,
    GpsArrays,
    NavEstimator,
    interpolate_gps,
)
from .pipeline import FusionConfig, FusionOutput, fuse_streams
from .quat import EulerAngles, Quaternion, hamilton, wrap_pi
from .recording import FlightRecording, read_recording, write_recording
from .telemetry import TelemetryFrame, decode_frame, encode_frame, scan_stream

__version__ = "0.1.0"


def available_backends() -> tuple[str, ...]:
    """The kernel implementations, of which there is one.

    Kept because the benchmark names its per-layer kernel timings after it
    (``attitude.run_s.python``, ``navigation.run_s.python``).
    """
    return ("python",)


__all__ = [
    "AttitudeEstimator",
    "BiquadCoeffs",
    "BlendWeights",
    "EarthModel",
    "EulerAngles",
    "FilterState",
    "FlightRecording",
    "FusionConfig",
    "FusionGains",
    "FusionOutput",
    "GeoPoint",
    "GpsArrays",
    "ImuArrays",
    "NavEstimator",
    "Quaternion",
    "TelemetryFrame",
    "accel_to_roll_pitch",
    "available_backends",
    "bearing",
    "complementary_angle",
    "decode_frame",
    "design_butterworth2_lp",
    "design_chebyshev1_2_lp",
    "design_first_order_hp",
    "design_first_order_lp",
    "encode_frame",
    "frequency_response",
    "fuse_streams",
    "hamilton",
    "interpolate_gps",
    "mag_to_heading",
    "meters_to_degrees_lat",
    "read_recording",
    "scan_stream",
    "wrap_pi",
    "write_recording",
]
