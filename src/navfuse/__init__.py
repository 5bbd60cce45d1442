"""navfuse: deterministic IMU+GPS complementary-filter sensor fusion.

Quaternion attitude estimation from pre-filtered accelerometer/gyro/
magnetometer streams, dead-reckoning/GPS position blending, a binary
telemetry frame codec, CSV flight recordings with record/replay, and a
synthetic-flight oracle for error studies. The per-sample fusion loops are
plain Python functions beside their estimators: ``attitude.attitude_run``,
``navigation.nav_run`` and ``filters.biquad_run``.
"""

from .attitude import (
    AttitudeEstimator,
    AttitudeState,
    FusionGains,
    ImuArrays,
    ImuSample,
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
from .geo import EarthModel, GeoPoint, bearing, geodesic_distance, meters_to_degrees_lat
from .navigation import (
    BlendWeights,
    GpsFix,
    NavEstimator,
    NavState,
    gravity_compensate,
    interpolate_gps,
    nav_step,
    position_step,
    velocity_step,
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
    "AttitudeState",
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
    "GpsFix",
    "ImuArrays",
    "ImuSample",
    "NavEstimator",
    "NavState",
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
    "geodesic_distance",
    "gravity_compensate",
    "hamilton",
    "interpolate_gps",
    "mag_to_heading",
    "meters_to_degrees_lat",
    "nav_step",
    "position_step",
    "read_recording",
    "scan_stream",
    "velocity_step",
    "wrap_pi",
    "write_recording",
]
