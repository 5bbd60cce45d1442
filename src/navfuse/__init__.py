"""navfuse: deterministic IMU+GPS complementary-filter sensor fusion.

Quaternion attitude estimation from pre-filtered accelerometer/gyro/
magnetometer streams, dead-reckoning/GPS position blending, a binary
telemetry frame codec, CSV flight recordings with record/replay, and a
synthetic-flight oracle for error studies. The fusion is plain Python in
its estimators: ``AttitudeEstimator.run`` and ``NavEstimator.blend`` loop
only over the recursive blend, and the pre-filters (``FilterState.run``),
rotation, tilt and quaternion assembly run as array passes.

The package's exports load on first use: ``import navfuse`` imports neither
numpy nor a submodule, and ``navfuse.NavEstimator`` imports
``navfuse.navigation`` the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# The submodule that defines each export.
_EXPORTS = {
    "attitude": ("AttitudeEstimator", "FusionGains", "ImuArrays", "accel_to_roll_pitch",
                 "complementary_angle", "mag_to_heading"),
    "filters": ("BiquadCoeffs", "FilterState", "design_butterworth2_lp", "design_chebyshev1_2_lp",
                "design_first_order_hp", "design_first_order_lp", "frequency_response"),
    "geo": ("EarthModel", "GeoPoint", "bearing", "meters_to_degrees_lat"),
    "navigation": ("BlendWeights", "GpsArrays", "NavEstimator", "interpolate_gps"),
    "pipeline": ("FusionConfig", "FusionOutput", "fuse_streams"),
    "quat": ("EulerAngles", "Quaternion", "hamilton", "wrap_pi"),
    "recording": ("FlightRecording", "read_recording", "write_recording"),
    "telemetry": ("TelemetryFrame", "decode_frame", "encode_frame", "scan_stream"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "available_backends"])


def available_backends() -> tuple[str, ...]:
    """The kernel implementations, of which there is one.

    Kept because the benchmark names its per-layer kernel timings after it
    (``attitude.run_s.python``, ``navigation.run_s.python``).
    """
    return ("python",)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
