"""Exception types shared across the fusion pipeline and I/O layers.

A telemetry frame that fails to decode raises nothing: ``scan_frames``
reports it as a ``StreamDiagnostic`` and resyncs.
"""


class DegenerateQuaternionError(ValueError):
    """Quaternion norm too small to normalize."""


class TimestampOrderError(ValueError):
    """Sample or fix timestamps are not strictly increasing."""


class EncodeRangeError(ValueError):
    """Frame field not an integer, or outside its wire-format range."""


class RecordingFormatError(ValueError):
    """Malformed flight-recording CSV. ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line
