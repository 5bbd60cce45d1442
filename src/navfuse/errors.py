"""Exception types of the package's input checks: timestamps out of order, a
frame field outside its wire range and a malformed recording.

A telemetry frame that fails to decode raises nothing: ``scan_frames``
reports it as a ``StreamDiagnostic`` and resyncs.
"""


class TimestampOrderError(ValueError):
    """Sample or fix timestamps are not strictly increasing."""


class EncodeRangeError(ValueError):
    """Frame field not an integer, or outside its wire-format range."""


class RecordingFormatError(ValueError):
    """Malformed flight-recording CSV. ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line
