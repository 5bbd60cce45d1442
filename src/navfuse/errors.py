"""Exception types shared across the fusion pipeline and I/O layers."""


class DegenerateQuaternionError(ValueError):
    """Quaternion norm too small to normalize."""


class TimestampOrderError(ValueError):
    """Sample or fix timestamps are not strictly increasing."""


class UnobservableTiltError(ValueError):
    """Accelerometer magnitude too small to observe gravity direction."""


class UnobservableHeadingError(ValueError):
    """Horizontal magnetic field too small to observe heading."""


class InterpolationRangeError(ValueError):
    """Query time outside the span covered by GPS fixes (no extrapolation)."""


class FrameError(ValueError):
    """Base class for telemetry frame decode failures.

    ``offset`` is the byte offset (within the buffer handed to the decoder)
    at which the failure was detected.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(message)
        self.offset = offset


class FramingError(FrameError):
    """Bad magic byte or unknown frame kind."""


class TruncationError(FrameError):
    """Buffer ends before the frame does."""


class CorruptionError(FrameError):
    """Frame checksum does not match its contents."""


class EncodeRangeError(ValueError):
    """Frame field outside its wire-format range."""


class RecordingFormatError(ValueError):
    """Malformed flight-recording CSV. ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line
