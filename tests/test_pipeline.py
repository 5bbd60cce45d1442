import math

from navfuse.flightsim import FlightProfile, FlightSegment, SensorNoiseModel, generate_flight
from navfuse.pipeline import fuse_streams, fused_rows


def test_fused_rows_match_per_cell_formatting():
    # 40 s at 60 Hz: two full 1,024-row blocks and a short last one
    profile = FlightProfile(segments=(FlightSegment("turn", 40.0, yaw_rate_dps=4.0),), seed=3)
    _, imu, gps = generate_flight(profile, SensorNoiseModel())
    out = fuse_streams(imu, gps)
    deg = 180.0 / math.pi
    expected = []
    for i in range(len(out.t)):
        cells = [str(int(out.t_ms[i]))]
        cells += ["%.9f" % v for v in out.q[i]]
        cells += ["%.9f" % (out.euler[i, k] * deg) for k in range(3)]
        cells += ["%.9f" % out.lat[i], "%.9f" % out.lon[i]]
        cells += ["%.9f" % out.vel[i, 0], "%.9f" % out.vel[i, 1]]
        expected.append(",".join(cells) + "\n")
    blocks = list(fused_rows(out))
    assert [b.count("\n") for b in blocks] == [1024, 1024, len(expected) - 2048]
    assert "".join(blocks) == "".join(expected)
