import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from rotations import axis_rotations, from_quaternion, rotation_y

from uprsim.geometry import EyeState, PinholeCamera, RigidTransform, front_camera, project_pinhole
from uprsim.harness import ExperimentConfig, run
from uprsim.tracksim import (
    WRITE_BLOCK_ROWS,
    CostModel,
    FlowSimulator,
    Generator,
    HeadTrace,
    TraceError,
    TraceSpec,
    eye_points,
    generate_trace,
    project_eyes,
    read_trace_csv,
    write_csv,
    write_trace_csv,
)


def spec(**kw) -> TraceSpec:
    kw.setdefault("generator", Generator.STATIONARY)
    kw.setdefault("n_frames", 100)
    return TraceSpec(**kw)


# ---- trace generation --------------------------------------------------

def test_stationary_trace():
    trace = generate_trace(spec())
    eyes = trace.eye_mm
    assert len(trace) == 100
    assert np.ptp(eyes, axis=0).max() == 0.0
    assert trace.dwell_mask().all()


def test_step_move_dwells():
    trace = generate_trace(TraceSpec(generator=Generator.STEP_MOVE,
                                     amplitude_mm=200.0, depth_amplitude_mm=0.0,
                                     dwell_frames=50, transition_frames=20))
    eyes = trace.eye_mm
    assert len(trace) == 120
    assert np.ptp(eyes[:50], axis=0).max() == 0.0
    assert np.ptp(eyes[-50:], axis=0).max() == 0.0
    assert np.allclose(eyes[-1] - eyes[0], [200.0, 0.0, 0.0])
    mask = trace.dwell_mask()
    assert mask[:50].all() and mask[-50:].all()
    assert not mask[55:65].any()


def test_timestamps_match_rate():
    trace = generate_trace(spec(frame_rate_hz=15.0))
    assert np.allclose(np.diff(trace.t_ms), 1000.0 / 15.0)


def test_random_walk_deterministic():
    a = generate_trace(spec(generator=Generator.RANDOM_WALK, seed=42, amplitude_mm=5.0))
    b = generate_trace(spec(generator=Generator.RANDOM_WALK, seed=42, amplitude_mm=5.0))
    assert np.array_equal(a.eye_mm, b.eye_mm)


def test_sway_is_periodic_lateral():
    trace = generate_trace(spec(generator=Generator.SWAY, n_frames=61,
                                amplitude_mm=100.0, sway_period_s=4.0))
    eyes = trace.eye_mm
    assert abs(eyes[:, 0]).max() == pytest.approx(100.0, abs=1.0)
    assert np.ptp(eyes[:, 1]) == 0.0 and np.ptp(eyes[:, 2]) == 0.0


@pytest.mark.parametrize("column, index, value, reason", [
    ("eye_mm", (2, 0), np.nan, "values must be finite"),
    ("t_ms", 2, np.inf, "values must be finite"),
    ("ipd_mm", 2, -np.inf, "values must be finite"),
    ("eye_mm", (2, 2), 0.0, "in front of the panel"),
    ("ipd_mm", 2, -1.0, "ipd_mm must be nonnegative"),
    ("t_ms", 2, 100.0, "strictly increasing"),
    ("t_ms", 2, 250.0, "frame spacing"),
])
def test_head_trace_rejects_bad_frame(column, index, value, reason):
    cols = {"t_ms": np.arange(4) * 100.0, "eye_mm": np.tile([0.0, 0.0, 300.0], (4, 1)),
            "ipd_mm": np.full(4, 63.0)}
    cols[column][index] = value
    with pytest.raises(TraceError, match=reason) as exc:
        HeadTrace(**cols)
    assert exc.value.args[0] == 2


@pytest.mark.filterwarnings("error")
def test_head_trace_overflowing_spacing_is_a_trace_error():
    # The second spacing, 1.7e308 - -1.6e308, overflows to inf: a TraceError,
    # not a numpy overflow warning first. A first spacing that overflows is
    # inf too, and inf - inf is NaN, which fails the rule without a warning.
    for t, frame in (([-1.7e308, -1.6e308, 1.7e308], 2), ([-1.7e308, 1.7e308], 1)):
        with pytest.raises(TraceError) as exc:
            HeadTrace(t_ms=t, eye_mm=np.tile([0.0, 0.0, 300.0], (len(t), 1)),
                      ipd_mm=np.full(len(t), 63.0))
        assert exc.value.args == (frame, "frame spacing inconsistent with frame rate")


def test_head_trace_columns_are_read_only_copies():
    eye = np.tile([0.0, 0.0, 300.0], (2, 1))
    trace = HeadTrace(t_ms=[0.0, 100.0], eye_mm=eye, ipd_mm=[63.0, 63.0])
    eye[0, 0] = 5.0
    assert trace.eye_mm[0, 0] == 0.0
    with pytest.raises(ValueError):
        trace.eye_mm[0, 0] = 5.0


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        generate_trace(spec(n_frames=0))
    with pytest.raises(ValueError):
        generate_trace(spec(frame_rate_hz=0.0))


@pytest.mark.parametrize("base", [(np.nan, 0.0, 150.0), (0.0, np.inf, 150.0), (0.0, 150.0)])
def test_spec_rejects_bad_base_eye(base):
    # Checked where the spec is built, not a frame later in generate_trace.
    with pytest.raises(ValueError, match=r"^base_eye_mm: must be three finite values"):
        TraceSpec(Generator.SWAY, n_frames=5, base_eye_mm=base)


# ---- trace CSV ---------------------------------------------------------

# Each example overwrites the same two files, so sharing tmp_path is safe.
@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(generator=st.sampled_from(Generator), n_frames=st.integers(1, 60),
       rate_hz=st.floats(1.0, 120.0), amplitude_mm=st.floats(0.0, 200.0),
       depth_mm=st.floats(0.0, 100.0), seed=st.integers(0, 2**32 - 1),
       base_eye_mm=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
                             st.floats(60.0, 500.0)))
@example(generator=Generator.RANDOM_WALK, n_frames=40, rate_hz=15.0, amplitude_mm=4.0,
         depth_mm=0.0, seed=3, base_eye_mm=(0.0, 0.0, 300.0))
def test_trace_csv_round_trip_bytes(tmp_path, generator, n_frames, rate_hz, amplitude_mm,
                                    depth_mm, seed, base_eye_mm):
    trace = generate_trace(spec(generator=generator, n_frames=n_frames, frame_rate_hz=rate_hz,
                                amplitude_mm=amplitude_mm, depth_amplitude_mm=depth_mm,
                                dwell_frames=5, transition_frames=3, seed=seed,
                                base_eye_mm=base_eye_mm))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(trace, p1)
    back = read_trace_csv(p1)
    write_trace_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # Full precision: the values read back are the values written.
    assert back.t_ms.tolist() == trace.t_ms.tolist()
    assert np.array_equal(back.eye_mm, trace.eye_mm)


def write_rows_oracle(header, columns) -> str:
    """The row-at-a-time formatter write_csv replaced: str() of each Python
    value, one row at a time."""
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns))
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


#: Bit patterns whose cells a value-based dedup would get wrong or that
#: format unusually: +-0, NaNs with other payloads and signs, +-inf,
#: subnormals, and a value next to 1.0.
SPECIAL_BITS = [0, 1 << 63, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                0x7FF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000, 1,
                0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF, 0x3FF0000000000000, 0x3FF0000000000001]


@st.composite
def csv_columns(draw, n):
    kind = draw(st.sampled_from(["float", "float_view", "int", "range", "str", "mixed"]))
    if kind.startswith("float"):
        # A small pool drawn from heavily gives the repeats dedup relies on.
        pool = draw(st.lists(st.sampled_from(SPECIAL_BITS), min_size=1, max_size=4)) + draw(
            st.lists(st.integers(0, 2**64 - 1) | st.floats().map(
                lambda v: int(np.float64(v).view(np.uint64))), max_size=3))
        bits = draw(st.lists(st.sampled_from(pool), min_size=2 * n, max_size=2 * n))
        arr = np.array(bits, dtype=np.uint64).view(np.float64)
        # arr.reshape(n, 2).T[k] is a strided view, not a contiguous array.
        return arr[:n] if kind == "float" else arr.reshape(n, 2).T[draw(st.integers(0, 1))]
    if kind == "int":
        ints = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
        return draw(st.sampled_from([ints, np.array(ints, dtype=np.int64)]))
    if kind == "range":
        return range(n)
    text = st.text(st.characters(blacklist_characters=",\n\r"))
    if kind == "mixed":  # text among other values: every cell still goes through str()
        return draw(st.lists(text | st.integers() | st.floats(), min_size=n, max_size=n))
    text = draw(st.lists(text, min_size=n, max_size=n))
    return draw(st.sampled_from([text, np.array(text, dtype=object)]))


@st.composite
def csv_tables(draw):
    n = draw(st.integers(0, 12))
    return [draw(csv_columns(n)) for _ in range(draw(st.integers(1, 6)))]


def block_table(n):
    """n rows that end at, or one row either side of, a block boundary:
    floats with +-0 and NaN, and text as a list and as an object array."""
    floats = np.array(SPECIAL_BITS * (n // len(SPECIAL_BITS) + 1), dtype=np.uint64)
    text = [f"r{i}" for i in range(n)]
    return [range(n), floats[:n].view(np.float64), text, np.array(text[::-1], dtype=object)]


# Each example overwrites the same file, so sharing tmp_path is safe.
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=csv_tables())
@example(columns=block_table(0))
@example(columns=block_table(1))
@example(columns=block_table(WRITE_BLOCK_ROWS - 1))
@example(columns=block_table(WRITE_BLOCK_ROWS))
@example(columns=block_table(WRITE_BLOCK_ROWS + 1))
def test_write_csv_bytes_equal_row_formatter(tmp_path, columns):
    # The columnar writer formats each distinct float64 bit pattern once,
    # passes text cells through and writes rows in blocks; its bytes are
    # the row formatter's, -0.0 next to 0.0 included, at any row count.
    header = ",".join(f"c{k}" for k in range(len(columns)))
    write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_text() == write_rows_oracle(header, columns)


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match=re.escape("columns differ in length: [3, 2]")):
        write_csv(tmp_path / "t.csv", "a,b", [range(3), np.zeros(2)])
    assert not (tmp_path / "t.csv").exists()


def test_trace_csv_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("frame,t_ms\n0,0.0\n")
    with pytest.raises(ValueError):
        read_trace_csv(p)


@pytest.mark.parametrize("line, old, new, message", [
    (3, "300.0", "inf", "line 3: values must be finite"),
    (2, "300.0", "-5.0", "line 2: eye must be in front of the panel"),
    (2, "63.0", "-1.0", "line 2: ipd_mm must be nonnegative"),
    (4, "0.0,0.0,0.0\n", "0.0,0.0,5.0\n", "line 4: dev_* pose must be the identity"),
    (3, "66.66666666666667", "0.0", "line 3: timestamps must be strictly increasing"),
    (4, "133.33333333333334", "150.0", "line 4: frame spacing inconsistent"),
    (2, "63.0,", "63.0,7,", "line 2: expected 13 values, got 14"),
    (3, "300.0", "abc", "line 3: could not convert string to float: 'abc'"),
])
def test_trace_csv_rejects_bad_row(tmp_path, line, old, new, message):
    p = tmp_path / "trace.csv"
    write_trace_csv(generate_trace(spec(n_frames=3, base_eye_mm=(0.0, 0.0, 300.0))), p)
    lines = p.read_text().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].replace(old, new, 1)
    p.write_text("".join(lines))
    with pytest.raises(ValueError, match=re.escape(message)):
        read_trace_csv(p)


# ---- flow simulator ----------------------------------------------------

#: The simulator's front camera (ExperimentConfig's front_cam_* keys).
FRONT_CAM = front_camera(250.0, 250.0, 640, 480)


def exact_flow(cam) -> FlowSimulator:
    """A flow simulator with no noise, drift or failure: each measurement is
    the exact projection."""
    return FlowSimulator(cam, 0.0, 0.0, 0.0, np.random.default_rng(0))


def project_frame_of(cam):
    """The project_frame of an exact flow stream in cam."""
    return exact_flow(cam).stream((), ())[2]


def eye_at(pos) -> np.ndarray:
    """(2, 3) eye points, rows left, right."""
    return eye_points(pos, 63.0)


def test_eye_points_match_eye_state():
    # Each frame's eyes are its EyeState's cyclopean eye -+ ipd_mm / 2 along x.
    pos = np.array([[10.0, -5.0, 250.0], [-0.0, 3.25, 1e-3]])
    ipd = np.array([63.0, 58.5])
    eyes = eye_points(pos, ipd)
    assert eyes.shape == (2, 2, 3)
    for p, d, e in zip(pos, ipd, eyes):
        ref = EyeState.from_cyclopean(p, ipd_mm=d)
        half = [ref.ipd_mm / 2.0, 0.0, 0.0]
        assert np.array_equal(e, [ref.cyclopean_mm - half, ref.cyclopean_mm + half])


def per_frame_projection(cam, eyes):
    """The per-frame oracle for project_eyes: the two eyes' pixels
    as one row, left u, v, right u, v (None when an eye is at or behind the
    camera), and visibility."""
    pts = cam.extrinsic.apply(eyes)
    if np.any(pts[:, 2] <= 0):
        return None, False
    px = project_pinhole(cam, pts)
    return px.ravel(), all(0 <= u <= cam.width_px and 0 <= v <= cam.height_px for u, v in px)


def assert_project_matches_per_frame(cam, eyes):
    px, visible = project_eyes(cam, eyes)
    assert px.shape == eyes.shape[:-2] + (4,)
    assert visible.shape == eyes.shape[:-2]
    for e, p, vis in zip(eyes, px, visible):
        expected, expected_vis = per_frame_projection(cam, e)
        assert vis == expected_vis
        if expected is None:
            behind = cam.extrinsic.apply(e)[:, 2] <= 0  # per eye
            assert np.isnan(p[np.repeat(behind, 2)]).all()
        else:
            assert np.array_equal(p, expected)


def test_project_edges_behind_and_off_image():
    # front_camera(250, 250, 640, 480) at z = 250 mm: u = 320 - x, v = 240 - y.
    cam = front_camera(250.0, 250.0, 640, 480)
    frames = eye_points([[0.0, 0.0, 250.0],       # centre
                         [-320.0, 0.0, 250.0],    # u = 640, right edge
                         [320.0, 0.0, 250.0],     # u = 0, left edge
                         [0.0, 240.0, 250.0],     # v = 0, top edge
                         [0.0, -240.0, 250.0],    # v = 480, bottom edge
                         [-320.5, 0.0, 250.0],    # u = 640.5, just off the image
                         [5000.0, 0.0, 100.0],    # far off the image
                         [0.0, 0.0, 0.0],         # in the camera plane
                         [0.0, 0.0, -100.0]],     # behind the camera
                        0.0)
    one_behind = eye_points([0.0, 0.0, 250.0], 63.0)
    one_behind[1, 2] = -1.0                       # right eye alone behind
    eyes = np.concatenate([frames, one_behind[None]])
    _, visible = project_eyes(cam, eyes)
    assert visible.tolist() == [True] * 5 + [False] * 5
    assert_project_matches_per_frame(cam, eyes)


coord_mm = st.floats(-3000.0, 3000.0, allow_nan=False)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=80)
@given(fx=st.floats(10.0, 2000.0), fy=st.floats(10.0, 2000.0),
       width=st.integers(1, 2000), height=st.integers(1, 2000),
       tilt=st.floats(-0.5, 0.5), ipd=st.floats(0.0, 80.0),
       eye_mm=st.lists(st.tuples(coord_mm, coord_mm, st.floats(-500.0, 3000.0)),
                       min_size=1, max_size=12))
def test_project_bit_equals_per_frame_projection(fx, fy, width, height, tilt, ipd, eye_mm):
    # The batch pass over frames gives exactly the per-frame pixels and
    # visibility, for the front camera and for a tilted one.
    eyes = eye_points(np.array(eye_mm), ipd)
    cam = front_camera(fx, fy, width, height)
    assert_project_matches_per_frame(cam, eyes)
    tilted = PinholeCamera(fx, fy, width / 2.0, height / 2.0, width, height,
                           rotation_y(tilt, (5.0, -3.0, 1.0)))
    assert_project_matches_per_frame(tilted, eyes)


AXIS_ROTATIONS = axis_rotations()
signed_zero = st.sampled_from([0.0, -0.0])
coord_or_zero = st.one_of(signed_zero, coord_mm)


def reanchor_example(eye_mm, offset, tilt=0.0, ipd=63.0, centre=(0.0, 0.0),
                     quat=(0.9, 0.3, -0.2, 0.1), shift=(5.0, -3.0, 1.0)):
    """An explicit example of test_project_frame_bit_equals_project."""
    return example(fx=250.0, fy=250.0, width=640, height=480, tilt=tilt, ipd=ipd,
                   eye_mm=eye_mm, offset=offset, centre=centre, quat=quat, shift=shift)


quaternion = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 1e-3)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@settings(max_examples=80)
@given(fx=st.floats(10.0, 2000.0), fy=st.floats(10.0, 2000.0),
       width=st.integers(1, 2000), height=st.integers(1, 2000),
       tilt=st.floats(-0.5, 0.5), ipd=st.one_of(signed_zero, st.floats(0.0, 80.0)),
       eye_mm=st.tuples(coord_or_zero, coord_or_zero,
                        st.one_of(signed_zero, st.floats(-500.0, 3000.0))),
       offset=st.tuples(coord_or_zero, coord_or_zero, coord_or_zero),
       centre=st.tuples(coord_or_zero, coord_or_zero), quat=quaternion,
       shift=st.tuples(coord_or_zero, coord_or_zero, coord_or_zero))
@reanchor_example((12.3, -45.6, 300.7), (1.1, 2.2, 3.3))  # sums that round
@reanchor_example((0.0, 0.0, 20.0), (0.0, 0.0, -100.0))  # both eyes behind
@reanchor_example((0.0, 0.0, 20.0), (0.0, 0.0, -20.0))  # in the camera plane
@reanchor_example((0.0, 0.0, 0.5), (0.0, 0.0, 0.0), tilt=0.3)  # tilt puts one eye behind
@reanchor_example((-0.0, -0.0, 150.0), (-0.0, -0.0, 0.0))  # signed zeros at the centre
# The left eye at (+0, -100, -0): where a rotation makes camera z = -y and
# camera x = -x, every product of camera x is -0.0.
@reanchor_example((0.0, -100.0, -0.0), (-0.0, -0.0, -0.0), ipd=0.0, centre=(-0.0, -0.0))
@reanchor_example((1e308, 0.0, 150.0), (1e308, 0.0, 0.0))  # x overflows to inf
@reanchor_example((-1e308, 0.0, 150.0), (-1e308, 0.0, 0.0))  # x overflows to -inf
@reanchor_example((0.0, 1e308, 150.0), (0.0, 1e308, 0.0))  # y overflows to inf
@reanchor_example((0.0, 0.0, 1e308), (0.0, 0.0, 1e308))  # z overflows to inf
@reanchor_example((-0.0, -0.0, 150.0), (-0.0, -0.0, 0.0), ipd=0.0, centre=(-0.0, -0.0),
                  quat=(1.0, 0.0, 0.0, 0.0), shift=(-0.0, -0.0, -0.0))  # identity, -0.0 shift
def test_project_frame_bit_equals_project(fx, fy, width, height, tilt, ipd, eye_mm, offset,
                                          centre, quat, shift):
    # The re-anchor's one-frame projection of an estimate (the true eye plus
    # a face-tracker offset) is project_eyes', bit for bit, NaN and inf included,
    # for the front camera, a tilted translated one, a general rotation from
    # a drawn quaternion with a drawn translation (signed zeros included),
    # and all 24 axis-aligned rotations at a zero translation of either
    # sign. The last two sit their principal point at `centre` (signed zeros
    # included), so that the sign of a zero camera coordinate reaches the
    # pixel.
    est = eye_points(np.array(eye_mm), ipd) + offset
    cx, cy = centre
    cams = [front_camera(fx, fy, width, height),
            PinholeCamera(fx, fy, width / 2.0, height / 2.0, width, height,
                          rotation_y(tilt, (5.0, -3.0, 1.0))),
            PinholeCamera(fx, fy, cx, cy, width, height,
                          from_quaternion(quat, shift))]
    cams += [PinholeCamera(fx, fy, cx, cy, width, height, RigidTransform(r, [zero] * 3))
             for r in AXIS_ROTATIONS for zero in (0.0, -0.0)]
    for cam in cams:
        project_frame = project_frame_of(cam)
        expected = project_eyes(cam, est)[0].view(np.uint64)
        for frame in (est, est.tolist()):
            got = np.array(project_frame(frame))
            assert np.array_equal(got.view(np.uint64), expected), cam


def test_project_frame_calls_no_apply(monkeypatch):
    # project_frame transforms on Python floats for any camera, a tilted and
    # translated one included; project_eyes still calls RigidTransform.apply.
    calls = []
    apply = RigidTransform.apply

    def counting_apply(self, points):
        calls.append(np.shape(points))
        return apply(self, points)

    monkeypatch.setattr(RigidTransform, "apply", counting_apply)
    cam = PinholeCamera(250.0, 250.0, 320.0, 240.0, 640, 480, rotation_y(0.3, (5.0, -3.0, 1.0)))
    eyes = eye_points([10.0, -5.0, 250.0], 63.0)
    px = project_frame_of(cam)(eyes.tolist())
    assert calls == []
    assert px == tuple(project_eyes(cam, eyes)[0].tolist())
    assert calls == [(2, 3)]


def measure_frame(sim, eye):
    """sim.measure of one frame's (2, 3) eye points, through project_eyes."""
    px, visible = project_eyes(sim.front_cam, eye)
    return sim.measure(px.tolist(), bool(visible))


def flow_stream(sim, eye, n):
    """sim's stream over n frames of the same (2, 3) eye points."""
    px, visible = project_eyes(sim.front_cam, eye)
    return sim.stream([px.tolist()] * n, [bool(visible)] * n)


def test_noise_free_flow_is_exact_projection():
    cam = FRONT_CAM
    sim = exact_flow(cam)
    eye = eye_at([10.0, -5.0, 250.0])
    m = measure_frame(sim, eye)
    expected = project_pinhole(cam, cam.extrinsic.apply(eye))
    assert m is not None
    assert np.abs(np.reshape(m, (2, 2)) - expected).max() == 0.0


def test_flow_fails_when_eye_leaves_view():
    sim = exact_flow(FRONT_CAM)
    assert measure_frame(sim, eye_at([5000.0, 0.0, 100.0])) is None


def test_flow_noise_sigma_statistical():
    sim = FlowSimulator(FRONT_CAM, 2.0, 0.0, 0.0, np.random.default_rng(5))
    samples = np.array(list(flow_stream(sim, eye_at([0.0, 0.0, 300.0]), 10_000)[0]))
    resid = samples - samples.mean(axis=0)
    sample_sigma = resid.std()
    assert abs(sample_sigma - 2.0) / 2.0 < 0.05


def test_flow_drift_accumulates_and_resets():
    cam = FRONT_CAM
    sim = FlowSimulator(cam, 0.0, 0.1, 0.0, np.random.default_rng(7))
    eye = eye_at([0.0, 0.0, 300.0])
    exact = project_pinhole(cam, cam.extrinsic.apply(eye))
    flows, reset_drift, _ = flow_stream(sim, eye, 30)
    for i in range(1, 30):
        m = next(flows)
        left = m[:2]
        assert np.linalg.norm(np.subtract(left, exact[0])) == pytest.approx(0.1 * i, abs=1e-9)
    reset_drift()
    m = next(flows)
    assert np.linalg.norm(np.subtract(m[:2], exact[0])) == pytest.approx(0.1, abs=1e-9)


def test_flow_failure_probability():
    sim = FlowSimulator(FRONT_CAM, 0.0, 0.0, 0.5, np.random.default_rng(9))
    fails = sum(m is None for m in flow_stream(sim, eye_at([0.0, 0.0, 300.0]), 2000)[0])
    assert 900 < fails < 1100


class NumpyFlowOracle:
    """measure's former numpy formulation: (2, 2) pixels plus a (2,) drift
    direction array, then a (2, 2) noise draw."""

    def __init__(self, sigma, drift, p_fail, rng):
        self.sigma, self.drift, self.p_fail, self.rng = sigma, drift, p_fail, rng
        self.reset_drift()

    def reset_drift(self):
        self.frames = 0
        theta = self.rng.uniform(0.0, 2.0 * np.pi)
        self.direction = np.array([np.cos(theta), np.sin(theta)])

    def measure(self, px, visible):
        if not visible:
            return None
        if self.p_fail > 0 and self.rng.random() < self.p_fail:
            return None
        self.frames += 1
        px = px + self.direction * (self.drift * self.frames)
        if self.sigma > 0:
            px = px + self.rng.normal(0.0, self.sigma, size=px.shape)
        return px


pixel = st.floats(-1e4, 1e4)
flow_ops = st.lists(st.one_of(
    st.just("reset"),
    st.tuples(st.lists(pixel, min_size=4, max_size=4), st.booleans()),
    st.just(([np.nan] * 4, False))), max_size=40)  # an eye behind the camera


@settings(max_examples=150)
@given(sigma=st.just(0.0) | st.floats(1e-3, 50.0) | st.floats(5e-324, 2e-308)
       | st.floats(1e299, 1e300),
       drift=st.just(0.0) | st.floats(1e-4, 2.0),
       p_fail=st.just(0.0) | st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1), ops=flow_ops)
# Seed 0's drift direction has cos, sin < 0, so pixel + drift is -0.0 before the noise.
@example(sigma=5e-324, drift=0.0, p_fail=0.0, seed=0, ops=[([-0.0] * 4, True)] * 8)
def test_measure_bit_equals_numpy_formulation(sigma, drift, p_fail, seed, ops):
    # The float stream makes the same draws in the same order as the numpy
    # formulation and gives the same bits, through failures, invisible
    # frames and drift resets made between any two reads, for any sigma:
    # subnormal (noise that underflows to a signed zero, which 0.0 + sigma *
    # z makes +0.0, as numpy's normal does) to ~1e300.
    sim = FlowSimulator(FRONT_CAM, sigma, drift, p_fail, np.random.default_rng(seed))
    oracle = NumpyFlowOracle(sigma, drift, p_fail, np.random.default_rng(seed))
    frames = [op for op in ops if op != "reset"]
    flows, reset_drift, _ = sim.stream([px for px, _ in frames], [v for _, v in frames])
    for op in ops:
        if op == "reset":
            reset_drift()
            oracle.reset_drift()
            continue
        px, visible = op
        got = next(flows)
        expected = oracle.measure(np.reshape(px, (2, 2)), visible)
        assert (got is None) == (expected is None)
        if got is not None:
            assert np.array_equal(np.array(got).view(np.uint64),
                                  expected.reshape(4).view(np.uint64))
    assert next(flows, "end") == "end"
    assert sim.rng.bit_generator.state == oracle.rng.bit_generator.state


@settings(max_examples=150)
@given(sigma=st.just(0.0) | st.floats(1e-3, 50.0), drift=st.just(0.0) | st.floats(1e-4, 2.0),
       p_fail=st.just(0.0) | st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1),
       frames=st.lists(st.tuples(
           st.tuples(st.lists(pixel, min_size=4, max_size=4), st.booleans())
           | st.just(([np.nan] * 4, False)),  # an eye behind the camera
           st.booleans()), max_size=40))
def test_measurements_bit_equal_measure_and_numpy_formulation(sigma, drift, p_fail, seed,
                                                              frames):
    # The lazy stream gives the numpy formulation's values and draws, in
    # their order, for a random visible/invisible trace, with a reset_drift
    # after some frames, made between two frames' reads, as AAUPR's
    # recompute makes it. measure is one frame of a fresh stream: on each
    # frame it gives a fresh numpy formulation's first values and draws.
    sim = FlowSimulator(FRONT_CAM, sigma, drift, p_fail, np.random.default_rng(seed))
    oracle = NumpyFlowOracle(sigma, drift, p_fail, np.random.default_rng(seed))
    flows, reset_drift, _ = sim.stream([px for (px, _), _ in frames], [v for (_, v), _ in frames])
    for k, (((px, visible), reset), got) in enumerate(zip(frames, flows)):
        one = FlowSimulator(FRONT_CAM, sigma, drift, p_fail, np.random.default_rng([seed, k]))
        one_oracle = NumpyFlowOracle(sigma, drift, p_fail, np.random.default_rng([seed, k]))
        pair = np.reshape(px, (2, 2))
        for value, expected in [(got, oracle.measure(pair, visible)),
                                (one.measure(px, visible), one_oracle.measure(pair, visible))]:
            assert (value is None) == (expected is None)
            if value is not None:
                assert np.array_equal(np.array(value).view(np.uint64),
                                      expected.reshape(4).view(np.uint64))
        assert one.rng.bit_generator.state == one_oracle.rng.bit_generator.state
        if reset:
            reset_drift()
            oracle.reset_drift()
    assert next(flows, "end") == "end"
    assert sim.rng.bit_generator.state == oracle.rng.bit_generator.state


@settings(max_examples=100)
@given(seed=st.integers(0, 2**64 - 1), n_resets=st.integers(1, 60))
def test_reset_drift_bit_equals_uniform_draw(seed, n_resets):
    # reset_drift's 2 pi * random() gives the direction and the stream
    # position of rng.uniform(0.0, 2 pi). A unit drift's first frame after
    # a draw at pixels -0.0 (-0.0 + x is x, bit for bit) reads the
    # direction back.
    sim = FlowSimulator(FRONT_CAM, 0.0, 1.0, 0.0, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    flows, reset_drift, _ = sim.stream([[-0.0] * 4] * n_resets, [True] * n_resets)
    for k in range(n_resets):
        if k:
            reset_drift()
        theta = rng.uniform(0.0, 2.0 * np.pi)
        expected = np.array([np.cos(theta), np.sin(theta)] * 2)
        assert np.array_equal(np.array(next(flows)).view(np.uint64), expected.view(np.uint64))
        assert sim.rng.bit_generator.state == rng.bit_generator.state


# ---- face tracker (read from the config by the run) -------------------

def face_config(n_frames, **kw):
    """A UPR-only config on a stationary trace at (5, 5, 200)."""
    return ExperimentConfig(modes="UPR", trace_generator="stationary", trace_n_frames=n_frames,
                            trace_base_eye_x_mm=5.0, trace_base_eye_y_mm=5.0,
                            trace_base_eye_z_mm=200.0, **kw)


def face_run(n_frames, **kw):
    return run(face_config(n_frames, **kw)).records["UPR"], np.array([5.0, 5.0, 200.0])


def test_face_tracker_exact_without_jitter():
    rec, eye = face_run(50, noise_jitter_sigma_mm=0.0)
    assert np.array_equal(rec.est_eye_mm, np.tile(eye, (50, 1)))


def test_face_tracker_zero_jitter_draws_positive_zeros():
    # Every sigma takes one draw on the mode's jitter stream. At 0.0, and at
    # -0.0, which the key's domain admits, each offset is +0.0, so an eye
    # coordinate of -0.0 renders as +0.0.
    for sigma in (0.0, -0.0):
        rec = run(ExperimentConfig(modes="UPR", trace_generator="stationary", trace_n_frames=3,
                                   trace_base_eye_x_mm=-0.0, trace_base_eye_z_mm=200.0,
                                   noise_jitter_sigma_mm=sigma)).records["UPR"]
        expected = np.tile([0.0, 0.0, 200.0], (3, 1))
        assert rec.est_eye_mm.view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_face_tracker_cost_accumulation():
    # Each request is billed its resolution tier's face cost, and the run's
    # tracking total accumulates them.
    res = run(face_config(1000, noise_jitter_sigma_mm=0.0, cost_resolution="320x240"))
    assert np.array_equal(res.records["UPR"].tracking_charge_ms, np.full(1000, 14.080))
    assert res.summaries["UPR"].total_tracking_ms == pytest.approx(14080.0, abs=1e-6)


def test_face_tracker_jitter_statistical():
    rec, eye = face_run(10_000, noise_jitter_sigma_mm=5.0, seed=11)
    offsets = rec.est_eye_mm - eye
    assert np.all(np.abs(offsets.std(axis=0) - 5.0) / 5.0 < 0.05)


@pytest.mark.parametrize("n", [0, 1, 7, 500])
@pytest.mark.parametrize("sigma", [0.0, 1e-3, 5.0, 40.0])
def test_face_tracker_offsets_bit_equal_sequential_draws(n, sigma):
    # With one frame of latency, frame k + 1 renders request k's result:
    # the true eye plus the k-th of n sequential size-3 draws on UPR's
    # stream (seed 1, mode index 1); frame 0 renders the calibration eye.
    rec, eye = face_run(n + 1, noise_jitter_sigma_mm=sigma, noise_latency_frames=1)
    ref = np.random.default_rng([1, 1, 1])
    sequential = [eye + ref.normal(0.0, sigma, size=3) for _ in range(n)]
    assert np.array_equal(rec.est_eye_mm, np.vstack([[0.0, 0.0, 150.0], *sequential]))


# ---- cost model --------------------------------------------------------

def test_cost_model_defaults_ordered():
    cm = ExperimentConfig().cost_model()
    assert cm.face_cost("640x480") > cm.face_cost("320x240")
    with pytest.raises(ValueError):
        cm.face_cost("1280x720")


def test_cost_model_rejects_negative():
    with pytest.raises(ValueError):
        CostModel({"640x480": 30.094}, flow_ms=-1.0)
    for bad in (-1.0, np.inf):
        with pytest.raises(ValueError, match="^face_track_ms: must be "):
            CostModel({"320x240": 14.08, "640x480": bad}, flow_ms=0.5)
