import os
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, field, fields, make_dataclass, replace
from inspect import signature
from pathlib import Path

import numpy as np
import pytest
import raycast
from hypothesis import example, given, settings
from hypothesis import strategies as st
from rotations import from_quaternion, plane_frame, rotation_x, rotation_y, rotation_z

from uprsim.geometry import (
    DisplayModel,
    EyeState,
    GeometryError,
    PinholeCamera,
    RigidTransform,
    ScenePlane,
    Value,
    back_camera,
    check_fields,
    front_camera,
    intersect_ray_plane,
    project_pinhole,
)
from uprsim.harness import ExperimentConfig
from uprsim.tracksim import (
    FlowSimulator,
    Generator,
    HeadTrace,
    TraceSpec,
    eye_points,
)


IDENTITY = RigidTransform(np.eye(3), np.zeros(3))


def random_transform(rng) -> RigidTransform:
    q = rng.normal(size=4)
    return from_quaternion(q, rng.normal(scale=100.0, size=3))


# ---- RigidTransform ----------------------------------------------------

def test_compose_inverse_is_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = random_transform(rng)
        p = rng.normal(scale=100.0, size=(5, 3))
        assert np.abs(t.invert().rotation @ t.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(t.invert().apply(t.apply(p)) - p).max() < 1e-9


@pytest.mark.parametrize("shape", [(5, 2), (5, 4), (2,), (4,), ()])
def test_apply_rejects_a_last_axis_other_than_3(shape):
    with pytest.raises(ValueError, match="last axis of 3"):
        IDENTITY.apply(np.zeros(shape))


def test_rotation_stays_orthonormal():
    # A stored rotation is orthonormal to 1e-9: drift of about 1e-7 per
    # entry is rejected, not repaired, while the quaternion fixtures the
    # tests build pass.
    rng = np.random.default_rng(2)
    for _ in range(20):
        r = random_transform(rng).rotation
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-9
        drifted = r + rng.uniform(-1e-7, 1e-7, size=(3, 3))
        assert np.abs(drifted @ drifted.T - np.eye(3)).max() > 1e-9
        with pytest.raises(GeometryError, match="not orthonormal"):
            RigidTransform(drifted, np.zeros(3))


def test_rejects_non_rotation():
    with pytest.raises(GeometryError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(GeometryError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    with pytest.raises(GeometryError, match="not orthonormal"):
        RigidTransform(np.full((3, 3), np.nan), np.zeros(3))


def test_from_quaternion_matches_axis_rotations():
    h = np.sqrt(0.5)  # cos and sin of 45 degrees: a 90-degree turn
    for q, axis in [((h, h, 0.0, 0.0), rotation_x),
                    ((h, 0.0, h, 0.0), rotation_y),
                    ((h, 0.0, 0.0, h), rotation_z)]:
        expected = axis(np.pi / 2, (1.0, -2.0, 3.0))
        t = from_quaternion(q, (1.0, -2.0, 3.0))
        assert np.allclose(t.rotation, expected.rotation, rtol=0, atol=1e-12)
        assert np.array_equal(t.translation, expected.translation)


# ---- Display model -----------------------------------------------------

def test_display_px_mm_round_trip():
    d = DisplayModel(109.0, 61.0, 1080, 608, IDENTITY)
    px = np.array([123.0, 456.0])
    assert np.allclose(d.mm_to_px(d.px_to_mm(px)), px, atol=1e-9)
    # Convention: top-left pixel is (-w/2, +h/2) physically.
    assert np.allclose(d.px_to_mm([0.0, 0.0]), [-54.5, 30.5, 0.0])
    assert np.allclose(d.px_to_mm([1080.0, 608.0]), [54.5, -30.5, 0.0])


def test_display_rejects_nonpositive():
    with pytest.raises(GeometryError):
        DisplayModel(0.0, 61.0, 1080, 608, IDENTITY)
    with pytest.raises(GeometryError):
        DisplayModel(109.0, 61.0, 1080, -1, IDENTITY)


# ---- EyeState ----------------------------------------------------------

def test_eye_state_split():
    # An EyeState holds the cyclopean eye and the ipd; eye_points splits them.
    e = EyeState.from_cyclopean([0.0, 0.0, 150.0], ipd_mm=63.0)
    assert [f.name for f in fields(e)] == ["cyclopean_mm", "ipd_mm"]
    assert np.array_equal(e.cyclopean_mm, [0.0, 0.0, 150.0]) and e.ipd_mm == 63.0
    with pytest.raises(TypeError, match="missing required argument: 'ipd_mm'"):
        EyeState([0.0, 0.0, 150.0])
    left, right = eye_points(e.cyclopean_mm, e.ipd_mm)
    assert np.array_equal(left, [-31.5, 0.0, 150.0])
    assert np.array_equal(right, [31.5, 0.0, 150.0])
    assert np.linalg.norm(left - right) == e.ipd_mm


def test_eye_state_invariants():
    with pytest.raises(GeometryError, match="^ipd_mm: must be nonnegative"):
        EyeState([0.0, 0.0, 150.0], -1.0)
    with pytest.raises(GeometryError, match=r"in front of the panel \(z > 0\)"):
        EyeState.from_cyclopean([0.0, 0.0, -10.0], 63.0)
    with pytest.raises(GeometryError, match="^cyclopean_mm: must be finite"):
        EyeState.from_cyclopean([np.nan, 0.0, 150.0], 63.0)
    with pytest.raises(GeometryError, match="^cyclopean_mm: must be finite"):
        EyeState([-np.inf, 0.0, 150.0], 63.0)


# ---- Pinhole projection ------------------------------------------------

def cam() -> PinholeCamera:
    return PinholeCamera(fx=500.0, fy=480.0, cx=320.0, cy=240.0,
                         width_px=640, height_px=480, extrinsic=IDENTITY)


def test_principal_point():
    assert np.allclose(project_pinhole(cam(), [0.0, 0.0, 123.0]), [320.0, 240.0])


def test_unit_pixel_offset():
    c = cam()
    z = 200.0
    assert np.allclose(project_pinhole(c, [z / c.fx, 0.0, z]), [c.cx + 1.0, c.cy])


def test_point_behind_camera_rejected():
    # A point at or behind the camera plane projects as NaN, with no
    # divide-by-zero warning at z = 0; points in front are unaffected.
    c = cam()
    pts = [[0.0, 0.0, -1.0], [1.0, 2.0, 0.0], [1.0, 2.0, -0.0], [3.0, -4.0, 5.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        px = project_pinhole(c, pts)
    assert np.isnan(px[:3]).all()
    assert np.array_equal(px[3], project_pinhole(c, pts[3]))


def back_project(c: PinholeCamera, px, z: float) -> np.ndarray:
    """The camera-frame point at depth z behind a pixel, by hand."""
    u, v = px
    return z * np.array([(u - c.cx) / c.fx, (v - c.cy) / c.fy, 1.0])


def test_project_unproject_round_trip_grid():
    c = cam()
    for u in np.linspace(0.0, c.width_px, 5):
        for v in np.linspace(0.0, c.height_px, 5):
            for z in (1.0, 50.0, 1234.5):
                assert np.allclose(project_pinhole(c, back_project(c, (u, v), z)), [u, v],
                                   atol=1e-9)


def test_unproject_round_trip_random():
    c = cam()
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = rng.uniform([-200, -200, 10], [200, 200, 2000])
        assert np.allclose(back_project(c, project_pinhole(c, p), p[2]), p, atol=1e-6)


# ---- Ray / plane -------------------------------------------------------
# The scene plane is world z = 0 with normal +z; a plane elsewhere is the
# same plane seen from rays moved into its frame (rotations.plane_frame).

def test_axis_ray_perpendicular_plane():
    hit, ok = intersect_ray_plane([0.0, 0.0, 500.0], [0.0, 0.0, -1.0])
    assert ok
    assert np.allclose(hit, [0.0, 0.0, 0.0])


def test_parallel_ray_no_hit():
    assert not intersect_ray_plane([0.0, 0.0, -500.0], [1.0, 0.0, 0.0])[1]


def test_behind_origin_no_hit():
    assert not intersect_ray_plane([0.0, 0.0, 10.0], [0.0, 0.0, 1.0])[1]


def test_oblique_ray_substitution_oracle():
    # 45-degree ray onto an offset, tilted plane, moved into that plane's
    # frame; verify by substitution into the plane equation z = 0 and by
    # forwardness.
    to_plane = plane_frame([10.0, -5.0, 300.0], [0.1, 0.2, -1.0])
    origin = to_plane.apply(np.zeros(3))
    direction = np.array([1.0, 0.0, 1.0]) @ to_plane.rotation.T
    hit, ok = intersect_ray_plane(origin, direction)
    assert ok
    assert abs(hit[2]) < 1e-6
    t = (hit - origin) @ direction
    assert t > 0


def test_frame_consistency():
    # Transforming all inputs by a rigid transform that maps the plane onto
    # itself (a turn about z and an in-plane shift) transforms the output by
    # the same transform.
    rng = np.random.default_rng(11)
    for _ in range(50):
        origin, direction = rng.normal(scale=50, size=3), rng.normal(size=3)
        hit, ok = intersect_ray_plane(origin, direction)
        if not ok:
            continue
        t = rotation_z(rng.uniform(0.0, 2 * np.pi), [*rng.normal(scale=100, size=2), 0.0])
        hit_t, ok_t = intersect_ray_plane(t.apply(origin), direction @ t.rotation.T)
        assert ok_t
        assert np.abs(hit_t - t.apply(hit)).max() < 1e-6


coords = st.floats(-100.0, 100.0)
#: One ray: its origin (x, y) and height h above or below the plane, its
#: in-plane direction (a, b) and slope c with |c| >= 1e-3 (so a hit lies at
#: most ~1e5 mm away), and its kind. A "forward" ray's slope heads toward
#: the plane and a "behind" ray's away from it; a "parallel" ray has no
#: z component; a "nan_direction" ray has a NaN direction y, a "nan_origin"
#: ray a NaN origin x and an "inf_origin" ray an infinite origin z.
KINDS = ["forward", "behind", "parallel", "nan_direction", "nan_origin", "inf_origin"]
rays = st.tuples(coords, coords, st.floats(1.0, 100.0) | st.floats(-100.0, -1.0),
                 st.floats(-1.0, 1.0), st.floats(0.1, 1.0), st.floats(1e-3, 1.0),
                 st.sampled_from(KINDS))


@settings(max_examples=200)
@given(drawn=st.lists(rays, min_size=1, max_size=8))
@example(drawn=[(1.0, 2.0, h, 0.5, 0.5, 0.5, kind) for kind in KINDS for h in (5.0, -5.0)])
def test_intersect_matches_scalar_oracle(drawn):
    origins = np.array([[x, y, h] for x, y, h, *_ in drawn])
    slope = {"forward": -1.0, "behind": 1.0, "parallel": 0.0}
    directions = np.array([[a, b, slope.get(kind, -1.0) * np.sign(h) * c]
                           for _, _, h, a, b, c, kind in drawn])
    kinds = np.array([kind for *_, kind in drawn])
    directions[kinds == "nan_direction", 1] = np.nan
    origins[kinds == "nan_origin", 0] = np.nan
    origins[kinds == "inf_origin", 2] *= np.inf
    points, hit = intersect_ray_plane(origins, directions)
    assert points.shape == (len(drawn), 3) and hit.shape == (len(drawn),)
    for i in range(len(drawn)):
        if kinds[i] in ("nan_origin", "inf_origin"):
            # The oracle has no ray from a non-finite origin; the batch misses.
            with pytest.raises(GeometryError, match="^origin: must be finite"):
                raycast.Ray(origins[i], directions[i])
            ref = None
        else:
            ref = raycast.intersect_ray_plane(raycast.Ray(origins[i], directions[i]))
        assert hit[i] == (ref is not None)
        if ref is None:
            assert np.isnan(points[i]).all()
        else:
            assert np.abs(points[i] - ref).max() < 1e-6
    assert hit.tolist() == (kinds == "forward").tolist()


#: Plane coordinates, signed zeros and non-finite values among them.
PLANE_UV = st.lists(st.tuples(st.sampled_from([0.0, -0.0]) | st.floats(), st.floats()),
                    min_size=1, max_size=6)


@settings(max_examples=100)
@given(uv=PLANE_UV)
@example(uv=[(-0.0, -0.0)])
def test_plane_2d_round_trip(uv):
    # Plane coordinates are world x and y: from_plane_2d puts them on z = 0
    # bit for bit, the sign of zero included, so world[..., :2] takes them back.
    plane = ScenePlane((1000.0, 1000.0))
    uv = np.array(uv)
    bits = uv.view(np.int64).tolist()
    world = plane.from_plane_2d(uv)
    assert world.shape == (len(uv), 3)
    assert world[:, :2].view(np.int64).tolist() == bits
    assert (world[:, 2] == 0.0).all()
    # A new array, not a view of its argument.
    world[...] = 1.0
    assert uv.view(np.int64).tolist() == bits


def test_plane_rejects_nonfinite_bounds():
    # An infinite plane would contain every target.
    for bounds in [(np.inf, 100.0), (100.0, np.nan), (0.0, 100.0)]:
        with pytest.raises(GeometryError, match="^bounds_mm: must be positive and finite"):
            ScenePlane(bounds)
    assert [f.name for f in fields(ScenePlane)] == ["bounds_mm"]


#: A constructor per vector argument, by argument name, given one component.
VECTORS = {
    "translation": lambda v: RigidTransform(np.eye(3), [0.0, v, 0.0]),
    "origin": lambda v: raycast.Ray([v, 0.0, 0.0], [0.0, 0.0, 1.0]),
    "offset_mm": lambda v: back_camera((0.0, 0.0, v), 400.0, 400.0, 640, 480),
}


@pytest.mark.parametrize("name", VECTORS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_vectors_reject_nonfinite(name, bad):
    with pytest.raises(GeometryError, match=f"^{name}: must be finite"):
        VECTORS[name](bad)


#: One valid instance of every value object with float fields.
VALUE_OBJECTS = [
    DisplayModel(109.0, 61.0, 1080, 608, IDENTITY),
    cam(),
    EyeState.from_cyclopean([0.0, 0.0, 150.0], 63.0),
    ExperimentConfig().threshold_config(),
    ExperimentConfig().cost_model(),
    TraceSpec(Generator.SWAY),
    FlowSimulator(front_camera(250.0, 250.0, 640, 480), 0.0, 0.0, 0.0, np.random.default_rng(0)),
]


@pytest.mark.parametrize("obj, name", [
    (obj, f.name) for obj in VALUE_OBJECTS for f in fields(obj) if f.type == "float"],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_value_objects_reject_nonfinite(obj, name, bad):
    with pytest.raises(ValueError, match=f"^{name}: must be finite"):
        replace(obj, **{name: bad})


class Boxed(Value):
    """A test-local value object with a required field and a default."""

    width_mm: float
    scale: float = 1.0

    def __post_init__(self):
        check_fields(self)


#: One valid instance of every value object, VALUE_OBJECTS and the rest.
ALL_VALUE_OBJECTS = VALUE_OBJECTS + [
    IDENTITY,
    ScenePlane((400.0, 300.0)),
    HeadTrace([0.0, 50.0], [[0.0, 0.0, 300.0], [1.0, 0.0, 300.0]], [63.0, 63.0]),
    ExperimentConfig(),
    Boxed(2.0),
]


def dataclass_twins(frozen: bool, *objs):
    """Objects with objs' field values, of one class with their name, field
    types and defaults whose methods dataclass generates: the reference for
    the written-once methods."""
    twin = make_dataclass(type(objs[0]).__name__, [
        (f.name, f.type, field(default=f.default, default_factory=f.default_factory))
        for f in fields(objs[0])], frozen=frozen, eq=frozen)
    return [twin(**{f.name: getattr(obj, f.name) for f in fields(obj)}) for obj in objs]


def outcome(call):
    """call's result, or the type of the TypeError or ValueError it raises."""
    try:
        return call()
    except (TypeError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("obj", ALL_VALUE_OBJECTS, ids=lambda obj: type(obj).__name__)
def test_value_objects_act_as_their_dataclass_twins(obj):
    frozen = not isinstance(obj, FlowSimulator)  # mutable, and equal only to itself
    copy = replace(obj)
    twin, twin_copy = dataclass_twins(frozen, obj, copy)
    assert repr(obj) == repr(twin)
    assert signature(type(obj)) == signature(type(twin))
    assert outcome(lambda: obj == copy) == outcome(lambda: twin == twin_copy)
    assert obj.__eq__(twin) is NotImplemented
    if not frozen:
        assert obj == obj and obj != copy and hash(obj) == object.__hash__(obj)
        copy.p_fail = 0.5
        assert copy.p_fail == 0.5
        return
    twin_hash = outcome(lambda: hash(twin))
    assert outcome(lambda: hash(obj)) == twin_hash
    if twin_hash is not TypeError:  # every field is hashable
        assert copy == obj and hash(copy) == hash(obj)
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{f.name}'"):
            setattr(copy, f.name, getattr(obj, f.name))
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{f.name}'"):
            delattr(copy, f.name)
    assert repr(copy) == repr(obj)


@pytest.mark.parametrize("args, kwargs, message", [
    ((109.0, 61.0, 1080), {}, "missing .*argument: 'height_px'"),
    ((109.0, 61.0), {"width_px": 1080}, "missing .*argument: 'height_px'"),
    ((109.0, 61.0, 1080, 608), {"pose": None}, "got an unexpected keyword argument 'pose'"),
    ((109.0, 61.0, 1080, 608), {"width_mm": 1.0}, "got multiple values for argument 'width_mm'"),
    ((109.0, 61.0, 1080, 608, IDENTITY, 1), {},
     "takes .*6 positional arguments but 7 were given"),
    ((109.0, 61.0, 1080, 608), {}, "missing .*argument: 'pose_world'"),
])
def test_value_object_constructor_names_a_bad_argument(args, kwargs, message):
    # The messages of the __init__ that dataclass generates, in the parts that name.
    with pytest.raises(TypeError, match=rf"^DisplayModel\.__init__\(\) {message}$"):
        DisplayModel(*args, **kwargs)


def test_value_objects_bind_arguments_as_dataclass_does():
    """Positional then keyword arguments in field order; defaults filled."""
    a = DisplayModel(109.0, 61.0, height_px=608, pose_world=IDENTITY, width_px=1080)
    assert a == DisplayModel(109.0, 61.0, 1080, 608, IDENTITY)
    b, c = Boxed(2.0), Boxed(width_mm=2.0, scale=1.0)
    assert repr(b) == repr(c) == "Boxed(width_mm=2.0, scale=1.0)"
    assert TraceSpec(Generator.SWAY) == TraceSpec(generator=Generator.SWAY, seed=1)


def test_a_default_factory_is_no_default():
    # Record fills plain defaults only; a run's values have one source, the config.
    class Tagged(Value):
        tags: list = field(default_factory=list)

    with pytest.raises(TypeError, match=r"Tagged\.__init__\(\) missing required argument: 'tags'$"):
        Tagged()


def test_importing_uprsim_generates_no_dataclass_methods():
    """The value objects share geometry.Record's methods, so importing the
    CLI has dataclass write and compile none; a frozen dataclass declared
    after it gets six, which shows the count is live."""
    code = ("import dataclasses\n"
            "calls = []\n"
            "create = dataclasses._create_fn\n"
            "dataclasses._create_fn = lambda *a, **k: calls.append(a[0]) or create(*a, **k)\n"
            "import uprsim.cli\n"
            "print(len(calls))\n"
            "dataclasses.dataclass(frozen=True)(type('P', (), {'__annotations__': {'x': int}}))\n"
            "print(len(calls))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "6"]


# ---- Camera factories --------------------------------------------------

def test_front_camera_sees_user():
    c = front_camera(300.0, 300.0, 640, 480)
    eye = np.array([0.0, 0.0, 200.0])
    assert np.allclose(project_pinhole(c, c.extrinsic.apply(eye)), [320.0, 240.0])


def test_back_camera_sees_scene():
    c = back_camera((0.0, 0.0, 0.0), 400.0, 400.0, 640, 480)
    # A point behind the device (display -z) is in front of the back camera.
    p = c.extrinsic.apply([0.0, 0.0, -300.0])
    assert p[2] > 0
    assert np.allclose(project_pinhole(c, p), [320.0, 240.0])
