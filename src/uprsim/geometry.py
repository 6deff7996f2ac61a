"""Rigid transforms, pinhole cameras, the physical display model, eyes, and
batch ray/plane intersection for head-coupled rendering on a handheld display.

COORDINATE CONVENTIONS
======================
Display frame (attached to the handheld panel):
  - Origin: panel center.
  - x: to the user's right, y: up, z: out of the screen toward the user.
  - The panel surface is the z = 0 plane.

Camera frame (standard computer vision):
  - Origin: optical center; x right, y down, z forward along the optical axis.

Display pixel coordinates:
  - (0, 0) is the top-left corner of the panel, u right, v down.

Units: all lengths in millimeters, all image coordinates in pixels.
No implicit unit conversion anywhere.

Every module's value objects, and harness's ExperimentConfig, declare each
field's bound on the field (within, positive, nonnegative) and call
check_fields in __post_init__, which also requires every float to be finite.
Vectors must be finite too.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

import numpy as np

# Tolerance for parallelism / degeneracy tests; well below any physically
# meaningful angle at mm scale.
PARALLEL_TOL = 1e-12

_ORTHO_TOL = 1e-9
_ORTHO_REJECT = 1e-6


class GeometryError(ValueError):
    """Invalid or degenerate geometric input."""


def within(domain: str, ok, default=MISSING):
    """A dataclass field whose value must pass ok; domain words the bound."""
    return field(default=default, metadata={"domain": (domain, ok)})


positive = partial(within, "positive", lambda v: v > 0)
nonnegative = partial(within, "nonnegative", lambda v: v >= 0)


def check_fields(obj, error=ValueError, *ranges) -> None:
    """Raise error naming the first field of the dataclass obj that is outside
    its declared domain; every float field must also be finite, and every
    float and int field but a seed (a stream's key, not a quantity) within
    each of ranges, (domain, ok) pairs."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        quantity = f.type in ("float", "int") and f.name != "seed"
        domains = [("finite", math.isfinite)] * (f.type == "float") + list(ranges) * quantity
        for domain, ok in domains + list(f.metadata.values()):
            if not ok(value):
                raise error(f"{f.name}: must be {domain}, got {value!r}")


def _as_vec3(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3)
    if not np.isfinite(a).all():
        raise GeometryError(f"{name}: must be finite, got {a!r}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RigidTransform:
    """A 6-DOF rigid transform: p_out = rotation @ p_in + translation.

    Rotations are stored as orthonormal matrices so that invert stays
    exact; slight numeric drift (below 1e-6) is re-orthonormalized on
    construction, anything larger is rejected.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = _as_vec3(self.translation, "translation")
        err = np.abs(r @ r.T - np.eye(3)).max()
        if not err <= _ORTHO_REJECT:  # NaN fails every comparison
            raise GeometryError(f"rotation is not orthonormal (error {err:.3g})")
        if err > _ORTHO_TOL:
            u, _, vt = np.linalg.svd(r)
            r = u @ vt
        if np.linalg.det(r) < 0:
            raise GeometryError("rotation has negative determinant (reflection)")
        r.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        """Apply to (..., 3) points: coordinate i of the result is
        r[i][0]*x + r[i][1]*y + r[i][2]*z + t[i], summed left to right.

        Written out, not as a matmul, because numpy's elementwise float64
        operations round once each and never fuse: the same expression on
        Python floats (FlowSimulator.project_frame) gives the same bits."""
        p = np.asarray(points, dtype=float)
        if p.shape[-1:] != (3,):
            raise ValueError(f"points must have a last axis of 3, got shape {p.shape}")
        r = self.rotation
        return (p[..., :1] * r[:, 0] + p[..., 1:2] * r[:, 1] + p[..., 2:] * r[:, 2]
                + self.translation)

    def invert(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    @classmethod
    def from_quaternion(cls, q, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
        r = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        return cls(r, translation)


@dataclass(frozen=True)
class DisplayModel:
    """Physical display panel: metric size, pixel resolution, world pose.

    pose_world maps display-frame coordinates into the world frame.
    """

    width_mm: float = positive()
    height_mm: float = positive()
    width_px: int = positive()
    height_px: int = positive()
    pose_world: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self):
        check_fields(self, GeometryError)

    def px_to_mm(self, px) -> np.ndarray:
        """Display pixel (u right, v down, origin top-left) to a 3D point on
        the panel surface, in the display frame (z = 0)."""
        p = np.asarray(px, dtype=float)
        u, v = p[..., 0], p[..., 1]
        x = (u / self.width_px - 0.5) * self.width_mm
        y = (0.5 - v / self.height_px) * self.height_mm
        return np.stack([x, y, np.zeros_like(x)], axis=-1)

    def mm_to_px(self, point_mm) -> np.ndarray:
        """Inverse of px_to_mm; the z coordinate of the input is ignored."""
        p = np.asarray(point_mm, dtype=float)
        u = (p[..., 0] / self.width_mm + 0.5) * self.width_px
        v = (0.5 - p[..., 1] / self.height_mm) * self.height_px
        return np.stack([u, v], axis=-1)

    def corners_px(self) -> np.ndarray:
        """The four panel corners in pixels, ordered (+x,+y), (-x,+y),
        (-x,-y), (+x,-y) in the display frame."""
        w, h = self.width_mm / 2.0, self.height_mm / 2.0
        return self.mm_to_px(np.array([[w, h], [-w, h], [-w, -h], [w, -h]]))


@dataclass(frozen=True)
class PinholeCamera:
    """Intrinsic + extrinsic pinhole model.

    extrinsic maps display-frame points into this camera's frame. The front
    camera faces the user; the back camera models the offset camera mounted
    in a corner on the back of the device.
    """

    fx: float = positive()
    fy: float = positive()
    cx: float
    cy: float
    width_px: int = positive()
    height_px: int = positive()
    extrinsic: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self):
        check_fields(self, GeometryError)

    def diagonal_px(self) -> float:
        return float(np.hypot(self.width_px, self.height_px))

    def contains(self, px) -> np.ndarray:
        """Whether each (..., 2) pixel lies in the image, edges included;
        NaN pixels do not."""
        p = np.asarray(px, dtype=float)
        return ((0.0 <= p) & (p <= (self.width_px, self.height_px))).all(axis=-1)


def front_camera(fx: float = 300.0, fy: float = 300.0,
                 width_px: int = 640, height_px: int = 480) -> PinholeCamera:
    """Front camera at the display center looking toward the user.

    Camera z is the display +z axis; the 180-degree turn about z keeps the
    frame right-handed with image y pointing down.
    """
    r = np.diag([-1.0, -1.0, 1.0])
    return PinholeCamera(fx=fx, fy=fy, cx=width_px / 2.0, cy=height_px / 2.0,
                         width_px=width_px, height_px=height_px,
                         extrinsic=RigidTransform(r, np.zeros(3)))


def back_camera(offset_mm=(45.0, -25.0, -8.0), fx: float = 400.0, fy: float = 400.0,
                width_px: int = 640, height_px: int = 480) -> PinholeCamera:
    """Back camera looking away from the user (camera z = display -z).

    offset_mm is the optical center in the display frame; the default places
    it in a corner on the back of the device.
    """
    r = np.diag([1.0, -1.0, -1.0])  # 180-degree turn about display x
    c = _as_vec3(offset_mm, "offset_mm")
    return PinholeCamera(fx=fx, fy=fy, cx=width_px / 2.0, cy=height_px / 2.0,
                         width_px=width_px, height_px=height_px,
                         extrinsic=RigidTransform(r, -r @ c))


@dataclass(frozen=True)
class EyeState:
    """Eye positions in the display frame: both eyes plus their midpoint."""

    cyclopean_mm: np.ndarray
    left_mm: np.ndarray
    right_mm: np.ndarray
    ipd_mm: float = nonnegative()

    def __post_init__(self):
        check_fields(self, GeometryError)
        c = _as_vec3(self.cyclopean_mm, "cyclopean_mm")
        l = _as_vec3(self.left_mm, "left_mm")
        r = _as_vec3(self.right_mm, "right_mm")
        object.__setattr__(self, "cyclopean_mm", c)
        object.__setattr__(self, "left_mm", l)
        object.__setattr__(self, "right_mm", r)
        if abs(np.linalg.norm(l - r) - self.ipd_mm) > 1e-6:
            raise GeometryError("eye separation does not match ipd_mm")
        if np.abs((l + r) / 2.0 - c).max() > 1e-6:
            raise GeometryError("cyclopean_mm is not the midpoint of the eyes")
        if c[2] <= 0:
            raise GeometryError("eye must be in front of the panel (z > 0)")

    @classmethod
    def from_cyclopean(cls, cyclopean_mm, ipd_mm: float = 63.0) -> "EyeState":
        """Eyes split symmetrically along the display x-axis."""
        c = _as_vec3(cyclopean_mm, "cyclopean_mm")
        half = np.array([ipd_mm / 2.0, 0.0, 0.0])
        return cls(c, c - half, c + half, ipd_mm)


@dataclass(frozen=True)
class ScenePlane:
    """Bounded planar scene surface (e.g. an installed interaction screen).

    The plane's own 2D frame has its origin at point_world with orthonormal
    in-plane axes derived deterministically from the normal (for a normal of
    +z the axes coincide with world x and y). bounds_mm is the full
    (width, height) extent centered on the origin.
    """

    point_world: np.ndarray
    normal_world: np.ndarray
    bounds_mm: tuple[float, float] = within("positive and finite",
                                            lambda b: all(0 < x < math.inf for x in b))

    def __post_init__(self):
        check_fields(self, GeometryError)
        p = _as_vec3(self.point_world, "point_world")
        n = _as_vec3(self.normal_world, "normal_world")
        if abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise GeometryError("normal_world must have unit norm")
        object.__setattr__(self, "point_world", p)
        object.__setattr__(self, "normal_world", n)
        up = np.array([0.0, 1.0, 0.0])
        if abs(n @ up) > 1.0 - 1e-9:
            up = np.array([0.0, 0.0, 1.0])
        u = np.cross(up, n)
        u = u / np.linalg.norm(u)
        v = np.cross(n, u)
        u.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "u_axis", u)
        object.__setattr__(self, "v_axis", v)

    def to_plane_2d(self, point_world) -> np.ndarray:
        d = np.asarray(point_world, dtype=float) - self.point_world
        return np.stack([d @ self.u_axis, d @ self.v_axis], axis=-1)

    def from_plane_2d(self, uv) -> np.ndarray:
        uv = np.asarray(uv, dtype=float)
        return (self.point_world
                + np.multiply.outer(uv[..., 0], self.u_axis)
                + np.multiply.outer(uv[..., 1], self.v_axis))

    def contains_2d(self, uv) -> bool:
        u, v = np.asarray(uv, dtype=float)
        return abs(u) <= self.bounds_mm[0] / 2.0 and abs(v) <= self.bounds_mm[1] / 2.0


def project_pinhole(cam: PinholeCamera, point_cam) -> np.ndarray:
    """Project camera-frame points, (..., 3), to pixel coordinates, (..., 2).

    The result may lie outside the image bounds; callers check visibility.
    A point at or behind the camera plane (z <= 0) projects as NaN: the
    whole point is replaced first, so no sign of a NaN already in it, and no
    division by zero, reaches the pixel.
    """
    p = np.asarray(point_cam, dtype=float)
    p = np.where(p[..., 2:] > 0, p, np.nan)
    return p[..., :2] * (cam.fx, cam.fy) / p[..., 2:] + (cam.cx, cam.cy)


def intersect_ray_plane(origins, directions, plane: ScenePlane) -> tuple[np.ndarray, np.ndarray]:
    """Forward hits of the rays origin + t * direction, t >= 0, with the
    plane. Origins (..., 3) and directions (..., 3), which need not be unit
    norm, broadcast. Returns the (..., 3) hit points and the (...) hit mask,
    False where a ray is parallel to the plane, the hit lies behind its
    origin, or an input is NaN; the points there are NaN."""
    origins = np.asarray(origins, dtype=float)
    d = np.asarray(directions, dtype=float)
    with np.errstate(all="ignore"):
        d = d / np.linalg.norm(d, axis=-1, keepdims=True)
        denom = d @ plane.normal_world
        t = ((plane.point_world - origins) @ plane.normal_world) / denom
        hit = (np.abs(denom) >= PARALLEL_TOL) & (t >= 0)
        points = origins + t[..., None] * d
    return np.where(hit[..., None], points, np.nan), hit
