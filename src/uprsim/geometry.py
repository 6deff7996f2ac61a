"""Rigid transforms, pinhole cameras, the physical display model, and the
off-axis projection used for head-coupled rendering on a handheld display.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Tolerance for parallelism / degeneracy tests; well below any physically
# meaningful angle at mm scale.
PARALLEL_TOL = 1e-12

_ORTHO_TOL = 1e-9
_ORTHO_REJECT = 1e-6


class GeometryError(ValueError):
    """Invalid or degenerate geometric input."""


class DegenerateViewError(GeometryError):
    """Viewpoint or configuration cannot produce a valid projection."""


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RigidTransform:
    """A 6-DOF rigid transform: p_out = rotation @ p_in + translation.

    Rotations are stored as orthonormal matrices so that compose/invert stay
    exact; slight numeric drift (below 1e-6) is re-orthonormalized on
    construction, anything larger is rejected.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = _as_vec3(self.translation)
        err = np.abs(r @ r.T - np.eye(3)).max()
        if err > _ORTHO_REJECT:
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

    @classmethod
    def from_rotation_z(cls, angle_rad: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        c, s = np.cos(angle_rad), np.sin(angle_rad)
        return cls(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]), translation)

    @classmethod
    def from_rotation_x(cls, angle_rad: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        c, s = np.cos(angle_rad), np.sin(angle_rad)
        return cls(np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]), translation)

    @classmethod
    def from_rotation_y(cls, angle_rad: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        c, s = np.cos(angle_rad), np.sin(angle_rad)
        return cls(np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]), translation)

    def apply(self, points) -> np.ndarray:
        """Apply to a 3-vector or an (N, 3) array of points."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def apply_direction(self, direction) -> np.ndarray:
        """Rotate a direction vector (no translation)."""
        return np.asarray(direction, dtype=float) @ self.rotation.T

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


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform applying b first, then a."""
    return RigidTransform(a.rotation @ b.rotation,
                          a.rotation @ b.translation + a.translation)


@dataclass(frozen=True)
class DisplayModel:
    """Physical display panel: metric size, pixel resolution, world pose.

    pose_world maps display-frame coordinates into the world frame.
    """

    width_mm: float
    height_mm: float
    width_px: int
    height_px: int
    pose_world: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self):
        for name in ("width_mm", "height_mm", "width_px", "height_px"):
            if getattr(self, name) <= 0:
                raise GeometryError(f"DisplayModel.{name} must be strictly positive")

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

    def corners_mm(self) -> np.ndarray:
        """The four panel corners in the display frame (z = 0), ordered
        (+x,+y), (-x,+y), (-x,-y), (+x,-y)."""
        w, h = self.width_mm / 2.0, self.height_mm / 2.0
        return np.array([[w, h, 0.0], [-w, h, 0.0], [-w, -h, 0.0], [w, -h, 0.0]])

    def corners_px(self) -> np.ndarray:
        return self.mm_to_px(self.corners_mm())


@dataclass(frozen=True)
class PinholeCamera:
    """Intrinsic + extrinsic pinhole model.

    extrinsic maps display-frame points into this camera's frame. The front
    camera faces the user; the back camera models the offset camera mounted
    in a corner on the back of the device.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width_px: int
    height_px: int
    extrinsic: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError("focal lengths must be strictly positive")
        if self.width_px <= 0 or self.height_px <= 0:
            raise GeometryError("image size must be strictly positive")

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
    c = _as_vec3(offset_mm)
    return PinholeCamera(fx=fx, fy=fy, cx=width_px / 2.0, cy=height_px / 2.0,
                         width_px=width_px, height_px=height_px,
                         extrinsic=RigidTransform(r, -r @ c))


@dataclass(frozen=True)
class EyeState:
    """Eye positions in the display frame: both eyes plus their midpoint."""

    cyclopean_mm: np.ndarray
    left_mm: np.ndarray
    right_mm: np.ndarray
    ipd_mm: float

    def __post_init__(self):
        c = _as_vec3(self.cyclopean_mm)
        l = _as_vec3(self.left_mm)
        r = _as_vec3(self.right_mm)
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
        c = _as_vec3(cyclopean_mm)
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
    bounds_mm: tuple[float, float]

    def __post_init__(self):
        p = _as_vec3(self.point_world)
        n = _as_vec3(self.normal_world)
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


@dataclass(frozen=True)
class Ray:
    """origin + t * direction, t >= 0; direction is unit norm."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        o = _as_vec3(self.origin)
        d = np.asarray(self.direction, dtype=float).reshape(3)
        n = np.linalg.norm(d)
        if n == 0:
            raise GeometryError("ray direction must be nonzero")
        d = d / n
        d.flags.writeable = False
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d)

    def at(self, t: float) -> np.ndarray:
        return self.origin + t * self.direction


def project_pinhole(cam: PinholeCamera, point_cam) -> np.ndarray:
    """Project a camera-frame point to pixel coordinates.

    The result may lie outside the image bounds; callers check visibility.
    Raises for points at or behind the camera plane.
    """
    p = np.asarray(point_cam, dtype=float)
    z = p[..., 2:]
    if (z <= 0).any():
        raise GeometryError("point is behind the camera (z <= 0)")
    return p[..., :2] * (cam.fx, cam.fy) / z + (cam.cx, cam.cy)


def unproject_ray(cam: PinholeCamera, px) -> Ray:
    """Camera-frame ray through a pixel. Any pixel, in bounds or not."""
    u, v = np.asarray(px, dtype=float)
    d = np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0])
    return Ray(np.zeros(3), d)


def intersect_ray_plane(ray: Ray, plane: ScenePlane) -> np.ndarray | None:
    """Forward intersection of a ray with the plane; None when the ray is
    parallel to the plane or the hit lies behind the origin."""
    denom = float(ray.direction @ plane.normal_world)
    if abs(denom) < PARALLEL_TOL:
        return None
    t = float((plane.point_world - ray.origin) @ plane.normal_world) / denom
    if t < 0:
        return None
    return ray.at(t)


def offaxis_frustum(eye_mm, display: DisplayModel, near_mm: float, far_mm: float) -> np.ndarray:
    """Off-axis projection-view matrix for an eye in the display frame.

    The returned 4x4 maps display-frame points to clip space such that the
    four physical panel corners land on the corners of the projection window:
    corner (+w/2, +h/2, 0) maps to normalized (+1, +1) after the perspective
    divide, and any point on the ray from the eye through a panel point
    projects to that panel point's normalized coordinates.
    """
    e = _as_vec3(eye_mm)
    if e[2] <= 0:
        raise DegenerateViewError("eye must have positive z in the display frame")
    if not (0 < near_mm < far_mm):
        raise GeometryError("require 0 < near_mm < far_mm")
    w, h = display.width_mm / 2.0, display.height_mm / 2.0
    # Frustum extents on the near plane, scaled back from the panel at
    # distance e_z to the near plane at distance near_mm.
    s = near_mm / e[2]
    left, right = (-w - e[0]) * s, (w - e[0]) * s
    bottom, top = (-h - e[1]) * s, (h - e[1]) * s
    n, f = near_mm, far_mm
    proj = np.array([
        [2 * n / (right - left), 0.0, (right + left) / (right - left), 0.0],
        [0.0, 2 * n / (top - bottom), (top + bottom) / (top - bottom), 0.0],
        [0.0, 0.0, -(f + n) / (f - n), -2 * f * n / (f - n)],
        [0.0, 0.0, -1.0, 0.0],
    ])
    view = np.eye(4)
    view[:3, 3] = -e
    return proj @ view
