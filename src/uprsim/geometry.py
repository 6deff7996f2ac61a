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

World frame: the scene plane's frame. The plane is world z = 0, normal +z,
and plane coordinates (u, v) are world x and y.

Units: all lengths in millimeters, all image coordinates in pixels.
No implicit unit conversion anywhere.

Every module's value objects, and harness's ExperimentConfig, declare each
field's bound on the field (within, positive, nonnegative), and their error
and ranges on the class line; Value checks them (check_fields), and every
float is finite. Vectors must be finite too. Each subclasses Value, the one
base, frozen: dataclass reads their fields, and their methods are Value's,
written once, so importing uprsim generates none. A run's values are its
config's: no field or camera factory parameter has a default but
ExperimentConfig's and tracksim.TraceSpec's, which are the config's.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, field
from functools import partial
from inspect import Parameter, Signature

import numpy as np

# Tolerance for parallelism / degeneracy tests; well below any physically
# meaningful angle at mm scale.
PARALLEL_TOL = 1e-12

_ORTHO_TOL = 1e-9


class GeometryError(ValueError):
    """Invalid or degenerate geometric input."""


def within(domain: str, ok, default=MISSING):
    """A dataclass field whose value must pass ok; domain words the bound."""
    return field(default=default, metadata={"domain": (domain, ok)})


positive = partial(within, "positive", lambda v: v > 0)
nonnegative = partial(within, "nonnegative", lambda v: v >= 0)


def check_fields(obj, error=ValueError, *ranges) -> None:
    """Raise error naming the first field of the dataclass obj that is outside
    its declared domain; every float field (annotated float or "float") must
    also be finite, and every float and int field but a seed (a stream's key,
    not a quantity) within each of ranges, (domain, ok) pairs."""
    for f in type(obj).__dataclass_fields__.values():
        value, real = getattr(obj, f.name), f.type in ("float", float)
        quantity = (real or f.type in ("int", int)) and f.name != "seed"
        domains = [("finite", math.isfinite)] * real + list(ranges) * quantity
        for domain, ok in domains + list(f.metadata.values()):
            if not ok(value):
                raise error(f"{f.name}: must be {domain}, got {value!r}")


class _FieldSignature:
    """Value.__signature__, for inspect.signature and help: the one the
    __init__ that dataclass generates shows, built from the fields when read."""

    def __get__(self, obj, cls) -> Signature:
        return Signature([Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                                    default=Parameter.empty if f.default is MISSING else f.default)
                          for f in cls.__dataclass_fields__.values()], return_annotation=None)


class Value:
    """Base of the value objects: a subclass is a frozen dataclass for its
    fields alone, and takes these methods, written once instead of generated
    per class; its class line may name check_fields' error and ranges. A
    Value equals one of its class with equal fields, and is hashed by them;
    __post_init__ checks the rest and sets fields with object.__setattr__."""

    __signature__ = _FieldSignature()

    def __init_subclass__(cls, error=ValueError, ranges=()):
        dataclass(init=False, repr=False, eq=False)(cls)
        cls._checks = (error, *ranges)

    def __init__(self, *args, **kwargs):
        """Bind args in field order, then kwargs; fill plain defaults; check; run __post_init__."""
        fs, name = self.__dataclass_fields__, f"{type(self).__qualname__}.__init__()"
        if len(args) > len(fs):
            raise TypeError(f"{name} takes {len(fs) + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        given = dict(zip(fs, args))
        for key in kwargs:
            if key in given or key not in fs:
                how = "multiple values for" if key in given else "an unexpected keyword"
                raise TypeError(f"{name} got {how} argument {key!r}")
        given.update(kwargs)
        for key, f in fs.items():
            if key not in given:
                if f.default is MISSING:
                    raise TypeError(f"{name} missing required argument: {key!r}")
                given[key] = f.default
            # Not through self.__dict__: that gives up CPython's inline attribute
            # values, and slowed a run's attribute reads by ~30%.
            object.__setattr__(self, key, given[key])
        check_fields(self, *self._checks)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self) -> str:
        pairs = zip(self.__dataclass_fields__, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"

    def _values(self) -> tuple:
        return tuple([getattr(self, key) for key in self.__dataclass_fields__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, key, value):
        raise FrozenInstanceError(f"cannot assign to field {key!r}")

    def __delattr__(self, key):
        raise FrozenInstanceError(f"cannot delete field {key!r}")


def _as_vec3(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3)
    if not np.isfinite(a).all():
        raise GeometryError(f"{name}: must be finite, got {a!r}")
    a.flags.writeable = False
    return a


class RigidTransform(Value):
    """A 6-DOF rigid transform: p_out = rotation @ p_in + translation.

    Rotations are stored as orthonormal matrices so that invert stays
    exact: a rotation whose r @ r.T is off the identity by more than 1e-9
    in any entry is rejected, not repaired.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = _as_vec3(self.translation, "translation")
        err = np.abs(r @ r.T - np.eye(3)).max()
        if not err <= _ORTHO_TOL:  # NaN fails every comparison
            raise GeometryError(f"rotation is not orthonormal (error {err:.3g})")
        if np.linalg.det(r) < 0:
            raise GeometryError("rotation has negative determinant (reflection)")
        r.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def apply(self, points) -> np.ndarray:
        """Apply to (..., 3) points: coordinate i of the result is
        r[i][0]*x + r[i][1]*y + r[i][2]*z + t[i], summed left to right.

        Written out, not as a matmul, because numpy's elementwise float64
        operations round once each and never fuse: the same expression on
        Python floats (a flow stream's reanchor) gives the same bits."""
        p = np.asarray(points, dtype=float)
        if p.shape[-1:] != (3,):
            raise ValueError(f"points must have a last axis of 3, got shape {p.shape}")
        r = self.rotation
        return (p[..., :1] * r[:, 0] + p[..., 1:2] * r[:, 1] + p[..., 2:] * r[:, 2]
                + self.translation)

    def invert(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)


class DisplayModel(Value, error=GeometryError):
    """Physical display panel: metric size, pixel resolution, world pose.

    pose_world maps display-frame coordinates into the world frame.
    """

    width_mm: float = positive()
    height_mm: float = positive()
    width_px: int = positive()
    height_px: int = positive()
    pose_world: RigidTransform

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


class PinholeCamera(Value, error=GeometryError):
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
    extrinsic: RigidTransform

    def contains(self, px) -> np.ndarray:
        """Whether each (..., 2) pixel lies in the image, edges included;
        NaN pixels do not."""
        p = np.asarray(px, dtype=float)
        return ((0.0 <= p) & (p <= (self.width_px, self.height_px))).all(axis=-1)


def front_camera(fx: float, fy: float, width_px: int, height_px: int) -> PinholeCamera:
    """Front camera at the display center looking toward the user.

    Camera z is the display +z axis; the 180-degree turn about z keeps the
    frame right-handed with image y pointing down.
    """
    r = np.diag([-1.0, -1.0, 1.0])
    return PinholeCamera(fx=fx, fy=fy, cx=width_px / 2.0, cy=height_px / 2.0,
                         width_px=width_px, height_px=height_px,
                         extrinsic=RigidTransform(r, np.zeros(3)))


def back_camera(offset_mm, fx: float, fy: float, width_px: int, height_px: int) -> PinholeCamera:
    """Back camera looking away from the user (camera z = display -z).

    offset_mm is the optical center in the display frame; the simulator's
    places it in a corner on the back of the device.
    """
    r = np.diag([1.0, -1.0, -1.0])  # 180-degree turn about display x
    c = _as_vec3(offset_mm, "offset_mm")
    return PinholeCamera(fx=fx, fy=fy, cx=width_px / 2.0, cy=height_px / 2.0,
                         width_px=width_px, height_px=height_px,
                         extrinsic=RigidTransform(r, -r @ c))


class EyeState(Value, error=GeometryError):
    """The cyclopean eye in the display frame and the interpupillary
    distance; tracksim.eye_points splits it into the two eyes."""

    cyclopean_mm: np.ndarray
    ipd_mm: float = nonnegative()

    def __post_init__(self):
        c = _as_vec3(self.cyclopean_mm, "cyclopean_mm")
        object.__setattr__(self, "cyclopean_mm", c)
        if c[2] <= 0:
            raise GeometryError("eye must be in front of the panel (z > 0)")

    @classmethod
    def from_cyclopean(cls, cyclopean_mm, ipd_mm: float) -> "EyeState":
        """EyeState(cyclopean_mm, ipd_mm), by name."""
        return cls(cyclopean_mm, ipd_mm)


class ScenePlane(Value, error=GeometryError):
    """Bounded planar scene surface (e.g. an installed interaction screen).

    The plane is the world z = 0 plane with normal +z, so its 2D frame is
    world x and y: a plane point (u, v) is the world point (u, v, 0).
    bounds_mm is the full (width, height) extent centered on the origin.
    """

    bounds_mm: tuple[float, float] = within("positive and finite",
                                            lambda b: all(0 < x < math.inf for x in b))

    def from_plane_2d(self, uv) -> np.ndarray:
        uv = np.asarray(uv, dtype=float)
        return np.concatenate([uv, np.zeros_like(uv[..., :1])], axis=-1)

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


def intersect_ray_plane(origins, directions) -> tuple[np.ndarray, np.ndarray]:
    """Forward hits of the rays origin + t * direction, t >= 0, with the
    scene plane, world z = 0. Origins and directions (..., 3), which need not
    be unit norm, broadcast. Returns the (..., 3) hit points and the (...) hit
    mask, False where a ray is parallel to the plane, the hit lies behind its
    origin, or an input is NaN or infinite; the points there are NaN."""
    origins = np.asarray(origins, dtype=float)
    d = np.asarray(directions, dtype=float)
    with np.errstate(all="ignore"):
        d = d / np.linalg.norm(d, axis=-1, keepdims=True)
        denom = d[..., 2]
        t = (0.0 - origins[..., 2]) / denom
        hit = (np.abs(denom) >= PARALLEL_TOL) & (t >= 0) & np.isfinite(origins).all(axis=-1)
        points = origins + t[..., None] * d
    return np.where(hit[..., None], points, np.nan), hit
