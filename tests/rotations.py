"""Rigid transforms about one display axis or from a quaternion, for tilted
test fixtures, the move into a tilted scene plane's frame, and the
axis-aligned rotations."""

import itertools

import numpy as np

from uprsim.geometry import RigidTransform


def rotation_x(angle_rad: float, translation=(0.0, 0.0, 0.0)) -> RigidTransform:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return RigidTransform(np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]), translation)


def rotation_y(angle_rad: float, translation=(0.0, 0.0, 0.0)) -> RigidTransform:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return RigidTransform(np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]), translation)


def rotation_z(angle_rad: float, translation=(0.0, 0.0, 0.0)) -> RigidTransform:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return RigidTransform(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]), translation)


def from_quaternion(q, translation=(0.0, 0.0, 0.0)) -> RigidTransform:
    """The rotation of the quaternion q = (w, x, y, z), normalized first."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    r = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    return RigidTransform(r, translation)


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """The transform that applies b, then a."""
    return RigidTransform(a.rotation @ b.rotation, a.apply(b.translation))


def plane_frame(point, normal) -> RigidTransform:
    """The transform into the frame of the plane through point with normal
    (normalized first), in which that plane is the world's scene plane,
    z = 0 with normal +z. Its in-plane axes are u = up x n and v = n x u,
    up being +y, or +z for a normal along y; a display posed in the tilted
    frame is posed in the world by compose(plane_frame(...), pose)."""
    n = np.asarray(normal, dtype=float) / np.linalg.norm(normal)
    up = np.array([0.0, 0.0, 1.0] if abs(n[1]) > 1.0 - 1e-9 else [0.0, 1.0, 0.0])
    u = np.cross(up, n)
    u /= np.linalg.norm(u)
    r = np.array([u, np.cross(n, u), n])
    return RigidTransform(r, -r @ np.asarray(point, dtype=float))


def axis_rotations() -> list[np.ndarray]:
    """The 24 proper rotations whose entries are all -1, 0 or 1: the signed
    permutation matrices with determinant +1."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((-1.0, 1.0), repeat=3):
            r = np.zeros((3, 3))
            r[range(3), perm] = signs
            if np.linalg.det(r) > 0:
                out.append(r)
    return out
