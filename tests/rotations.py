"""Rigid transforms about one display axis, for tilted test fixtures."""

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
