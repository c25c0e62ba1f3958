"""Shared helpers: deterministic random geometry, finite-difference oracles,
the block-quadric check, a proxy that makes absolute forms alternate, and
the per-bearing pixel-noise reference."""

import numpy as np
import pytest

from poseamm.geometry import rodrigues_step, unvec, vec
from poseamm.objectives import PoseObjective


def random_rotation(rng, max_angle=np.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rodrigues_step(axis, rng.uniform(0.0, max_angle))


def random_pose_arrays(rng, extent=2.0):
    return random_rotation(rng), rng.uniform(-extent, extent, size=3)


def fd_rotation_gradient(objective, rotation, translation, h=1e-6):
    """Central differences on each of the nine rotation entries."""
    g = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            rp = rotation.copy()
            rm = rotation.copy()
            rp[i, j] += h
            rm[i, j] -= h
            g[i, j] = (objective.value(rp, translation)
                       - objective.value(rm, translation)) / (2.0 * h)
    return g


def fd_translation_gradient(objective, rotation, translation, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        tp = np.array(translation, dtype=float)
        tm = np.array(translation, dtype=float)
        tp[i] += h
        tm[i] -= h
        g[i] = (objective.value(rotation, tp)
                - objective.value(rotation, tm)) / (2.0 * h)
    return g


def assert_block_quadrics_match(form, rotation, translation):
    """Both block quadrics reproduce value and gradients at (R, t)."""
    value = form.value(rotation, translation)
    r = vec(rotation)
    p, q, k = form.rotation_quadric(translation)
    np.testing.assert_allclose(p, p.T, rtol=0, atol=1e-12 * np.abs(p).max())
    assert r @ p @ r + q @ r + k == pytest.approx(value, rel=1e-12)
    np.testing.assert_allclose(unvec(2.0 * p @ r + q),
                               form.rotation_gradient(rotation, translation),
                               rtol=1e-12, atol=1e-12 * abs(value))
    a, b, k = form.translation_quadric(rotation)
    np.testing.assert_allclose(a, a.T, rtol=0, atol=1e-12 * np.abs(a).max())
    assert (translation @ a @ translation + b @ translation + k
            == pytest.approx(value, rel=1e-12))
    np.testing.assert_allclose(2.0 * a @ translation + b,
                               form.translation_gradient(rotation, translation),
                               rtol=1e-12, atol=1e-12 * abs(value))


class BlockQuadricsOnly(PoseObjective):
    """Forward the contract methods and the two block quadrics only, hiding
    ``reduced_rotation_quadric``: ``solve_amm`` then alternates on an
    absolute form exactly as it does on a GEC form."""

    def __init__(self, inner):
        self.inner = inner

    def value(self, rotation, translation):
        return self.inner.value(rotation, translation)

    def rotation_gradient(self, rotation, translation):
        return self.inner.rotation_gradient(rotation, translation)

    def translation_gradient(self, rotation, translation):
        return self.inner.translation_gradient(rotation, translation)

    def rotation_quadric(self, translation):
        return self.inner.rotation_quadric(translation)

    def translation_quadric(self, rotation):
        return self.inner.translation_quadric(rotation)


def unit(v):
    return v / np.linalg.norm(v)


def cross(a, b) -> np.ndarray:
    """a x b of two 3-vectors, with the products and differences np.cross
    forms, at a fraction of its per-call cost."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def pixel_noise_per_call(bearing, sigma_px: float, focal_px: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Perturb one unit bearing by Gaussian pixel noise in its tangent plane,
    as the scene generators did one bearing at a time.

    Independent offsets with standard deviation ``sigma_px`` are applied
    to the two tangent coordinates scaled at distance ``focal_px``, then
    the result is renormalized; per-axis angular deviation is therefore
    sigma_px / focal_px radians. Zero sigma returns the input unchanged.
    """
    b = np.asarray(bearing, dtype=float)
    if sigma_px == 0.0:
        return b
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(b)))] = 1.0
    e1 = unit(cross(b, helper))
    e2 = cross(b, e1)
    dx, dy = rng.normal(0.0, sigma_px, size=2)
    return unit(b + (dx * e1 + dy * e2) / focal_px)


def relative_gradient_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
