"""The vectorized row builders and their one shared fold, against
per-correspondence references, plus their memory footprint at N=2000."""

import tracemalloc

import numpy as np
import pytest

from poseamm import initializers
from poseamm.absolute import build_gpnp_form, build_upnp_form
from poseamm.bench import SceneConfig, generate_absolute_scene, generate_relative_scene
from poseamm.exceptions import RankDeficientSystem
from poseamm.initializers import init_relative_17pt
from poseamm.objectives import QuadraticPoseForm
from poseamm.relative import build_gec_form

SIZES = (1, 3, 17, 20, 500)
RIGS = ("central", "non_central")
FOLD_REL_TOL = 1e-12
PEAK_BYTES = 16 * 2**20


def reference_gpnp_blocks(corrs):
    """The six blocks accumulated one correspondence at a time with np.kron."""
    m_rr, v_r, m_tr = np.zeros((9, 9)), np.zeros(9), np.zeros((3, 9))
    m_tt, v_t, const = np.zeros((3, 3)), np.zeros(3), 0.0
    for corr in corrs:
        v, x, c = corr.ray.bearing, corr.point, corr.ray.offset
        proj = np.eye(3) - np.outer(v, v) / float(v @ v)
        q = proj.T @ proj
        kq = np.kron(x, q)                  # (3, 9): x' kron Q
        m_rr += kq.T @ kq
        v_r += -2.0 * np.kron(x, c @ q)
        m_tr += 2.0 * kq
        m_tt += q
        v_t += -2.0 * (q @ c)
        const += float(c @ q @ c)
    return m_rr, v_r, m_tr, m_tt, v_t, const


def reference_upnp_blocks(corrs):
    """The six blocks from the dense pseudo-inverse depth rows u_ij.

    U = top N rows of (A'A)^{-1} A' for the stacked depth/translation
    system, so alpha_i = sum_j u_ij . (R p_j - c_j); then
    G_i = sum_j v_i (p_j' kron u_ij') - (p_i' kron I) and
    d_i = c_i - (sum_j u_ij . c_j) v_i, eta_i = G_i r + d_i - t.
    """
    n = len(corrs)
    bearings = np.array([c.ray.bearing for c in corrs])
    points = np.array([c.point for c in corrs])
    offsets = np.array([c.ray.offset for c in corrs])
    a = np.zeros((3 * n, n + 3))
    for i, v in enumerate(bearings):
        a[3 * i:3 * i + 3, i] = v
        a[3 * i:3 * i + 3, n:] = -np.eye(3)
    u = np.linalg.pinv(a)[:n].reshape(n, n, 3)
    m_rr, v_r, m_tr = np.zeros((9, 9)), np.zeros(9), np.zeros((3, 9))
    v_t, const = np.zeros(3), 0.0
    for i in range(n):
        # sum_j p_j' kron u_ij', one np.kron per j, summed over j at once
        t_row = (points[:, :, None] * u[i][:, None, :]).sum(axis=0).reshape(9)
        g = np.outer(bearings[i], t_row)
        g -= np.kron(points[i], np.eye(3))
        d = offsets[i] - float(np.sum(u[i] * offsets)) * bearings[i]
        m_rr += g.T @ g
        v_r += 2.0 * g.T @ d
        m_tr -= 2.0 * g
        v_t -= 2.0 * d
        const += float(d @ d)
    return m_rr, v_r, m_tr, n * np.eye(3), v_t, const


def reference_gec_quadric(corrs):
    """M = sum_i a_i a_i', each a_i picked out of np.kron(l2, l1)."""
    m = np.zeros((18, 18))
    for corr in corrs:
        k = np.kron(corr.line2.as_vector(), corr.line1.as_vector())
        a = np.concatenate([k[0:3], k[6:9], k[12:15], k[3:6] + k[18:21],
                            k[9:12] + k[24:27], k[15:18] + k[30:33]])
        m += np.outer(a, a)
    return m


def assert_close(got, expected):
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(np.asarray(got) - expected) <= FOLD_REL_TOL * scale


def assert_blocks_close(form, blocks):
    got = (form.m_rr, form.v_r, form.m_tr, form.m_tt, form.v_t, form.c)
    for value, expected in zip(got, blocks):
        assert_close(value, expected)


def scene(kind, n, rig):
    config = SceneConfig(num_correspondences=n, rig=rig, noise_sigma_px=2.0,
                         seed=1000 + n)
    if kind == "absolute":
        return generate_absolute_scene(config)[1]
    return generate_relative_scene(config)[1]


@pytest.mark.parametrize("rig", RIGS)
@pytest.mark.parametrize("n", SIZES)
class TestFoldsMatchPerCorrespondenceReference:
    def test_gpnp(self, n, rig):
        corrs = scene("absolute", n, rig)
        assert_blocks_close(build_gpnp_form(corrs), reference_gpnp_blocks(corrs))

    def test_upnp(self, n, rig):
        corrs = scene("absolute", n, rig)
        if n == 1:
            with pytest.raises(RankDeficientSystem):
                build_upnp_form(corrs)
            return
        assert_blocks_close(build_upnp_form(corrs), reference_upnp_blocks(corrs))

    def test_gec(self, n, rig):
        corrs = scene("relative", n, rig)
        assert_close(build_gec_form(corrs).m, reference_gec_quadric(corrs))


class TestSharedFold:
    def test_from_rows_value_is_squared_residual(self, rng):
        rows = rng.normal(size=(30, 13))
        form = QuadraticPoseForm.from_rows(rows)
        rotation = rng.normal(size=(3, 3))
        translation = rng.normal(size=3)
        phi = np.concatenate([rotation.reshape(9, order="F"), translation, [1.0]])
        residual = rows @ phi
        assert form.value(rotation, translation) == pytest.approx(
            float(residual @ residual), rel=1e-12)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestFoldMemory:
    def test_upnp_form_at_2000(self):
        corrs = scene("absolute", 2000, "non_central")
        assert _peak_bytes(build_upnp_form, corrs) < PEAK_BYTES

    def test_17pt_seed_at_2000(self):
        corrs = scene("relative", 2000, "non_central")
        assert _peak_bytes(init_relative_17pt, corrs) < PEAK_BYTES


@pytest.mark.parametrize("n", (17, 2000))
def test_thin_svd_seed_matches_full_svd_seed(n, monkeypatch):
    corrs = scene("relative", n, "non_central")
    thin = init_relative_17pt(corrs)
    svd = np.linalg.svd
    monkeypatch.setattr(initializers.np.linalg, "svd",
                        lambda a, **kw: svd(a, **{**kw, "full_matrices": True}))
    full = init_relative_17pt(corrs)
    np.testing.assert_allclose(thin.rotation, full.rotation, rtol=0, atol=1e-12)
    np.testing.assert_allclose(thin.translation, full.translation, rtol=0,
                               atol=1e-12 * max(1.0, np.linalg.norm(full.translation)))
