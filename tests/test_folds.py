"""The vectorized row builders and their one shared fold, against
per-correspondence references, plus their memory footprint at N=2000."""

import tracemalloc

import numpy as np
import pytest

from poseamm.absolute import build_gpnp_form, build_upnp_form
from poseamm.bench import SceneConfig, generate_absolute_scene, generate_relative_scene
from poseamm.exceptions import PoseSolverError
from poseamm.initializers import init_relative_17pt
from poseamm.objectives import ABSOLUTE_LIFT, GEC_LIFT, QuadricForm
from poseamm.relative import build_gec_form

SIZES = (1, 3, 17, 20, 500)
RIGS = ("central", "non_central")
FOLD_REL_TOL = 1e-12
PEAK_BYTES = 16 * 2**20


def reference_gpnp_blocks(corrs):
    """The six blocks accumulated one correspondence at a time with np.kron."""
    m_rr, v_r, m_tr = np.zeros((9, 9)), np.zeros(9), np.zeros((3, 9))
    m_tt, v_t, const = np.zeros((3, 3)), np.zeros(3), 0.0
    for v, x, c in zip(corrs.bearings, corrs.points, corrs.offsets):
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
    bearings, points, offsets = corrs.bearings, corrs.points, corrs.offsets
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
    for d1, m1, d2, m2 in zip(corrs.d1, corrs.m1, corrs.d2, corrs.m2):
        k = np.kron(np.concatenate([d2, m2]), np.concatenate([d1, m1]))
        a = np.concatenate([k[0:3], k[6:9], k[12:15], k[3:6] + k[18:21],
                            k[9:12] + k[24:27], k[15:18] + k[30:33]])
        m += np.outer(a, a)
    return m


def assert_close(got, expected):
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(np.asarray(got) - expected) <= FOLD_REL_TOL * scale


def assemble_h(m_rr, v_r, m_tr, m_tt, v_t, const):
    """The 13x13 H of r'M_rr r + v_r'r + t'M_tr r + t'M_tt t + v_t't + c."""
    h = np.zeros((13, 13))
    h[:9, :9] = m_rr
    h[9:12, :9] = 0.5 * m_tr
    h[:9, 9:12] = 0.5 * m_tr.T
    h[9:12, 9:12] = m_tt
    h[12, :9] = h[:9, 12] = 0.5 * v_r
    h[12, 9:12] = h[9:12, 12] = 0.5 * v_t
    h[12, 12] = const
    return h


# The blocks of r, t and 1 in phi = [vec(R); t; 1], each compared on its own
# scale so a small block is not hidden by a large one.
BLOCKS = ((slice(0, 9), slice(0, 9)), (slice(12, 13), slice(0, 9)),
          (slice(9, 12), slice(0, 9)), (slice(9, 12), slice(9, 12)),
          (slice(12, 13), slice(9, 12)), (slice(12, 13), slice(12, 13)))


def assert_blocks_close(form, blocks):
    expected = assemble_h(*blocks)
    np.testing.assert_array_equal(form.h, form.h.T)
    for index in BLOCKS:
        assert_close(form.h[index], expected[index])


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
            with pytest.raises(PoseSolverError, match="lost column rank"):
                build_upnp_form(corrs)
            return
        assert_blocks_close(build_upnp_form(corrs), reference_upnp_blocks(corrs))

    def test_gec(self, n, rig):
        corrs = scene("relative", n, rig)
        assert_close(build_gec_form(corrs).h, reference_gec_quadric(corrs))


class TestSharedFold:
    def test_from_rows_value_is_squared_residual(self, rng):
        rotation = rng.normal(size=(3, 3))
        translation = rng.normal(size=3)
        r = rotation.reshape(9, order="F")
        e = np.cross(translation, rotation, axis=0).reshape(9, order="F")
        for lift, phi in ((ABSOLUTE_LIFT, np.concatenate([r, translation, [1.0]])),
                          (GEC_LIFT, np.concatenate([e, r]))):
            rows = rng.normal(size=(30, lift.size))
            form = QuadricForm.from_rows(rows, lift)
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

