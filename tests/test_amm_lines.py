"""The rotation line functions of the alternating solver.

On rotation quadrics the change of the objective along a step has a
closed form; it must agree with the difference of two direct quadric
evaluations. Objectives without quadrics must be solved exactly as the
loops that compared objective values did: the same iterates, bit for bit,
and the same contract calls in the same order.
"""

import math

import numpy as np
import pytest

from conftest import BlockQuadricsOnly, random_rotation
from poseamm import amm
from poseamm.absolute import build_gpnp_form, build_upnp_form
from poseamm.amm import AmmConfig, solve_amm
from poseamm.bench import (RIG_NON_CENTRAL, SceneConfig, generate_absolute_scene,
                           generate_relative_scene)
from poseamm.geometry import project_to_so3, rodrigues_step, skew, vec
from poseamm.initializers import init_absolute_linear, init_relative_17pt
from poseamm.objectives import PoseObjective
from poseamm.relative import build_gec_form

# Angles of the doubling/halving schedule, from near _MU_MIN to past pi.
ANGLES = [2.0 ** e for e in range(-50, 12, 3)]


class RandomQuadrics:
    """A random PSD rotation quadric, the only attribute the rotation block
    reads."""

    def __init__(self, rng, scale):
        a = rng.normal(size=(11, 9)) * scale
        self.p, self.q, self.k = a.T @ a, rng.normal(size=9) * scale, float(scale)

    def rotation_quadric(self, translation):
        return self.p, self.q, self.k


def _quadric_objectives():
    rng = np.random.default_rng(5)
    config = SceneConfig(seed=11, noise_sigma_px=3.0, rig=RIG_NON_CENTRAL)
    _, corrs = generate_absolute_scene(config)
    _, rays = generate_relative_scene(config)
    return [("gpnp", build_gpnp_form(corrs)), ("upnp", build_upnp_form(corrs)),
            ("gec", build_gec_form(rays)), ("psd", RandomQuadrics(rng, 1.0)),
            ("psd-1e3", RandomQuadrics(rng, 1e3))]


def _terms(m, v, k, x):
    """The three terms x'Mx, v'x and k of a quadric."""
    return float(x @ m @ x), float(v @ x), float(k)


@pytest.mark.parametrize("name,objective", _quadric_objectives())
def test_rotation_delta_is_the_quadric_difference(name, objective):
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = random_rotation(rng)
        t = rng.uniform(-2.0, 2.0, size=3)
        p, q, k = objective.rotation_quadric(t)
        gradient, _, line = amm._rotation_block(objective, t)
        g = gradient(x)
        np.testing.assert_allclose(g.reshape(9, order="F"), 2.0 * p @ vec(x) + q,
                                   rtol=1e-12, atol=1e-12 * np.abs(p).max())
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        kx = skew(axis) @ x
        k2x = skew(axis) @ kx
        gu, gw = float(np.sum(g * kx)), float(np.sum(g * k2x))
        delta, point = line(x)(tuple(axis), gu, gw)
        u, w = vec(kx), vec(k2x)
        quad = (abs(u @ p @ u), abs(w @ p @ w), abs(u @ p @ w))
        base = _terms(p, q, k, vec(x))
        for angle in ANGLES:
            s, c = math.sin(angle), 1.0 - math.cos(angle)
            new = point(s, c)
            np.testing.assert_allclose(new, rodrigues_step(axis, angle) @ x,
                                       rtol=0, atol=1e-13)
            moved = _terms(p, q, k, vec(new))
            direct = sum(moved) - sum(base)
            scale = (sum(map(abs, base)) + sum(map(abs, moved))
                     + abs(s * gu) + abs(c * gw)
                     + s * s * quad[0] + c * c * quad[1] + 2.0 * abs(s * c) * quad[2])
            assert abs(delta(s, c) - direct) <= 1e-12 * scale, (name, angle)


@pytest.mark.parametrize("name,objective", _quadric_objectives())
def test_rotation_curvature_is_the_second_derivative(name, objective):
    # Along x(theta) = expm(theta skew(b)) x with |b| = 1 the change is the
    # polynomial of the line search, whose second derivative at 0 is
    # 2 u'Pu + g'w; the Hessian the loop forms from the curvature and
    # M = g x' must give the same.
    rng = np.random.default_rng(29)
    for _ in range(5):
        x = random_rotation(rng)
        t = rng.uniform(-2.0, 2.0, size=3)
        p, _, _ = objective.rotation_quadric(t)
        gradient, curvature, _ = amm._rotation_block(objective, t)
        u = np.array([vec(skew(e) @ x) for e in np.eye(3)])
        c = np.array(curvature(x))
        scale = np.abs(p).max()
        np.testing.assert_allclose(c, 2.0 * u @ p @ u.T, rtol=0, atol=1e-12 * scale)
        g = gradient(x)
        m = g @ x.T
        hessian = c + 0.5 * (m + m.T) - np.trace(m) * np.eye(3)
        for _ in range(3):
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            kx = skew(b) @ x
            second = 2.0 * vec(kx) @ p @ vec(kx) + np.sum(g * (skew(b) @ kx))
            assert abs(b @ hessian @ b - second) <= 1e-12 * (scale + np.abs(g).max())


def test_loop_slopes_are_the_gradient_along_the_step(monkeypatch):
    # The rotation loop derives g'u and g'w from M = g x', on the unit
    # gradient axis and on the Newton axis alike; they must be the
    # Frobenius products of the gradient with Kx and K^2 x.
    block = amm._rotation_block
    checked = []

    def checking_block(objective, t):
        gradient, curvature, line = block(objective, t)

        def checked_line(x):
            search = line(x)

            def checked_search(axis, gu, gw):
                g = gradient(x)
                kx = skew(axis) @ x
                scale = np.linalg.norm(g) * np.linalg.norm(x)
                assert abs(gu - np.sum(g * kx)) <= 1e-12 * scale
                assert abs(gw - np.sum(g * (skew(axis) @ kx))) <= 1e-12 * scale
                m = g @ x.T
                steepest = np.array([m[1, 2] - m[2, 1], m[2, 0] - m[0, 2],
                                     m[0, 1] - m[1, 0]])
                steepest /= np.linalg.norm(steepest)
                checked.append(np.allclose(axis, steepest, rtol=0, atol=1e-12))
                return search(axis, gu, gw)
            return checked_search
        return gradient, curvature, checked_line

    monkeypatch.setattr(amm, "_rotation_block", checking_block)
    for _, objective in _quadric_objectives()[:3]:
        solve_amm(objective, np.zeros(3))             # Newton axes
        # Newton axes of the alternation, which absolute forms skip
        solve_amm(BlockQuadricsOnly(objective), np.zeros(3))
        solve_amm(CallLog(objective), np.zeros(3))    # gradient axes, no quadric
    assert checked.count(False) > 50
    assert checked.count(True) > 100


# ---------------------------------------------------------------------------
# Objectives without quadrics: the loops as they were when they compared
# objective values, kept here as the reference.

def reference_rotation_subsolve(objective, rotation_init, translation_fixed,
                                tol=AmmConfig().tol_rotation):
    t = np.asarray(translation_fixed, dtype=float)

    def value(x):
        return float(objective.value(x, t))

    def gradient(x):
        return np.asarray(objective.rotation_gradient(x, t), dtype=float)

    def rotate(x, kx, k2x, angle):
        s = math.sin(angle)
        c = 1.0 - math.cos(angle)
        return x + s * kx + c * k2x, math.sqrt(2.0) * math.hypot(s, c)

    x = np.asarray(rotation_init, dtype=float)
    mu = amm._INITIAL_MU
    gx = value(x)
    for inner in range(1, 100_001):
        m = (gradient(x) @ x.T).tolist()
        a0 = m[1][2] - m[2][1]
        a1 = m[2][0] - m[0][2]
        a2 = m[0][1] - m[1][0]
        rate = a0 * a0 + a1 * a1 + a2 * a2
        if rate < 1e-30:
            break
        n = math.sqrt(rate)
        if n < 1e-14:
            break
        a0, a1, a2 = a0 / n, a1 / n, a2 / n
        k = np.array([[0.0, -a2, a1], [a2, 0.0, -a0], [-a1, a0, 0.0]])
        kx = k @ x
        k2x = k @ kx
        xp, step_p = rotate(x, kx, k2x, mu * n)
        gp = value(xp)
        xq, step_q = rotate(x, kx, k2x, 2.0 * mu * n)
        gq = value(xq)
        while gx - gq >= mu * rate and mu < 1e6:
            xp, step_p, gp = xq, step_q, gq
            mu *= 2.0
            xq, step_q = rotate(x, kx, k2x, 2.0 * mu * n)
            gq = value(xq)
        collapsed = False
        while gx - gp < 0.5 * mu * rate:
            mu *= 0.5
            if mu < 1e-16:
                collapsed = True
                break
            xp, step_p = rotate(x, kx, k2x, mu * n)
            gp = value(xp)
        if collapsed:
            break
        x, gx = xp, gp
        if inner % 50 == 0:
            x = project_to_so3(x)
            gx = value(x)
        if step_p < tol:
            break
    return x


def reference_translation_subsolve(objective, translation_init, rotation_fixed,
                                   config=AmmConfig()):
    r = np.asarray(rotation_fixed, dtype=float)

    def value(x):
        return float(objective.value(r, x))

    def gradient(x):
        return np.asarray(objective.translation_gradient(r, x), dtype=float)

    x = np.asarray(translation_init, dtype=float)
    alpha = amm._INITIAL_ALPHA
    h = value(x)
    g = gradient(x)
    for _ in range(100_000):
        x_new = x - alpha * g
        h_new = value(x_new)
        g_new = gradient(x_new)
        dg = g_new - g
        dg_norm = math.sqrt(float(dg @ dg))
        if dg_norm < 1e-16:
            if h_new <= h:
                x = x_new
            return x
        alpha = float((x_new - x) @ dg) / (dg_norm * dg_norm)
        if h_new > h:
            return x
        delta = abs(h_new - h)
        x, h, g = x_new, h_new, g_new
        if delta < config.tol_translation:
            return x
    return x


class CallLog(PoseObjective):
    """Forward the contract methods only, logging each call with its
    arguments' bytes."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def _log(self, name, rotation, translation):
        self.calls.append((name, np.asarray(rotation).tobytes(),
                           np.asarray(translation).tobytes()))
        return getattr(self.inner, name)(rotation, translation)

    def value(self, rotation, translation):
        return self._log("value", rotation, translation)

    def rotation_gradient(self, rotation, translation):
        return self._log("rotation_gradient", rotation, translation)

    def translation_gradient(self, rotation, translation):
        return self._log("translation_gradient", rotation, translation)


class AnchoredPose(PoseObjective):
    """||R - R*||^2 + ||t - t*||^2 + lam ||t||^2, as in the custom-objective demo."""

    def __init__(self, r_star, t_star, lam=0.1):
        self.r_star, self.t_star, self.lam = r_star, t_star, lam

    def value(self, rotation, translation):
        t = np.asarray(translation, dtype=float)
        return (float(np.sum((rotation - self.r_star) ** 2))
                + float(np.sum((t - self.t_star) ** 2)) + self.lam * float(t @ t))

    def rotation_gradient(self, rotation, translation):
        return 2.0 * (np.asarray(rotation, dtype=float) - self.r_star)

    def translation_gradient(self, rotation, translation):
        t = np.asarray(translation, dtype=float)
        return 2.0 * (t - self.t_star) + 2.0 * self.lam * t


def _generic_cases():
    """(name, objective without quadrics, rotation seed, translation seed)."""
    rng = np.random.default_rng(31)
    cases = [("anchored", AnchoredPose(random_rotation(rng), rng.normal(size=3)),
              np.eye(3), np.zeros(3))]
    for seed in range(2):
        config = SceneConfig(seed=seed, noise_sigma_px=4.0)
        _, corrs = generate_absolute_scene(config)
        _, rays = generate_relative_scene(config)
        gpnp, upnp, gec = build_gpnp_form(corrs), build_upnp_form(corrs), build_gec_form(rays)
        pose = init_absolute_linear(gpnp)
        cases += [(f"gpnp-{seed}", gpnp, pose.rotation, pose.translation),
                  (f"upnp-{seed}", upnp, np.eye(3), np.zeros(3)),
                  (f"gec-{seed}", gec, np.eye(3), np.zeros(3))]
        pose = init_relative_17pt(gec)
        cases.append((f"gec-linear-{seed}", gec, pose.rotation, pose.translation))
    return cases


def _logged_solve(objective, rotation, translation):
    log = CallLog(objective)
    result = solve_amm(log, translation, rotation_init=rotation)
    return result, log.calls


@pytest.mark.parametrize("name,objective,rotation,translation", _generic_cases())
def test_generic_solve_matches_reference_loops(monkeypatch, name, objective,
                                               rotation, translation):
    result, calls = _logged_solve(objective, rotation, translation)
    monkeypatch.setattr(amm, "rotation_subsolve", reference_rotation_subsolve)
    monkeypatch.setattr(amm, "translation_subsolve", reference_translation_subsolve)
    expected, expected_calls = _logged_solve(objective, rotation, translation)
    assert calls == expected_calls
    assert result.objective_trace == expected.objective_trace
    assert result.final_objective == expected.final_objective
    assert result.pose.rotation.tobytes() == expected.pose.rotation.tobytes()
    assert result.pose.translation.tobytes() == expected.pose.translation.tobytes()


def test_generic_subsolves_match_reference_loops():
    # Direct block solves, with enough rotation steps to pass the
    # re-projection at step 50.
    rng = np.random.default_rng(41)
    longest = 0
    for name, objective, _, _ in _generic_cases():
        for _ in range(3):
            rotation, translation = random_rotation(rng), rng.uniform(-2, 2, size=3)
            for new, reference, args in (
                    (amm.rotation_subsolve, reference_rotation_subsolve,
                     (rotation, translation)),
                    (amm.translation_subsolve, reference_translation_subsolve,
                     (translation, rotation))):
                got, want = CallLog(objective), CallLog(objective)
                out, ref = new(got, *args), reference(want, *args)
                assert out.tobytes() == ref.tobytes(), name
                assert got.calls == want.calls, name
                longest = max(longest, sum(call[0] == "rotation_gradient"
                                           for call in got.calls))
    assert longest > 50
