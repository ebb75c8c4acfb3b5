"""Adam stepping, structure/reconstruction losses and the two-stage loop."""

import copy
import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from covec import optimize
from covec.model import RasterizerConfig, VectorPath
from covec.optimize import (ADAM_EPS, DELTA_OVERLAP, GRAY_ALPHA, AdamState,
                            LayerOptimizer, Schedule, adam_step, descent_config,
                            layer_loss, loss_recon, loss_struct, mse, run_structural)
from covec.raster import WHITE, coverage_backward, layer_forward

from conftest import (disk_path, random_path, square_control_points,
                      square_path, zero_gradient)


def _render(paths, w, h, rcfg):
    return layer_forward(paths, WHITE, w, h, rcfg, with_grad=False).image


def _overlap_weight(lam):
    """Run the overlap penalty at weight ``lam`` inside the with-block; at
    the default LAMBDA_OVERLAP it is too small to see."""
    return mock.patch.object(optimize, "LAMBDA_OVERLAP", lam)


def test_adam_first_step_closed_form():
    g = np.array([1.0, -2.0, 0.5])
    state = AdamState.zeros(3)
    new = adam_step(np.zeros(3), g, state, 1.0)
    want = -g / (np.abs(g) + ADAM_EPS)
    assert np.allclose(new, want, rtol=1e-12)
    assert np.allclose(new, -np.sign(g), atol=1e-6)
    assert state.step == 1


def test_adam_zero_gradient_fixed_point():
    param = np.array([0.3, -0.7])
    out = adam_step(param, np.zeros(2), AdamState.zeros(2), 1.0)
    assert np.array_equal(out, param)


def test_adam_converges_on_parabola():
    x = np.float64(0.0)
    state = AdamState.zeros(())
    for _ in range(100):
        x = adam_step(x, 2.0 * (x - 3.0), state, 0.1)
    assert abs(float(x) - 3.0) < 0.1


def test_adam_nonfinite_gradient_skips(caplog):
    param = np.array([1.0, 2.0])
    state = AdamState.zeros(2)
    with caplog.at_level(logging.WARNING, logger="covec.optimize"):
        out = adam_step(param, np.array([np.nan, 1.0]), state, 1.0)
    assert np.array_equal(out, param)
    assert state.step == 1
    assert np.array_equal(state.m, np.zeros(2))
    assert any("non-finite" in r.message for r in caplog.records)
    # a following clean step uses the advanced counter
    out2 = adam_step(out, np.array([1.0, 1.0]), state, 1.0)
    assert state.step == 2
    assert np.all(np.isfinite(out2))


def test_struct_loss_perfect_single_path_zero():
    rcfg = RasterizerConfig()
    group = [square_path(3, 3, 13, 13, color=(0.2, 0.6, 0.4))]
    reference = _render(group, 16, 16, rcfg)
    loss, grads = loss_struct([group], [reference], rcfg)
    assert loss == 0.0
    assert len(grads) == 1
    assert np.allclose(grads[0].d_control_points, 0.0)


def test_struct_loss_coincident_paths_penalized():
    rcfg = RasterizerConfig()
    group = [square_path(2, 2, 14, 14, color=(0.3, 0.3, 0.3)),
             square_path(2, 2, 14, 14, color=(0.3, 0.3, 0.3))]
    reference = _render(group, 16, 16, rcfg)
    lam = 1e-3
    with _overlap_weight(lam):
        loss, _ = loss_struct([group], [reference], rcfg)
    coverages = layer_forward(group, WHITE, 16, 16, rcfg).coverages
    alpha = 1.0 - np.prod([1.0 - 0.5 * pc.coverage for pc in coverages], axis=0)
    assert alpha.max() > 0.6
    expect = lam * float(np.maximum(alpha - DELTA_OVERLAP, 0.0).sum())
    assert loss == pytest.approx(expect, rel=1e-12)
    assert expect > 0.0


def _gray_alpha_field_oracle(coverages):
    """The penalty's field written out as its own loop: alpha = 1 - prod
    and prod = prod_i (1 - GRAY_ALPHA * coverage_i), each factor applied
    over path i's window in layer order."""
    prod = np.ones(coverages[0].canvas)
    for pc in coverages:  # a factor of exactly 1 outside the window
        prod[pc.region] *= 1.0 - GRAY_ALPHA * pc.block
    return 1.0 - prod, prod


def _loss_struct_oracle(groups, mask_renders, lam, rcfg):
    """loss_struct at overlap weight ``lam``, with its field from
    _gray_alpha_field_oracle."""
    total = 0.0
    all_grads = []
    for group, reference in zip(groups, mask_renders):
        loss, grads, render = layer_loss(group, WHITE, WHITE, reference, rcfg)
        total += loss
        if group:
            alpha, prod = _gray_alpha_field_oracle(render.coverages)
            excess = alpha - DELTA_OVERLAP
            d_alpha = lam * (excess > 0.0)
            total += lam * float(np.maximum(excess, 0.0).sum())
            for i, pc in enumerate(render.coverages):
                r = pc.region
                d_cov = d_alpha[r] * GRAY_ALPHA * prod[r] / (1.0 - GRAY_ALPHA * pc.block)
                grads[i].d_control_points += coverage_backward(pc, d_cov, rcfg)
        all_grads.extend(grads)
    return total, all_grads


@pytest.mark.parametrize("lam", [1e-3, 0.5], ids=["overlap-0.001", "overlap-0.5"])
def test_struct_loss_penalty_matches_field_oracle(lam):
    # seeded groups of 1-5 overlapping perturbed circles at random
    # opacities, then one full-cover square and two coincident ones: their
    # edges lie 40 sigma outside the canvas, so coverage is exactly 1 and
    # the field exactly 0.5 and 0.75; loss and every gradient field equal
    # the oracle's bit for bit
    rcfg = RasterizerConfig()
    rng = np.random.default_rng(7)
    groups = [[random_path(rng, 24, 24) for _ in range(rng.integers(1, 6))]
              for _ in range(6)]
    groups += [[square_path(-40, -40, 64, 64, opacity=0.9)],
               [square_path(-40, -40, 64, 64, opacity=0.3),
                square_path(-40, -40, 64, 64, opacity=0.8)]]
    refs = [rng.uniform(0, 1, (24, 24, 3)) for _ in groups]
    for group, field in zip(groups[-2:], (0.5, 0.75)):
        coverages = layer_forward(group, WHITE, 24, 24, rcfg).coverages
        assert np.all(_gray_alpha_field_oracle(coverages)[0] == field)
    with _overlap_weight(lam):
        loss, grads = loss_struct(groups, refs, rcfg)
    want_loss, want_grads = _loss_struct_oracle(groups, refs, lam, rcfg)
    assert loss.hex() == want_loss.hex()
    assert len(grads) == len(want_grads) == sum(len(g) for g in groups)
    for got, want in zip(grads, want_grads):
        assert got.d_control_points.tobytes() == want.d_control_points.tobytes()
        assert got.d_fill_color.tobytes() == want.d_fill_color.tobytes()
        assert np.float64(got.d_opacity).tobytes() == np.float64(want.d_opacity).tobytes()


def test_struct_loss_zero_lambda_is_pure_mse(rng):
    rcfg = RasterizerConfig()
    groups = [[disk_path(8, 8, 5, color=(0.7, 0.2, 0.2))],
              [square_path(1, 1, 6, 6, color=(0.1, 0.8, 0.3)),
               square_path(9, 9, 15, 15, color=(0.9, 0.9, 0.1))]]
    refs = [rng.uniform(0, 1, (16, 16, 3)) for _ in groups]
    with _overlap_weight(0.0):
        loss, _ = loss_struct(groups, refs, rcfg)
    expect = sum(float(np.mean((_render(g, 16, 16, rcfg) - r) ** 2))
                 for g, r in zip(groups, refs))
    assert loss == expect


def test_struct_loss_count_mismatch():
    with pytest.raises(ValueError, match="mask render count"):
        loss_struct([[]], [], RasterizerConfig())


def test_recon_loss_exact_fit_zero():
    rcfg = RasterizerConfig()
    albedo = [square_path(2, 2, 10, 10, color=(0.6, 0.3, 0.2))]
    illum = [square_path(4, 4, 12, 12, color=(0.5, 0.5, 0.5),
                         tag="illumination")]
    target = _render(albedo, 14, 14, rcfg) * _render(illum, 14, 14, rcfg)
    loss, ga, gi = loss_recon(albedo, illum, target, rcfg)
    assert loss == 0.0
    assert np.allclose(ga[0].d_fill_color, 0.0)
    assert np.allclose(gi[0].d_fill_color, 0.0)


def test_recon_loss_white_vs_midgray():
    loss, _, _ = loss_recon([], [], np.full((8, 8, 3), 0.5), RasterizerConfig())
    assert loss == 0.25


def test_recon_loss_single_layer_mode():
    rcfg = RasterizerConfig()
    albedo = [square_path(1, 1, 7, 7, color=(0.4, 0.5, 0.6))]
    target = _render(albedo, 8, 8, rcfg)
    loss, grads, gi = loss_recon(albedo, [], target, rcfg)
    assert loss == 0.0 and gi == [] and len(grads) == 1


def test_layer_loss_is_recon_loss_restricted_to_its_layer(rng):
    # refinement steps a layer over a frozen albedo render on layer_loss;
    # that is loss_recon with the albedo held fixed, bit for bit
    rcfg = RasterizerConfig()
    albedo = [disk_path(8, 9, 5, color=(0.6, 0.2, 0.4), opacity=0.9),
              square_path(2, 2, 9, 9, color=(0.3, 0.7, 0.5))]
    illum = [disk_path(10, 8, 6, color=(0.7, 0.7, 0.7), opacity=0.7,
                       tag="illumination"),
             disk_path(6, 12, 4, color=(1.3, 1.1, 0.9), opacity=0.6,
                       tag="illumination")]
    target = rng.uniform(0, 1, (18, 20, 3))
    albedo_render = layer_forward(albedo, WHITE, 20, 18, rcfg).image
    loss, grads, render = layer_loss(illum, WHITE, albedo_render, target, rcfg)
    want_loss, _, want_grads = loss_recon(albedo, illum, target, rcfg)
    assert loss == want_loss
    assert loss == mse(render.image * albedo_render, target)
    for g, want in zip(grads, want_grads, strict=True):
        assert np.array_equal(g.d_control_points, want.d_control_points)
        assert np.array_equal(g.d_fill_color, want.d_fill_color)
        assert g.d_opacity == want.d_opacity


def _fd_check(loss_fn, paths, eps_pts=1e-3, eps_col=1e-4):
    """Central-difference check on a couple of coordinates per path."""
    base_loss, grads = loss_fn()
    for path, g in zip(paths, grads):
        for flat_idx in (0, path.control_points.size // 2):
            idx = np.unravel_index(flat_idx, path.control_points.shape)
            orig = path.control_points[idx]
            path.control_points[idx] = orig + eps_pts
            hi, _ = loss_fn()
            path.control_points[idx] = orig - eps_pts
            lo, _ = loss_fn()
            path.control_points[idx] = orig
            fd = (hi - lo) / (2 * eps_pts)
            an = g.d_control_points[idx]
            assert abs(an - fd) <= max(1e-4, 1e-2 * abs(fd)), (idx, an, fd)
        for c in range(3):
            orig = path.fill_color[c]
            path.fill_color[c] = orig + eps_col
            hi, _ = loss_fn()
            path.fill_color[c] = orig - eps_col
            lo, _ = loss_fn()
            path.fill_color[c] = orig
            fd = (hi - lo) / (2 * eps_col)
            assert abs(g.d_fill_color[c] - fd) <= max(1e-4, 1e-2 * abs(fd))
        orig = path.opacity
        path.opacity = orig + eps_col
        hi, _ = loss_fn()
        path.opacity = orig - eps_col
        lo, _ = loss_fn()
        path.opacity = orig
        fd = (hi - lo) / (2 * eps_col)
        assert abs(g.d_opacity - fd) <= max(1e-4, 1e-2 * abs(fd))


def test_struct_loss_gradient_matches_fd(rng, fixed_rcfg):
    # at the 2 x 2 grid, and at the one-sample config every Adam step uses
    group = [disk_path(9, 8, 4.5, color=(0.7, 0.3, 0.2), opacity=0.8)]
    group[0].control_points += rng.normal(0, 0.3, group[0].control_points.shape)
    ref = rng.uniform(0, 1, (18, 18, 3))
    for rcfg in (fixed_rcfg, descent_config(fixed_rcfg)):
        with _overlap_weight(1e-4):
            _fd_check(lambda: loss_struct([group], [ref], rcfg), group)


def test_recon_loss_gradient_matches_fd(rng, fixed_rcfg):
    albedo = [disk_path(8, 9, 5, color=(0.6, 0.2, 0.4), opacity=0.9)]
    illum = [disk_path(10, 8, 6, color=(0.7, 0.7, 0.7), opacity=0.7,
                       tag="illumination")]
    target = rng.uniform(0, 1, (18, 18, 3))
    for rcfg in (fixed_rcfg, descent_config(fixed_rcfg)):

        def loss_fn():
            loss, ga, gi = loss_recon(albedo, illum, target, rcfg)
            return loss, ga + gi

        _fd_check(loss_fn, albedo + illum)


def _small_scene():
    """Disk-on-field albedo under a half-plane shadow.

    Geometry starts at the truth and only colors are offset; the mask
    renders are built from the offset colors so warm-up starts at its own
    optimum and the joint stage owns the whole reconstruction gap.
    """
    rcfg = RasterizerConfig()
    w = h = 24
    true_a = [square_path(0, 0, 24, 24, color=(0.3, 0.4, 0.8)),
              disk_path(11, 11, 6.5, color=(0.8, 0.25, 0.2))]
    true_i = [square_path(0, 12, 24, 24, color=(0.55, 0.55, 0.55),
                          tag="illumination")]
    target = _render(true_a, w, h, rcfg) * _render(true_i, w, h, rcfg)
    albedo_groups = [[square_path(0, 0, 24, 24, color=(0.5, 0.28, 0.62))],
                     [disk_path(11, 11, 6.5, color=(0.6, 0.42, 0.38))]]
    illum_groups = [[square_path(0, 12, 24, 24, color=(0.74, 0.74, 0.74),
                                 tag="illumination")]]
    mask_a = [_render(g, w, h, rcfg) for g in albedo_groups]
    mask_i = [_render(g, w, h, rcfg) for g in illum_groups]
    return albedo_groups, illum_groups, target, mask_a, mask_i, rcfg


@pytest.mark.parametrize("aa_sigma", [1.0, 0.4])
@pytest.mark.parametrize("s", [2, 3])
def test_descent_config_folds_the_grid_variance_into_the_logistic(s, aa_sigma):
    rcfg = RasterizerConfig(aa_sigma=aa_sigma, supersample=s, flatten_mode="fixed")
    got = descent_config(rcfg)
    assert got.supersample == 1
    assert got.flatten_mode == "fixed"
    assert got.aa_sigma ** 2 == pytest.approx(
        aa_sigma ** 2 + (s * s - 1) / (4 * np.pi ** 2 * s * s), rel=1e-12)
    # the logistic's variance pi^2 sigma^2 / 3 grows by the per-axis
    # variance of the s x s grid's sample offsets inside a pixel
    offsets = (np.arange(s) + 0.5) / s
    assert np.pi ** 2 * got.aa_sigma ** 2 / 3 == pytest.approx(
        np.pi ** 2 * aa_sigma ** 2 / 3 + np.var(offsets), rel=1e-12)


@pytest.mark.parametrize("aa_sigma", [1.0, 0.4])
def test_descent_config_at_one_sample_is_the_config_itself(aa_sigma):
    rcfg = RasterizerConfig(aa_sigma=aa_sigma, supersample=1)
    assert descent_config(rcfg) is rcfg


def test_run_structural_zero_schedule_noop():
    a_groups, i_groups, target, mask_a, mask_i, rcfg = _small_scene()
    before = copy.deepcopy(a_groups)
    trace = run_structural(a_groups, i_groups, target, mask_a, mask_i,
                           Schedule(warmup_epochs=0, joint_epochs=0), rcfg)
    assert trace == []
    for g_new, g_old in zip(a_groups, before):
        for p_new, p_old in zip(g_new, g_old):
            assert np.array_equal(p_new.control_points, p_old.control_points)
            assert np.array_equal(p_new.fill_color, p_old.fill_color)


def test_run_structural_trace_shape():
    a_groups, i_groups, target, mask_a, mask_i, rcfg = _small_scene()
    trace = run_structural(a_groups, i_groups, target, mask_a, mask_i,
                           Schedule(warmup_epochs=4, joint_epochs=3), rcfg)
    assert len(trace) == 7
    assert [r.stage for r in trace] == ["warmup"] * 4 + ["joint"] * 3
    assert [r.epoch for r in trace] == [1, 2, 3, 4, 5, 6, 7]
    assert all(np.isfinite(r.loss) for r in trace)


def test_run_structural_reduces_recon_loss():
    a_groups, i_groups, target, mask_a, mask_i, rcfg = _small_scene()
    trace = run_structural(a_groups, i_groups, target, mask_a, mask_i,
                           Schedule(), rcfg)
    joint = [r.loss for r in trace if r.stage == "joint"]
    assert len(joint) == 50
    assert joint[-1] < 0.1 * joint[0]


def test_run_structural_deterministic():
    results = []
    for _ in range(2):
        a_groups, i_groups, target, mask_a, mask_i, rcfg = _small_scene()
        run_structural(a_groups, i_groups, target, mask_a, mask_i,
                       Schedule(warmup_epochs=5, joint_epochs=5), rcfg)
        results.append(copy.deepcopy(a_groups + i_groups))
    for g1, g2 in zip(results[0], results[1]):
        for p1, p2 in zip(g1, g2):
            assert np.array_equal(p1.control_points, p2.control_points)
            assert np.array_equal(p1.fill_color, p2.fill_color)
            assert p1.opacity == p2.opacity


def test_run_structural_preserves_invariants():
    a_groups, i_groups, target, mask_a, mask_i, rcfg = _small_scene()
    # colors start at a box corner so projection must engage
    a_groups[0][0].fill_color = np.array([0.0, 1.0, 0.5])
    run_structural(a_groups, i_groups, target, mask_a, mask_i,
                   Schedule(warmup_epochs=10, joint_epochs=10), rcfg)
    for g in a_groups:
        for p in g:
            assert p.control_points.shape[0] % 3 == 0
            assert p.fill_color.min() >= 0.0 and p.fill_color.max() <= 1.0
            assert 0.0 < p.opacity < 1.0
    for g in i_groups:
        for p in g:
            assert p.fill_color.min() >= 0.0
            assert 0.0 < p.opacity < 1.0


def test_layer_optimizer_states_independent():
    paths = [square_path(1, 1, 6, 6), square_path(8, 8, 14, 14)]
    opt = LayerOptimizer(paths)
    before_pts = paths[1].control_points.copy()
    grads = [zero_gradient(paths[0]), zero_gradient(paths[1])]
    grads[0].d_control_points += 1.0
    grads[0].d_fill_color += 0.5
    opt.step(grads)
    assert not np.array_equal(paths[0].control_points,
                              square_control_points(1, 1, 6, 6))
    assert np.array_equal(paths[1].control_points, before_pts)
    assert np.array_equal(opt.point_states[1].m,
                          np.zeros_like(opt.point_states[1].m))
    assert opt.point_states[0].step == opt.point_states[1].step == 1


def test_layer_optimizer_grad_count_mismatch():
    opt = LayerOptimizer([square_path(0, 0, 4, 4)])
    with pytest.raises(ValueError, match="gradient count"):
        opt.step([])


def test_schedule_validation():
    for bad in ({"warmup_epochs": -1}, {"joint_epochs": -1}):
        with pytest.raises(ValueError):
            Schedule(**bad)


# tracemalloc peak of one loss_recon on the 128 x 128 scene below, in MiB:
# 39.2 with window-local records; whole-canvas alpha, under and
# transmittance stacks reach 48.1.
LOSS_RECON_128_PEAK_MIB = 44.0


def test_loss_recon_memory_on_a_128_canvas():
    # 16 albedo and 8 illumination disks, each window (a 30 px pad) smaller
    # than the canvas
    rng = np.random.default_rng(0)
    albedo = [disk_path(*rng.uniform(16, 112, 2), rng.uniform(6, 20),
                        color=rng.uniform(0.1, 0.9, 3), opacity=float(rng.uniform(0.5, 1.0)))
              for _ in range(16)]
    illumination = [disk_path(*rng.uniform(16, 112, 2), rng.uniform(6, 20),
                              color=rng.uniform(0.3, 1.4, 3),
                              opacity=float(rng.uniform(0.5, 1.0)), tag="illumination")
                    for _ in range(8)]
    target = rng.uniform(0, 1, (128, 128, 3))
    tracemalloc.start()
    try:
        loss_recon(albedo, illumination, target, RasterizerConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < LOSS_RECON_128_PEAK_MIB
