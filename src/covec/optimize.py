"""Two-stage path optimization: structural warm-up, then joint reconstruction.

Each layer owns an independent Adam optimizer over its paths' control
points, fill colors, and opacities.  During warm-up every layer minimizes
its own structure loss (per-group MSE against flat mask renders plus a
soft overlap penalty on the group's gray alpha field, which
raster.source_over composites like any layer; its weight and threshold
are the constants LAMBDA_OVERLAP and DELTA_OVERLAP); afterwards both layers
step jointly on the reconstruction loss of the multiplied composite.
Opacities are optimized through a logistic reparameterization so they
stay strictly inside [0, 1]; colors are projected to their layer's valid
range after every step.

The package's one loss lives here: ``mse`` and ``layer_loss`` (image
gradient 2 * diff / N), which refinement, gradcheck, pipeline and edit call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit, logit

from .model import BLACK, WHITE, GradientBuffer, VectorPath, project_color
from .raster import (LayerRender, RasterizerConfig, coverage_backward, layer_backward,
                     layer_forward, source_over)

logger = logging.getLogger(__name__)

# Opacity every path is re-filled at in the overlap penalty's alpha field.
GRAY_ALPHA = 0.5

# Weight of the overlap penalty, and the alpha above which it starts.
LAMBDA_OVERLAP = 1e-8
DELTA_OVERLAP = 0.6

# Learning rates of control points, and of fill colors and opacity logits.
LR_POINTS = 1.0
LR_COLORS = 0.01

# Adam moment decay rates and denominator stabilizer.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class Schedule:
    """A run's four stage counts: warm-up and joint epochs (``--warmup``,
    ``--joint``), refinement rounds and Adam iterations per round
    (``--rounds``, ``--iters``); every Adam step uses the learning rates
    LR_POINTS and LR_COLORS."""

    warmup_epochs: int = 50
    joint_epochs: int = 50
    refine_rounds: int = 5
    refine_iters: int = 100

    def __post_init__(self):
        if min(self.warmup_epochs, self.joint_epochs, self.refine_rounds) < 0:
            raise ValueError("epoch and round counts must be nonnegative")
        if self.refine_iters < 1:
            raise ValueError("refine_iters must be >= 1")


@dataclass
class AdamState:
    """First/second moment accumulators and step counter for one tensor."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), step=0)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float) -> np.ndarray:
    """One bias-corrected Adam update; returns the new parameter value.

    The step counter advances even when a non-finite gradient forces a
    skip, so later bias corrections stay aligned across parameter groups.
    """
    state.step += 1
    grad = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(grad)):
        logger.warning("skipping Adam step %d: non-finite gradient", state.step)
        return np.asarray(param, dtype=np.float64)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    state.m = b1 * state.m + (1.0 - b1) * grad
    state.v = b2 * state.v + (1.0 - b2) * grad * grad
    m_hat = state.m / (1.0 - b1 ** state.step)
    v_hat = state.v / (1.0 - b2 ** state.step)
    return param - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


_OPACITY_CLIP = 1e-3  # keeps the logit finite for opacities at 0 or 1


class LayerOptimizer:
    """Independent Adam states for every path in one layer.

    Control points update at learning rate LR_POINTS; colors and the
    opacity logit at LR_COLORS.  After each step colors are projected into
    the layer's valid range and opacity is recovered from its logit, so
    every path invariant survives unconstrained gradient steps.
    """

    def __init__(self, paths: list[VectorPath]):
        self.paths = paths
        self.point_states = [AdamState.zeros(p.control_points.shape) for p in paths]
        self.color_states = [AdamState.zeros(3) for p in paths]
        self.opacity_states = [AdamState.zeros(()) for p in paths]
        self.opacity_logits = [
            float(logit(np.clip(p.opacity, _OPACITY_CLIP, 1.0 - _OPACITY_CLIP)))
            for p in paths
        ]

    def step(self, grads: list[GradientBuffer]) -> None:
        if len(grads) != len(self.paths):
            raise ValueError("gradient count does not match path count")
        for i, (path, g) in enumerate(zip(self.paths, grads)):
            path.control_points = adam_step(path.control_points, g.d_control_points,
                                            self.point_states[i], LR_POINTS)
            color = adam_step(path.fill_color, g.d_fill_color,
                              self.color_states[i], LR_COLORS)
            path.fill_color = project_color(color, path.layer_tag)
            s = expit(self.opacity_logits[i])
            d_logit = g.d_opacity * s * (1.0 - s)
            new_logit = adam_step(np.float64(self.opacity_logits[i]), d_logit,
                                  self.opacity_states[i], LR_COLORS)
            self.opacity_logits[i] = float(new_logit)
            path.opacity = float(expit(new_logit))


def descent_config(rcfg: RasterizerConfig) -> RasterizerConfig:
    """The config the optimiser differentiates: one sample per pixel.

    An Adam step needs only a direction, and with ``aa_sigma`` near a
    pixel the logistic already filters the edge, so the s x s grid of
    ``rcfg.supersample`` = s is folded into the logistic instead: its
    per-axis variance (s^2 - 1) / (12 s^2) is added to the logistic's
    pi^2 sigma^2 / 3, giving sigma'^2 = sigma^2 + (s^2 - 1) / (4 pi^2 s^2).
    At s = 1 ``rcfg`` itself comes back.  Everything a run decides on or
    outputs renders at ``rcfg``."""
    s = rcfg.supersample
    if s == 1:
        return rcfg
    sigma = np.sqrt(rcfg.aa_sigma ** 2 + (s * s - 1) / (4.0 * np.pi ** 2 * s * s))
    return replace(rcfg, supersample=1, aa_sigma=float(sigma))


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference over all pixels and channels."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def layer_loss(paths: list[VectorPath], background, factor, target: np.ndarray,
               rcfg: RasterizerConfig
               ) -> tuple[float, list[GradientBuffer], LayerRender]:
    """MSE of ``paths`` over ``background``, times the frozen ``factor``
    (WHITE for none), to the target; its image gradient is 2 * diff / N *
    factor.  Returns the loss, one buffer per path and the cached render."""
    height, width = target.shape[:2]
    render = layer_forward(paths, background, width, height, rcfg, with_grad=True)
    image = render.image * factor
    diff = image - target
    d_image = 2.0 * diff / diff.size * factor
    return mse(image, target), layer_backward(paths, render, d_image, rcfg), render


def loss_struct(groups: list[list[VectorPath]], mask_renders: list[np.ndarray],
                rcfg: RasterizerConfig) -> tuple[float, list[GradientBuffer]]:
    """Per-group MSE to the mask renders plus the overlap hinge penalty.

    Every group renders over white and is compared to its flat mask
    render through layer_loss.  The penalty's field is the same group
    composited by source_over over white from the same coverage maps,
    every path re-filled black at opacity GRAY_ALPHA: channel 0 of that
    image is the transmittance prod_i (1 - GRAY_ALPHA * coverage_i), so
    alpha = 1 - prod sits at 0.5 where one path covers a pixel and rises
    where paths stack.  The term adds LAMBDA_OVERLAP * sum_p
    max(alpha(p) - DELTA_OVERLAP, 0), so only stacked paths pay; a literal
    reading of the paper's hinge penalised alpha below the threshold
    instead, charging every uncovered pixel.  Alpha is differentiated by
    hand: d alpha / d coverage_i is GRAY_ALPHA times prod divided by path
    i's own factor.  Gradients from both terms accumulate into one buffer
    per path, ordered by group then path.
    """
    if len(groups) != len(mask_renders):
        raise ValueError("group count does not match mask render count")
    total = 0.0
    all_grads: list[GradientBuffer] = []
    for group, reference in zip(groups, mask_renders):
        loss, grads, render = layer_loss(group, WHITE, WHITE, reference, rcfg)
        total += loss
        if group:
            height, width = reference.shape[:2]
            gray = [replace(p, fill_color=BLACK, opacity=GRAY_ALPHA) for p in group]
            prod = source_over(gray, render.coverages, WHITE, width, height).image[:, :, 0]
            excess = (1.0 - prod) - DELTA_OVERLAP
            d_alpha = LAMBDA_OVERLAP * (excess > 0.0)
            total += LAMBDA_OVERLAP * float(np.maximum(excess, 0.0).sum())
            for i, pc in enumerate(render.coverages):
                r = pc.region
                d_cov = d_alpha[r] * GRAY_ALPHA * prod[r] / (1.0 - GRAY_ALPHA * pc.block)
                grads[i].d_control_points += coverage_backward(pc, d_cov, rcfg)
        all_grads.extend(grads)
    return total, all_grads


def loss_recon(albedo: list[VectorPath], illumination: list[VectorPath],
               target: np.ndarray, rcfg: RasterizerConfig
               ) -> tuple[float, list[GradientBuffer], list[GradientBuffer]]:
    """Mean squared error of the composite against the target image.

    The composite is the two-layer product A * I of the albedo and
    illumination renders, each over white, on the target's canvas.  With
    layer_loss's image gradient up = 2 * diff / N, each layer's backward
    pass takes the gradient times the other layer's render: up * I for the
    albedo, up * A for the illumination.  An empty illumination layer
    renders white, the identity of multiply, so the albedo render is
    compared directly and its gradients are [].
    """
    height, width = target.shape[:2]
    r_a = layer_forward(albedo, WHITE, width, height, rcfg, with_grad=True)
    r_i = layer_forward(illumination, WHITE, width, height, rcfg, with_grad=True)
    image = r_a.image * r_i.image
    diff = image - target
    up = 2.0 * diff / diff.size
    return (mse(image, target), layer_backward(albedo, r_a, up * r_i.image, rcfg),
            layer_backward(illumination, r_i, up * r_a.image, rcfg))


@dataclass
class TraceRow:
    """One optimization trace entry; stage is 'warmup', 'joint' or 'refine'."""

    epoch: int
    stage: str
    loss: float
    paths_added: int | None = None
    paths_removed: int | None = None


def run_structural(albedo_groups: list[list[VectorPath]],
                   illum_groups: list[list[VectorPath]],
                   target: np.ndarray,
                   mask_renders_a: list[np.ndarray],
                   mask_renders_i: list[np.ndarray],
                   schedule: Schedule,
                   rcfg: RasterizerConfig) -> list[TraceRow]:
    """Warm-up on per-layer structure losses, then joint reconstruction.

    Paths are updated in place.  Each layer keeps its own optimizer from
    start to finish; warm-up steps them on their own structure losses
    (the trace row holds the summed loss), joint epochs step both on the
    shared reconstruction loss.  Every step renders at
    ``descent_config(rcfg)``, so the trace rows hold the losses of those
    one-sample renders.  With no illumination groups (albedo-only mode)
    that layer adds 0.0 to every warm-up loss and takes no steps, and
    reconstruction compares the albedo render directly.
    """
    albedo_flat = [p for g in albedo_groups for p in g]
    illum_flat = [p for g in illum_groups for p in g]
    opt_a = LayerOptimizer(albedo_flat)
    opt_i = LayerOptimizer(illum_flat)
    descent = descent_config(rcfg)
    trace: list[TraceRow] = []
    for epoch in range(1, schedule.warmup_epochs + 1):
        loss_a, grads_a = loss_struct(albedo_groups, mask_renders_a, descent)
        opt_a.step(grads_a)
        loss_i, grads_i = loss_struct(illum_groups, mask_renders_i, descent)
        opt_i.step(grads_i)
        trace.append(TraceRow(epoch=epoch, stage="warmup", loss=loss_a + loss_i))
    for epoch in range(1, schedule.joint_epochs + 1):
        loss, grads_a, grads_i = loss_recon(albedo_flat, illum_flat, target, descent)
        opt_a.step(grads_a)
        opt_i.step(grads_i)
        trace.append(TraceRow(epoch=schedule.warmup_epochs + epoch,
                              stage="joint", loss=loss))
    return trace
