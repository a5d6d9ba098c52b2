"""Training objective as verifiable numeric functions.

The objective for one sample is

    total = (l_cls + alpha * l_reg + beta * l_pred) / max(N, 1)

where N is the number of matched priors, ``l_cls`` is softmax
cross-entropy over matched priors plus mined hard negatives, ``l_reg`` is
smooth L1 over the 8 micro-tube coordinates of matched priors, and
``l_pred`` is smooth L1 over the available past/future coordinates of
matched priors (an availability mask zeroes box slots that have no ground
truth, e.g. near video boundaries). Class layout everywhere in this
package: real classes occupy indices ``0..C-1`` and the background class
is the last index ``C``.

Analytic gradients for both elementary losses are provided so the whole
objective can be checked against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .anchors import MatchAssignment
from .geometry import BoundingBox, encode_offsets

DEFAULT_NEG_POS_RATIO = 3.0


def smooth_l1(pred: Sequence[float], target: Sequence[float]) -> float:
    """Smooth L1 (Huber at delta=1) summed over all coordinates.

    ``pred`` and ``target`` may have any shape, as long as it is the same.

    Per coordinate with d = pred - target:
        0.5 * d^2        if |d| < 1
        |d| - 0.5        otherwise
    """
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    d = p - t
    a = np.abs(d)
    return float(np.sum(np.where(a < 1.0, 0.5 * d * d, a - 0.5)))


def smooth_l1_grad(pred: Sequence[float], target: Sequence[float]) -> np.ndarray:
    """Gradient of :func:`smooth_l1` with respect to ``pred``.

    Equals d where |d| < 1 and sign(d) outside; the kink at |d| = 1 is
    non-differentiable and excluded from gradient checks.
    """
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    return np.clip(p - t, -1.0, 1.0)


def softmax_cross_entropy(
    logits: Sequence[float] | np.ndarray, label: int | np.ndarray
) -> float | np.ndarray:
    """-log softmax(logits)[label] over the last axis, with max-subtraction.

    One row of logits gives a float. A batch (N, C) gives an array of N
    losses, each equal to the call on its row; ``label`` is then one class
    for every row or one per row.
    """
    z = np.asarray(logits, dtype=float)
    labels = np.asarray(label)
    if np.any((labels < 0) | (labels >= z.shape[-1])):
        raise ValueError(f"label {label} out of range for {z.shape[-1]} classes")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=-1))
    rows = np.broadcast_to(labels, z.shape[:-1])[..., None]
    loss = log_norm - np.take_along_axis(shifted, rows, axis=-1)[..., 0]
    return float(loss) if z.ndim == 1 else loss


def softmax_cross_entropy_grad(logits: Sequence[float], label: int) -> np.ndarray:
    """Gradient of :func:`softmax_cross_entropy`: softmax(z) - onehot(label)."""
    z = np.asarray(logits, dtype=float)
    if not 0 <= label < z.shape[-1]:
        raise ValueError(f"label {label} out of range for {z.shape[-1]} classes")
    e = np.exp(z - np.max(z))
    g = e / np.sum(e)
    g[label] -= 1.0
    return g


def hard_negative_mining(
    negative_losses: Sequence[float],
    n_matched: int,
    ratio: float = DEFAULT_NEG_POS_RATIO,
) -> np.ndarray:
    """Select the hardest negatives for the classification loss.

    Keeps the ``min(floor(ratio * n_matched), len(negative_losses))``
    highest-loss entries, ties broken by lower index. With no matches at
    all a single hardest negative is still selected so the loss keeps a
    training signal.

    Returns indices into ``negative_losses`` in selection order.
    """
    if ratio <= 0.0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    losses = np.asarray(negative_losses, dtype=float)
    if losses.size == 0:
        return np.empty(0, dtype=int)
    quota = int(ratio * n_matched) if n_matched > 0 else 1
    quota = min(quota, losses.size)
    order = np.lexsort((np.arange(losses.size), -losses))
    return order[:quota]


@dataclass
class LossInputs:
    """One sample's network outputs, matched targets and weights.

    Target rows for unmatched priors are ignored. ``prediction_mask`` has
    one flag per 4-coordinate box slot of the prediction head (slot 0 is
    the past box, slots 1..n the future boxes); unavailable slots
    contribute nothing to ``l_pred``.
    """

    class_logits: np.ndarray        # (P, C+1), background last
    microtube_outputs: np.ndarray   # (P, 8)
    prediction_outputs: np.ndarray  # (P, 4*(1+n))
    assignment: MatchAssignment
    microtube_targets: np.ndarray   # (P, 8), encoded offsets
    prediction_targets: np.ndarray  # (P, 4*(1+n)), encoded offsets
    prediction_mask: np.ndarray     # (P, 1+n) bool
    alpha: float = 1.0
    beta: float = 1.0
    neg_pos_ratio: float = DEFAULT_NEG_POS_RATIO


@dataclass(frozen=True)
class LossBreakdown:
    """Unnormalized loss sums and the normalized total.

    ``total == (l_cls + alpha * l_reg + beta * l_pred) / max(n_matched, 1)``.
    """

    total: float
    l_cls: float
    l_reg: float
    l_pred: float
    n_matched: int


def total_loss(inputs: LossInputs) -> LossBreakdown:
    """Evaluate the multi-task objective for one sample."""
    logits = np.asarray(inputs.class_logits, dtype=float)
    mt_out = np.asarray(inputs.microtube_outputs, dtype=float)
    pred_out = np.asarray(inputs.prediction_outputs, dtype=float)
    mt_tgt = np.asarray(inputs.microtube_targets, dtype=float)
    pred_tgt = np.asarray(inputs.prediction_targets, dtype=float)
    mask = np.asarray(inputs.prediction_mask, dtype=bool)

    n_priors = len(inputs.assignment.gt_index)
    if logits.ndim != 2 or logits.shape[0] != n_priors or logits.shape[1] < 2:
        raise ValueError(f"class logits must be (P, C+1) with P={n_priors}, got {logits.shape}")
    if mt_out.shape != (n_priors, 8) or mt_tgt.shape != (n_priors, 8):
        raise ValueError(
            f"micro-tube arrays must be ({n_priors}, 8), got {mt_out.shape} and {mt_tgt.shape}"
        )
    if pred_out.shape != pred_tgt.shape or pred_out.ndim != 2 or pred_out.shape[0] != n_priors:
        raise ValueError(
            f"prediction arrays must share shape (P, 4*(1+n)), got {pred_out.shape} and {pred_tgt.shape}"
        )
    if pred_out.shape[1] % 4 != 0:
        raise ValueError(f"prediction width must be a multiple of 4, got {pred_out.shape[1]}")
    n_slots = pred_out.shape[1] // 4
    if mask.shape != (n_priors, n_slots):
        raise ValueError(f"prediction mask must be ({n_priors}, {n_slots}), got {mask.shape}")
    if inputs.alpha < 0.0 or inputs.beta < 0.0:
        raise ValueError(f"alpha and beta must be >= 0, got ({inputs.alpha}, {inputs.beta})")

    background = logits.shape[1] - 1
    gt_index = np.asarray(inputs.assignment.gt_index, dtype=int)
    matched = np.flatnonzero(gt_index >= 0)
    n_matched = len(matched)
    labels = np.asarray(inputs.assignment.gt_class, dtype=int)[matched]
    bad = np.flatnonzero((labels < 0) | (labels >= background))
    if bad.size:
        i, label = matched[bad[0]], labels[bad[0]]
        raise ValueError(f"matched prior {i} has class {label} outside 0..{background - 1}")

    l_cls = float(np.sum(softmax_cross_entropy(logits[matched], labels)))
    neg_losses = softmax_cross_entropy(logits[gt_index < 0], background)
    hard = hard_negative_mining(neg_losses, n_matched, inputs.neg_pos_ratio)
    l_cls += float(np.sum(neg_losses[hard]))

    l_reg = smooth_l1(mt_out[matched], mt_tgt[matched])
    slots = mask[matched]
    l_pred = smooth_l1(pred_out[matched].reshape(n_matched, n_slots, 4)[slots],
                       pred_tgt[matched].reshape(n_matched, n_slots, 4)[slots])

    total = (l_cls + inputs.alpha * l_reg + inputs.beta * l_pred) / max(n_matched, 1)
    return LossBreakdown(total=total, l_cls=l_cls, l_reg=l_reg, l_pred=l_pred, n_matched=n_matched)


def encode_box_sequence(
    boxes: Sequence[BoundingBox],
    prior: BoundingBox,
    variances: tuple[float, float],
) -> np.ndarray:
    """Encode a sequence of boxes against one prior into a flat 4k vector."""
    out = np.empty(4 * len(boxes), dtype=float)
    for k, b in enumerate(boxes):
        out[4 * k: 4 * k + 4] = encode_offsets(b, prior, variances).as_tuple()
    return out


def finite_difference(
    fn: Callable[[np.ndarray], float],
    x: np.ndarray,
    epsilon: float = 1e-6,
) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = epsilon
        grad.flat[i] = (fn(x + step) - fn(x - step)) / (2.0 * epsilon)
    return grad


def grad_check(
    fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    epsilon: float = 1e-6,
) -> float:
    """Worst normalized error between analytic and numeric gradients at x.

    Per coordinate the error is |analytic - numeric| / max(1, |analytic|,
    |numeric|), i.e. absolute for small gradients and relative for large
    ones.
    """
    analytic = np.asarray(grad_fn(x), dtype=float)
    numeric = finite_difference(fn, x, epsilon)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


@dataclass(frozen=True)
class GradCheckReport:
    """Worst gradient errors over the sampled check points."""

    smooth_l1_error: float
    cross_entropy_error: float
    trials: int
    epsilon: float

    @property
    def worst(self) -> float:
        return max(self.smooth_l1_error, self.cross_entropy_error)

    def passed(self, tolerance: float = 1e-4) -> bool:
        return self.worst < tolerance


def run_grad_check(
    seed: int = 0,
    trials: int = 100,
    epsilon: float = 1e-6,
    kink_margin: float = 0.05,
) -> GradCheckReport:
    """Gradient-check both elementary losses at random points.

    Smooth L1 is sampled away from its |d| = 1 kinks (within
    ``kink_margin`` the loss is non-differentiable and central differences
    straddle the corner, so those points are excluded by construction).
    """
    rng = np.random.default_rng(seed)
    worst_sl1 = 0.0
    worst_ce = 0.0
    for _ in range(trials):
        target = rng.uniform(-3.0, 3.0, size=8)
        d = rng.uniform(-2.5, 2.5, size=8)
        d[np.abs(np.abs(d) - 1.0) < kink_margin] = 0.5
        pred = target + d
        err = grad_check(
            lambda x: smooth_l1(x, target),
            lambda x: smooth_l1_grad(x, target),
            pred,
            epsilon,
        )
        worst_sl1 = max(worst_sl1, err)

        n_classes = int(rng.integers(2, 12))
        logits = rng.normal(0.0, 3.0, size=n_classes)
        label = int(rng.integers(0, n_classes))
        err = grad_check(
            lambda z: softmax_cross_entropy(z, label),
            lambda z: softmax_cross_entropy_grad(z, label),
            logits,
            epsilon,
        )
        worst_ce = max(worst_ce, err)
    return GradCheckReport(
        smooth_l1_error=worst_sl1,
        cross_entropy_error=worst_ce,
        trials=trials,
        epsilon=epsilon,
    )
