import math

import numpy as np
import pytest

from tubekit.anchors import MatchAssignment
from tubekit.losses import (
    GradCheckReport,
    LossBreakdown,
    LossInputs,
    encode_box_sequence,
    finite_difference,
    grad_check,
    hard_negative_mining,
    run_grad_check,
    smooth_l1,
    smooth_l1_grad,
    softmax_cross_entropy,
    softmax_cross_entropy_grad,
    total_loss,
)
from tubekit.geometry import BoundingBox


class TestSmoothL1:
    def test_zero_at_target(self):
        assert smooth_l1([1.0, -2.0, 3.0], [1.0, -2.0, 3.0]) == 0.0

    def test_quadratic_branch(self):
        # 0.5 * 0.5^2 = 0.125
        assert smooth_l1([0.5], [0.0]) == pytest.approx(0.125)

    def test_linear_branch(self):
        # |2| - 0.5 = 1.5
        assert smooth_l1([2.0], [0.0]) == pytest.approx(1.5)

    def test_sums_over_coordinates(self):
        assert smooth_l1([0.5, 2.0], [0.0, 0.0]) == pytest.approx(0.125 + 1.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            smooth_l1([1.0], [1.0, 2.0])


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        for n in (2, 4, 22):
            assert softmax_cross_entropy([0.0] * n, 0) == pytest.approx(math.log(n))

    def test_confident_correct(self):
        # log(1 + e^-20)
        assert softmax_cross_entropy([10.0, -10.0], 0) == pytest.approx(
            math.log1p(math.exp(-20.0)), rel=1e-12
        )

    def test_saturating_limit(self):
        assert softmax_cross_entropy([50.0, 0.0], 0) == pytest.approx(0.0, abs=1e-12)

    def test_large_logits_stable(self):
        v = softmax_cross_entropy([1000.0, 999.0], 1)
        assert math.isfinite(v)
        assert v == pytest.approx(math.log1p(math.exp(1.0)), rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy([0.0, 0.0], 2)
        with pytest.raises(ValueError, match="out of range"):
            softmax_cross_entropy(np.zeros((3, 2)), np.array([0, 1, 2]))

    def test_batch_equals_row_calls(self):
        rng = np.random.default_rng(13)
        for n_classes in (2, 4, 9, 22):
            logits = rng.normal(0.0, 5.0, size=(500, n_classes))
            labels = rng.integers(0, n_classes, size=500)
            per_row = softmax_cross_entropy(logits, labels)
            assert per_row.shape == (500,)
            assert per_row.tolist() == [softmax_cross_entropy(z, int(k))
                                        for z, k in zip(logits, labels)]
            one_label = softmax_cross_entropy(logits, n_classes - 1)
            assert one_label.tolist() == [softmax_cross_entropy(z, n_classes - 1) for z in logits]
        assert softmax_cross_entropy(np.zeros((0, 3)), 2).shape == (0,)


class TestHardNegativeMining:
    def test_three_to_one_quota(self):
        rng = np.random.default_rng(0)
        losses = rng.uniform(0.0, 5.0, size=10)
        picked = hard_negative_mining(losses, n_matched=1, ratio=3.0)
        expect = np.argsort(-losses, kind="stable")[:3]
        assert list(picked) == list(expect)

    def test_zero_matches_selects_one(self):
        picked = hard_negative_mining([0.1, 0.9, 0.4], n_matched=0)
        assert list(picked) == [1]

    def test_fewer_negatives_than_quota(self):
        picked = hard_negative_mining([0.5, 0.2], n_matched=4, ratio=3.0)
        assert sorted(picked) == [0, 1]

    def test_ties_prefer_lower_index(self):
        picked = hard_negative_mining([1.0, 1.0, 1.0], n_matched=1, ratio=2.0)
        assert list(picked) == [0, 1]

    def test_empty(self):
        assert len(hard_negative_mining([], n_matched=2)) == 0


def reference_total_loss(inputs):
    """The per-row objective: one cross-entropy call per prior and one
    smooth L1 call per matched prior and available prediction slot.
    Returns the breakdown and the selected hard-negative indices."""
    logits = np.asarray(inputs.class_logits, dtype=float)
    mask = np.asarray(inputs.prediction_mask, dtype=bool)
    n_priors = len(inputs.assignment.gt_index)
    n_slots = mask.shape[1]
    background = logits.shape[1] - 1
    matched = inputs.assignment.matched_priors()
    n_matched = len(matched)

    l_cls = 0.0
    for i in matched:
        l_cls += softmax_cross_entropy(logits[i], inputs.assignment.gt_class[i])
    negatives = [i for i in range(n_priors) if inputs.assignment.gt_index[i] < 0]
    neg_losses = np.array(
        [softmax_cross_entropy(logits[i], background) for i in negatives], dtype=float
    )
    hard = hard_negative_mining(neg_losses, n_matched, inputs.neg_pos_ratio)
    for k in hard:
        l_cls += float(neg_losses[k])

    l_reg = 0.0
    l_pred = 0.0
    for i in matched:
        l_reg += smooth_l1(inputs.microtube_outputs[i], inputs.microtube_targets[i])
        for slot in range(n_slots):
            if mask[i, slot]:
                sl = slice(4 * slot, 4 * slot + 4)
                l_pred += smooth_l1(inputs.prediction_outputs[i, sl],
                                    inputs.prediction_targets[i, sl])

    total = (l_cls + inputs.alpha * l_reg + inputs.beta * l_pred) / max(n_matched, 1)
    breakdown = LossBreakdown(total=total, l_cls=l_cls, l_reg=l_reg, l_pred=l_pred,
                              n_matched=n_matched)
    return breakdown, [negatives[k] for k in hard]


def simple_assignment(gt_index, gt_class):
    n = len(gt_index)
    iou = tuple(0.7 if g >= 0 else 0.0 for g in gt_index)
    n_gts = max((g for g in gt_index if g >= 0), default=-1) + 1
    forced = tuple(gt_index.index(j) for j in range(n_gts))
    return MatchAssignment(tuple(gt_index), tuple(gt_class), iou, forced)


def make_inputs(rng, n_priors=6, n_classes=3, n_future=2, margin=0.0):
    """Random loss inputs with priors 0..1 matched to gts 0..1."""
    assignment = simple_assignment(
        [0, 1] + [-1] * (n_priors - 2), [1, 2] + [-1] * (n_priors - 2)
    )
    width = 4 * (1 + n_future)
    logits = rng.normal(0.0, 1.0, size=(n_priors, n_classes + 1))
    for i, label in enumerate([1, 2]):
        logits[i, label] += margin
    return LossInputs(
        class_logits=logits,
        microtube_outputs=rng.normal(size=(n_priors, 8)),
        prediction_outputs=rng.normal(size=(n_priors, width)),
        assignment=assignment,
        microtube_targets=rng.normal(size=(n_priors, 8)),
        prediction_targets=rng.normal(size=(n_priors, width)),
        prediction_mask=np.ones((n_priors, 1 + n_future), dtype=bool),
        alpha=1.0,
        beta=1.0,
    )


class TestTotalLoss:
    def test_perfect_predictions_vanish(self):
        rng = np.random.default_rng(1)
        inputs = make_inputs(rng, margin=50.0)
        inputs.microtube_outputs = inputs.microtube_targets.copy()
        inputs.prediction_outputs = inputs.prediction_targets.copy()
        # negatives perfectly confident on background (last index)
        inputs.class_logits[2:] = 0.0
        inputs.class_logits[2:, -1] = 50.0
        out = total_loss(inputs)
        assert out.l_reg == 0.0
        assert out.l_pred == 0.0
        assert out.total == pytest.approx(0.0, abs=1e-12)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(2)
        inputs = make_inputs(rng)
        inputs.alpha, inputs.beta = 0.7, 2.5
        out = total_loss(inputs)
        assert out.n_matched == 2
        assert out.total == pytest.approx(
            (out.l_cls + 0.7 * out.l_reg + 2.5 * out.l_pred) / 2
        )

    def test_masked_slot_contributes_nothing(self):
        rng = np.random.default_rng(3)
        full = make_inputs(rng)
        masked = make_inputs(np.random.default_rng(3))
        masked.prediction_mask[0, 2] = False  # drop prior 0's last future box
        a = total_loss(full)
        b = total_loss(masked)
        dropped = smooth_l1(full.prediction_outputs[0, 8:12], full.prediction_targets[0, 8:12])
        assert b.l_pred == pytest.approx(a.l_pred - dropped)
        assert a.l_cls == b.l_cls and a.l_reg == b.l_reg

    def test_fully_masked_prediction_is_zero(self):
        rng = np.random.default_rng(4)
        inputs = make_inputs(rng)
        inputs.prediction_mask[:] = False
        assert total_loss(inputs).l_pred == 0.0

    def test_reduces_to_two_term_objective(self):
        # n = 0 future slots, past unavailable: total == (l_cls + alpha*l_reg) / N
        # exactly (the masked prediction term adds a literal 0.0)
        rng = np.random.default_rng(5)
        inputs = make_inputs(rng, n_future=0)
        inputs.prediction_mask[:] = False
        out = total_loss(inputs)
        assert out.l_pred == 0.0
        assert out.total == (out.l_cls + out.l_reg) / out.n_matched

        inputs.alpha = 0.7
        out = total_loss(inputs)
        assert out.total == (out.l_cls + 0.7 * out.l_reg) / out.n_matched

    def test_alpha_scales_only_regression(self):
        rng = np.random.default_rng(6)
        a = make_inputs(rng)
        b = make_inputs(np.random.default_rng(6))
        b.alpha = 2.0
        out_a, out_b = total_loss(a), total_loss(b)
        assert out_b.l_cls == out_a.l_cls
        assert out_b.l_reg == out_a.l_reg
        assert out_b.l_pred == out_a.l_pred
        assert out_b.total == pytest.approx(out_a.total + out_a.l_reg / out_a.n_matched)

    def test_no_matches_uses_single_hard_negative(self):
        rng = np.random.default_rng(7)
        n_priors, n_classes = 4, 2
        assignment = simple_assignment([-1] * n_priors, [-1] * n_priors)
        logits = rng.normal(size=(n_priors, n_classes + 1))
        inputs = LossInputs(
            class_logits=logits,
            microtube_outputs=np.zeros((n_priors, 8)),
            prediction_outputs=np.zeros((n_priors, 4)),
            assignment=assignment,
            microtube_targets=np.zeros((n_priors, 8)),
            prediction_targets=np.zeros((n_priors, 4)),
            prediction_mask=np.zeros((n_priors, 1), dtype=bool),
        )
        out = total_loss(inputs)
        hardest = max(softmax_cross_entropy(logits[i], n_classes) for i in range(n_priors))
        assert out.n_matched == 0
        assert out.total == pytest.approx(hardest)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        inputs = make_inputs(rng)
        out = total_loss(inputs)
        perm = np.array([3, 1, 5, 0, 4, 2])
        permuted = LossInputs(
            class_logits=inputs.class_logits[perm],
            microtube_outputs=inputs.microtube_outputs[perm],
            prediction_outputs=inputs.prediction_outputs[perm],
            assignment=MatchAssignment(
                tuple(inputs.assignment.gt_index[i] for i in perm),
                tuple(inputs.assignment.gt_class[i] for i in perm),
                tuple(inputs.assignment.match_iou[i] for i in perm),
                tuple(int(np.where(perm == f)[0][0]) for f in inputs.assignment.forced_prior),
            ),
            microtube_targets=inputs.microtube_targets[perm],
            prediction_targets=inputs.prediction_targets[perm],
            prediction_mask=inputs.prediction_mask[perm],
        )
        out_p = total_loss(permuted)
        assert out_p.total == pytest.approx(out.total, rel=1e-12)
        assert out_p.l_cls == pytest.approx(out.l_cls, rel=1e-12)

    def test_random_inputs_against_reference(self, monkeypatch):
        rng = np.random.default_rng(14)
        selected = []

        def recording_mining(neg_losses, n_matched, ratio):
            picked = hard_negative_mining(neg_losses, n_matched, ratio)
            selected.append(picked)
            return picked

        monkeypatch.setattr("tubekit.losses.hard_negative_mining", recording_mining)
        for _ in range(100):
            n_priors = int(rng.integers(1, 200))
            n_classes = int(rng.integers(1, 6))
            n_slots = int(rng.integers(1, 5))
            n_gts = int(rng.integers(1, 5))
            gt_index = np.where(rng.random(n_priors) < rng.random(), -1,
                                rng.integers(0, n_gts, size=n_priors))
            classes = rng.integers(0, n_classes, size=n_gts)
            gt_class = np.where(gt_index >= 0, classes[gt_index], -1)
            width = 4 * n_slots
            inputs = LossInputs(
                class_logits=rng.normal(0.0, 3.0, size=(n_priors, n_classes + 1)),
                microtube_outputs=rng.normal(size=(n_priors, 8)),
                prediction_outputs=rng.normal(0.0, 2.0, size=(n_priors, width)),
                assignment=MatchAssignment(tuple(gt_index.tolist()), tuple(gt_class.tolist()),
                                           (0.5,) * n_priors, ()),
                microtube_targets=rng.normal(size=(n_priors, 8)),
                prediction_targets=rng.normal(size=(n_priors, width)),
                prediction_mask=rng.random((n_priors, n_slots)) < 0.7,
                alpha=float(rng.uniform(0.0, 2.0)),
                beta=float(rng.uniform(0.0, 2.0)),
                neg_pos_ratio=float(rng.uniform(0.5, 4.0)),
            )
            selected.clear()
            out = total_loss(inputs)
            [picked] = selected
            expected, expected_hard = reference_total_loss(inputs)
            negatives = np.flatnonzero(gt_index < 0)
            assert negatives[picked].tolist() == expected_hard
            assert out.n_matched == expected.n_matched
            for name in ("total", "l_cls", "l_reg", "l_pred"):
                assert getattr(out, name) == pytest.approx(getattr(expected, name),
                                                           rel=1e-12, abs=0.0), name

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        inputs = make_inputs(rng)
        inputs.microtube_outputs = inputs.microtube_outputs[:, :7]
        with pytest.raises(ValueError):
            total_loss(inputs)


class TestEncodeBoxSequence:
    def test_flattens_offsets(self):
        prior = BoundingBox(0, 0, 10, 10)
        boxes = [BoundingBox(0, 0, 10, 10), BoundingBox(0, 0, 20, 20)]
        out = encode_box_sequence(boxes, prior, (0.1, 0.2))
        assert out.shape == (8,)
        np.testing.assert_allclose(out[:4], 0.0)
        assert out[4] == pytest.approx(5.0)


class TestGradCheck:
    def test_smooth_l1_interior_point(self):
        target = np.zeros(4)
        x = np.array([0.5, -0.3, 0.7, -0.5])
        err = grad_check(lambda v: smooth_l1(v, target),
                         lambda v: smooth_l1_grad(v, target), x)
        assert err < 1e-6

    def test_smooth_l1_linear_region(self):
        target = np.zeros(3)
        x = np.array([2.0, -3.0, 5.0])
        err = grad_check(lambda v: smooth_l1(v, target),
                         lambda v: smooth_l1_grad(v, target), x)
        assert err < 1e-6

    def test_cross_entropy_random_logits(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            z = rng.normal(0.0, 3.0, size=5)
            label = int(rng.integers(0, 5))
            err = grad_check(lambda v: softmax_cross_entropy(v, label),
                             lambda v: softmax_cross_entropy_grad(v, label), z)
            assert err < 1e-6

    def test_kink_is_genuinely_bad(self):
        # |d| = 1 exactly: central differences straddle the corner, which is
        # why the sweep excludes a margin around it.
        target = np.zeros(1)
        x = np.array([1.0])
        err = grad_check(lambda v: smooth_l1(v, target),
                         lambda v: smooth_l1_grad(v, target), x, epsilon=1e-4)
        assert err > 1e-6

    def test_finite_difference_on_quadratic(self):
        grad = finite_difference(lambda v: float(np.sum(v * v)), np.array([1.0, -2.0]))
        np.testing.assert_allclose(grad, [2.0, -4.0], atol=1e-8)

    def test_report_sweep_passes(self):
        report = run_grad_check(seed=0, trials=100)
        assert isinstance(report, GradCheckReport)
        assert report.worst < 1e-6
        assert report.passed(1e-4)
