import math
import warnings

import numpy as np
import pytest

from tubekit.geometry import (
    BoundingBox,
    FrameSize,
    OffsetCode,
    clip_box,
    clip_boxes,
    decode_offsets,
    encode_offsets,
    extrapolate,
    iou,
    pairwise_iou,
)

from test_anchors import mean_iou_microtube
from test_linking import paired_mean_iou


def random_box(rng, lo=0.0, hi=100.0, min_side=10.0, max_side=60.0):
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    x = rng.uniform(lo, hi - w)
    y = rng.uniform(lo, hi - h)
    return BoundingBox(x, y, x + w, y + h)


def rasterized_iou(a, b, cell=2.0 ** -14):
    """Oracle: snap corners to a fine grid and count cells in integer math."""
    def snap(box):
        return np.rint(np.asarray(box.as_tuple()) / cell).astype(np.int64)

    ax0, ay0, ax1, ay1 = snap(a)
    bx0, by0, bx1, by1 = snap(b)
    iw = max(min(ax1, bx1) - max(ax0, bx0), 0)
    ih = max(min(ay1, by1) - max(ay0, by0), 0)
    inter = int(iw) * int(ih)
    area_a = int(ax1 - ax0) * int(ay1 - ay0)
    area_b = int(bx1 - bx0) * int(by1 - by0)
    if area_a == 0 or area_b == 0:
        return 0.0
    union = area_a + area_b - inter
    return inter / union


class TestBoundingBox:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            BoundingBox(5, 0, 0, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, math.nan, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, math.inf, 10)

    def test_degenerate_boxes_allowed(self):
        b = BoundingBox(3, 4, 3, 9)
        assert b.area == 0.0

    def test_center_size_roundtrip(self):
        b = BoundingBox(2.5, 3.0, 10.0, 20.0)
        again = BoundingBox.from_center_size(b.center_x, b.center_y, b.width, b.height)
        assert again.as_tuple() == pytest.approx(b.as_tuple())


class TestIoU:
    def test_identity(self):
        b = BoundingBox(0, 0, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 30, 30)) == 0.0

    def test_hand_computed_third(self):
        # intersection 5x10=50, union 100+100-50=150
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_degenerate_scores_zero(self):
        line = BoundingBox(0, 0, 0, 10)
        assert iou(line, BoundingBox(0, 0, 10, 10)) == 0.0
        assert iou(line, line) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)

    def test_matches_rasterization_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == pytest.approx(rasterized_iou(a, b), abs=1e-3)


class TestPairwiseIoU:
    """Every entry must equal the scalar ``iou`` exactly, with no numpy warning."""

    @staticmethod
    def assert_matches_scalar(boxes_a, boxes_b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pairwise_iou(np.array([b.as_tuple() for b in boxes_a]).reshape(-1, 4),
                               np.array([b.as_tuple() for b in boxes_b]).reshape(-1, 4))
        assert got.shape == (len(boxes_a), len(boxes_b))
        assert got.tolist() == [[iou(a, b) for b in boxes_b] for a in boxes_a]

    def test_random_boxes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = [random_box(rng) for _ in range(int(rng.integers(1, 30)))]
            b = [random_box(rng) for _ in range(int(rng.integers(1, 30)))]
            self.assert_matches_scalar(a, b)

    def test_zero_area_boxes(self):
        boxes = [
            BoundingBox(0, 0, 10, 10),
            BoundingBox(5, 5, 5, 5),      # point
            BoundingBox(2, 0, 2, 10),     # zero width inside the first box
            BoundingBox(0, 4, 10, 4),     # zero height inside the first box
            BoundingBox(3, 3, 8, 9),
        ]
        self.assert_matches_scalar(boxes, boxes)

    def test_touching_and_disjoint(self):
        boxes = [
            BoundingBox(0, 0, 10, 10),
            BoundingBox(10, 0, 20, 10),   # shares an edge
            BoundingBox(10, 10, 20, 20),  # shares a corner
            BoundingBox(0, -10, 10, 0),   # shares the bottom edge
            BoundingBox(30, 30, 40, 40),  # far away
            BoundingBox(-1e-9, 0, 1e-9, 10),
        ]
        self.assert_matches_scalar(boxes, boxes)

    def test_nested_and_identical(self):
        rng = np.random.default_rng(12)
        outer = [random_box(rng) for _ in range(10)]
        inner = [BoundingBox(b.x_min + 1, b.y_min + 2, b.x_max - 3, b.y_max - 1) for b in outer]
        self.assert_matches_scalar(outer + inner, outer + inner + outer)
        got = pairwise_iou(np.array([b.as_tuple() for b in outer]),
                           np.array([b.as_tuple() for b in outer]))
        assert np.all(np.diag(got) == 1.0)

    def test_empty_sides(self):
        self.assert_matches_scalar([], [BoundingBox(0, 0, 1, 1)])
        self.assert_matches_scalar([BoundingBox(0, 0, 1, 1)], [])

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="must be"):
            pairwise_iou(np.zeros((2, 3)), np.zeros((2, 4)))


class TestMeanIoUMicrotube:
    def test_identity(self):
        b = BoundingBox(0, 0, 10, 10)
        assert mean_iou_microtube(b, [b, b]) == 1.0

    def test_disjoint(self):
        p = BoundingBox(0, 0, 10, 10)
        g = BoundingBox(50, 50, 60, 60)
        assert mean_iou_microtube(p, [g, g]) == 0.0

    def test_mean_of_two(self):
        p = BoundingBox(0, 0, 10, 10)
        assert mean_iou_microtube(p, [p, BoundingBox(5, 0, 15, 10)]) == pytest.approx(
            (1.0 + 1 / 3) / 2
        )

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty micro-tube"):
            mean_iou_microtube(BoundingBox(0, 0, 10, 10), [])


class TestPairedMeanIoU:
    def test_aligned_pairs(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 0, 15, 10)
        assert paired_mean_iou([a, a], [a, b]) == pytest.approx((1.0 + 1 / 3) / 2)

    def test_length_mismatch(self):
        a = BoundingBox(0, 0, 10, 10)
        with pytest.raises(ValueError, match="length mismatch"):
            paired_mean_iou([a], [a, a])


class TestOffsets:
    def test_identity_encoding(self):
        p = BoundingBox(10, 10, 30, 50)
        code = encode_offsets(p, p)
        assert code.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_hand_computed(self):
        # prior 10x10 at center (5,5); box 20x20 at center (10,10)
        # d_cx = (10-5)/(10*0.1) = 5, d_w = log(2)/0.2
        code = encode_offsets(
            BoundingBox(0, 0, 20, 20), BoundingBox(0, 0, 10, 10), variances=(0.1, 0.2)
        )
        assert code.d_cx == pytest.approx(5.0)
        assert code.d_cy == pytest.approx(5.0)
        assert code.d_w == pytest.approx(math.log(2) / 0.2)
        assert code.d_h == pytest.approx(math.log(2) / 0.2)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            box, prior = random_box(rng), random_box(rng)
            decoded = decode_offsets(encode_offsets(box, prior), prior)
            np.testing.assert_allclose(decoded.as_tuple(), box.as_tuple(), rtol=1e-9, atol=1e-9)

    def test_degenerate_rejected(self):
        flat = BoundingBox(0, 0, 10, 0)
        full = BoundingBox(0, 0, 10, 10)
        with pytest.raises(ValueError, match="degenerate box"):
            encode_offsets(flat, full)
        with pytest.raises(ValueError, match="degenerate box"):
            encode_offsets(full, flat)

    def test_nonfinite_code_rejected(self):
        with pytest.raises(ValueError):
            OffsetCode(0.0, 0.0, 1.0, 1.0, v_center=0.0)
        code = OffsetCode(math.inf, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            decode_offsets(code, BoundingBox(0, 0, 10, 10))


class TestClipBox:
    frame = FrameSize(320, 240)

    def test_inside_unchanged(self):
        b = BoundingBox(10, 10, 100, 100)
        assert clip_box(b, self.frame) == b

    def test_clamp_at_zero(self):
        assert clip_box(BoundingBox(-5, -5, 10, 10), self.frame) == BoundingBox(0, 0, 10, 10)

    def test_clamp_at_width(self):
        assert clip_box(BoundingBox(300, 0, 400, 100), self.frame) == BoundingBox(300, 0, 320, 100)

    def test_idempotent_and_in_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            b = random_box(rng, lo=-200.0, hi=500.0)
            c = clip_box(b, self.frame)
            assert clip_box(c, self.frame) == c
            assert 0 <= c.x_min <= c.x_max <= self.frame.width
            assert 0 <= c.y_min <= c.y_max <= self.frame.height

    def test_array_form_matches_scalar(self):
        # Signed zeros too: max(-0.0, 0.0) keeps -0.0, np.maximum would not.
        rng = np.random.default_rng(5)
        rows = rng.uniform(-100, 400, size=(200, 4))
        rows[:, 2:] = np.maximum(rows[:, :2], rows[:, 2:])
        rows[:20] = [[-0.0, -0.0, 0.0, 0.0], [-0.0, 5.0, 320.0, 240.0]] * 10
        clipped = clip_boxes(rows, self.frame)
        for row, got in zip(rows.tolist(), clipped.tolist()):
            want = clip_box(BoundingBox(*row), self.frame).as_tuple()
            assert list(map(repr, got)) == list(map(repr, want))

    def test_fully_outside_collapses_but_survives(self):
        gone = clip_box(BoundingBox(400, 50, 450, 90), self.frame)
        assert gone.area == 0.0
        assert iou(gone, BoundingBox(0, 0, 320, 240)) == 0.0


def extrapolate_pairs(history, target_frames, frame):
    """``extrapolate`` on ``(frame, box)`` pairs, with its rows back as boxes."""
    out = extrapolate([f for f, _ in history], [b.as_tuple() for _, b in history],
                      target_frames, frame)
    assert out.shape == (len(target_frames), 4)
    return [BoundingBox(*row) for row in out.tolist()]


class TestExtrapolate:
    frame = FrameSize(320, 240)

    def test_constant_history_stays_put(self):
        b = BoundingBox(50, 50, 90, 90)
        history = [(t, b) for t in range(1, 6)]
        for out in extrapolate_pairs(history, [6, 9, 20], self.frame):
            assert out == b

    def test_constant_velocity_continuation(self):
        # +2 px/frame in x over 5 frames; 3 frames ahead means +6 px
        history = [(t, BoundingBox(10 + 2 * t, 20, 40 + 2 * t, 60)) for t in range(1, 6)]
        out = extrapolate_pairs(history, [8], self.frame)[0]
        assert out == BoundingBox(10 + 2 * 8, 20, 40 + 2 * 8, 60)

    def test_clipped_at_right_edge(self):
        history = [(t, BoundingBox(250 + 10 * t, 0, 290 + 10 * t, 40)) for t in range(1, 4)]
        out = extrapolate_pairs(history, [7], self.frame)[0]
        assert out.x_max == 320.0

    def test_affine_history_exact_before_clipping(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            x0, y0 = rng.uniform(100, 150, size=2)
            w, h = rng.uniform(20, 40, size=2)
            vx, vy = rng.uniform(-1.5, 1.5, size=2)
            history = [
                (t, BoundingBox(x0 + vx * t, y0 + vy * t, x0 + w + vx * t, y0 + h + vy * t))
                for t in range(1, 8)
            ]
            target = 12
            out = extrapolate_pairs(history, [target], self.frame)[0]
            expect = (x0 + vx * target, y0 + vy * target,
                      x0 + w + vx * target, y0 + h + vy * target)
            np.testing.assert_allclose(out.as_tuple(), expect, rtol=1e-9, atol=1e-9)

    def test_short_history_uses_all(self):
        history = [(1, BoundingBox(0, 0, 10, 10)), (2, BoundingBox(3, 0, 13, 10))]
        out = extrapolate_pairs(history, [4], self.frame)[0]
        assert out == BoundingBox(9, 0, 19, 10)

    def test_window_limits_lookback(self):
        # one old outlier beyond the 5-entry window must not affect velocity
        history = [(0, BoundingBox(200, 200, 220, 220))]
        history += [(t, BoundingBox(10 + t, 20, 30 + t, 40)) for t in range(1, 6)]
        out = extrapolate_pairs(history, [6], self.frame)[0]
        assert out == BoundingBox(16, 20, 36, 40)

    def test_insufficient_history(self):
        with pytest.raises(ValueError, match="insufficient history"):
            extrapolate_pairs([(1, BoundingBox(0, 0, 10, 10))], [2], self.frame)

    def test_targets_must_follow_history(self):
        history = [(1, BoundingBox(0, 0, 10, 10)), (2, BoundingBox(0, 0, 10, 10))]
        with pytest.raises(ValueError, match="target frames"):
            extrapolate_pairs(history, [2], self.frame)

    def test_shrinking_box_collapses_instead_of_inverting(self):
        history = [
            (t, BoundingBox(10 * t, 0, 100 - 10 * t, 50)) for t in range(1, 5)
        ]
        out = extrapolate_pairs(history, [20], self.frame)[0]
        assert out.x_min <= out.x_max
