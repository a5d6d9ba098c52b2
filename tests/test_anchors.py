import numpy as np
import pytest

from tubekit.anchors import (
    MatchAssignment,
    MicroTubeTarget,
    PriorBoxSet,
    PriorBoxSpec,
    default_prior_spec,
    generate_priors,
    match_priors,
)
from tubekit.geometry import BoundingBox, FrameSize, iou


def mean_iou_microtube(prior: BoundingBox, gt_boxes) -> float:
    """Arithmetic mean of ``iou(prior, g)`` over the boxes of one micro-tube.

    The overlap of a single prior with a ground-truth micro-tube (a box per
    involved frame): the scalar oracle of the overlaps in ``match_priors``.
    """
    if not gt_boxes:
        raise ValueError("empty micro-tube")
    return sum(iou(prior, g) for g in gt_boxes) / len(gt_boxes)


def random_box(rng, extent=100.0, min_side=8.0, max_side=50.0):
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    x = rng.uniform(0.0, extent - w)
    y = rng.uniform(0.0, extent - h)
    return BoundingBox(x, y, x + w, y + h)


def grid_box(rng, extent=8, max_side=4):
    """A box with integer corners: many pairs share exactly the same IoU."""
    w, h = (int(v) for v in rng.integers(1, max_side + 1, size=2))
    x = int(rng.integers(0, extent - w + 1))
    y = int(rng.integers(0, extent - h + 1))
    return BoundingBox(x, y, x + w, y + h)


def reference_match_priors(priors, gts, threshold=0.5):
    """The scalar matcher: a P x G table of ``mean_iou_microtube`` calls, a
    walk over all pairs sorted by descending overlap for the forced pass,
    then a per-prior best ground truth for the threshold pass."""
    n_priors = len(priors.boxes)
    n_gts = len(gts)
    gt_index = [-1] * n_priors
    gt_class = [-1] * n_priors
    match_iou = [0.0] * n_priors
    forced_prior = [-1] * n_gts
    if n_gts == 0:
        return MatchAssignment(tuple(gt_index), tuple(gt_class), tuple(match_iou), ())

    overlap = overlap_matrix(priors, gts)
    pairs = sorted(
        ((overlap[i][j], i, j) for i in range(n_priors) for j in range(n_gts)),
        key=lambda p: (-p[0], p[1], p[2]),
    )
    for ov, i, j in pairs:
        if forced_prior[j] == -1 and gt_index[i] == -1:
            forced_prior[j] = i
            gt_index[i] = j
            gt_class[i] = gts[j].class_id
            match_iou[i] = ov
            if all(f >= 0 for f in forced_prior):
                break

    for i in range(n_priors):
        if gt_index[i] >= 0:
            continue
        best_j = max(range(n_gts), key=lambda j: (overlap[i][j], -j))
        if overlap[i][best_j] >= threshold:
            gt_index[i] = best_j
            gt_class[i] = gts[best_j].class_id
            match_iou[i] = overlap[i][best_j]

    return MatchAssignment(tuple(gt_index), tuple(gt_class), tuple(match_iou), tuple(forced_prior))


def overlap_matrix(priors, gts):
    return [[mean_iou_microtube(p, gt.boxes) for gt in gts] for p in priors.boxes]


def oracle_forced_matches(overlap, n_gts):
    """Independent greedy: repeatedly take the globally best free pair."""
    forced = {}
    used_priors = set()
    while len(forced) < n_gts:
        best = None
        for i, row in enumerate(overlap):
            if i in used_priors:
                continue
            for j in range(n_gts):
                if j in forced:
                    continue
                key = (-row[j], i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        forced[j] = i
        used_priors.add(i)
    return forced


class TestGeneratePriors:
    def test_full_frame_anchor(self):
        spec = PriorBoxSpec(
            grids=((1, 1),), scales=(1.0,), aspect_ratios=(1.0,), frame=FrameSize(100, 100)
        )
        priors = generate_priors(spec)
        assert len(priors) == 1
        assert priors.boxes[0] == BoundingBox(0, 0, 100, 100)

    def test_two_by_two_layout(self):
        spec = PriorBoxSpec(
            grids=((2, 2),), scales=(0.5,), aspect_ratios=(1.0,), frame=FrameSize(100, 100)
        )
        priors = generate_priors(spec)
        centers = [(b.center_x, b.center_y) for b in priors.boxes]
        assert centers == [(25, 25), (75, 25), (25, 75), (75, 75)]
        for b in priors.boxes:
            assert (b.width, b.height) == (50, 50)

    def test_aspect_ratio_definition(self):
        frame = FrameSize(300, 200)
        spec = PriorBoxSpec(grids=((1, 1),), scales=(0.4,), aspect_ratios=(2.0,), frame=frame)
        box = generate_priors(spec).boxes[0]
        assert box.width / box.height == pytest.approx(2.0)
        assert box.area == pytest.approx(0.4 ** 2 * 300 * 200)

    def test_count_and_ordering(self):
        spec = PriorBoxSpec(
            grids=((2, 3), (1, 1)),
            scales=(0.3, 0.8),
            aspect_ratios=(1.0, 2.0),
            frame=FrameSize(120, 120),
        )
        priors = generate_priors(spec)
        assert len(priors) == (2 * 3 + 1) * 2
        # ratio-minor: consecutive boxes share a center
        assert priors.boxes[0].center_x == priors.boxes[1].center_x
        # row-major: second cell of the first row comes next
        assert priors.boxes[2].center_x > priors.boxes[0].center_x
        assert priors.boxes[2].center_y == priors.boxes[0].center_y

    def test_default_pyramid(self):
        priors = generate_priors(default_prior_spec(FrameSize(300, 300)))
        cells = 38 ** 2 + 19 ** 2 + 10 ** 2 + 5 ** 2 + 3 ** 2 + 1
        assert len(priors) == cells * 3

    def test_spec_validation(self):
        frame = FrameSize(100, 100)
        with pytest.raises(ValueError):
            PriorBoxSpec(grids=(), scales=(), aspect_ratios=(1.0,), frame=frame)
        with pytest.raises(ValueError):
            PriorBoxSpec(grids=((1, 1),), scales=(1.5,), aspect_ratios=(1.0,), frame=frame)
        with pytest.raises(ValueError):
            PriorBoxSpec(grids=((1, 1),), scales=(0.5,), aspect_ratios=(-1.0,), frame=frame)


def make_priors(boxes):
    return PriorBoxSet(tuple(boxes))


class TestMatchPriors:
    def test_empty_gts(self):
        priors = make_priors([BoundingBox(0, 0, 10, 10)])
        result = match_priors(priors, [])
        assert result.n_matched == 0
        assert result.gt_index == (-1,)
        assert result.forced_prior == ()

    def test_identical_prior_matches_at_one(self):
        box = BoundingBox(10, 10, 40, 40)
        priors = make_priors([BoundingBox(60, 60, 90, 90), box])
        gt = MicroTubeTarget(boxes=(box, box), class_id=2)
        result = match_priors(priors, [gt])
        assert result.gt_index == (-1, 0)
        assert result.match_iou[1] == 1.0
        assert result.gt_class[1] == 2
        assert result.forced_prior == (1,)

    def test_forced_match_below_threshold(self):
        # Both priors overlap the gt at under 0.5; the bipartite step still
        # matches exactly one (the best), and step 2 adds nothing.
        gt_box = BoundingBox(0, 0, 10, 10)
        priors = make_priors([
            BoundingBox(6, 0, 16, 10),    # IoU 4/16 = 0.25
            BoundingBox(4, 0, 14, 10),    # IoU 6/14 ~= 0.4286
        ])
        gt = MicroTubeTarget(boxes=(gt_box, gt_box), class_id=0)
        result = match_priors(priors, [gt], threshold=0.5)
        assert result.gt_index == (-1, 0)
        assert result.match_iou[1] == pytest.approx(6 / 14)
        assert result.n_matched == 1

    def test_threshold_pass_adds_extra_priors(self):
        gt_box = BoundingBox(0, 0, 10, 10)
        priors = make_priors([
            BoundingBox(0, 0, 10, 10),    # IoU 1.0 -> forced
            BoundingBox(1, 0, 11, 10),    # IoU 9/11 -> step 2
            BoundingBox(30, 30, 40, 40),  # IoU 0 -> unmatched
        ])
        gt = MicroTubeTarget(boxes=(gt_box, gt_box), class_id=1)
        result = match_priors(priors, [gt], threshold=0.5)
        assert result.gt_index == (0, 0, -1)
        assert result.n_matched == 2

    def test_more_gts_than_priors(self):
        priors = make_priors([BoundingBox(0, 0, 10, 10)])
        gt = MicroTubeTarget(boxes=(BoundingBox(0, 0, 10, 10),), class_id=0)
        with pytest.raises(ValueError, match="insufficient priors"):
            match_priors(priors, [gt, gt])

    def test_permutation_invariance_up_to_relabeling(self):
        rng = np.random.default_rng(21)
        priors = make_priors([random_box(rng) for _ in range(12)])
        gts = [
            MicroTubeTarget(boxes=(random_box(rng), random_box(rng)), class_id=k)
            for k in range(3)
        ]
        base = match_priors(priors, gts)
        perm = [2, 0, 1]
        shuffled = match_priors(priors, [gts[j] for j in perm])
        for i in range(len(priors)):
            a, b = base.gt_index[i], shuffled.gt_index[i]
            assert (a == -1) == (b == -1)
            if a != -1:
                assert perm[b] == a
                assert base.gt_class[i] == shuffled.gt_class[i]

    def test_random_instances_against_oracle(self):
        for priors, gts in random_instances(np.random.default_rng(42)):
            n_gts = len(gts)
            result = match_priors(priors, gts, threshold=0.5)
            assert result == reference_match_priors(priors, gts, threshold=0.5)
            overlap = overlap_matrix(priors, gts)

            # every gt matched, even under-threshold (forced step)
            assert all(f >= 0 for f in result.forced_prior)
            assert set(result.forced_prior) <= {
                i for i, g in enumerate(result.gt_index) if g >= 0
            }
            # forced pass agrees with the independent global-greedy oracle
            assert oracle_forced_matches(overlap, n_gts) == {
                j: i for j, i in enumerate(result.forced_prior)
            }
            # each matched prior maps to exactly one gt with the recorded iou
            for i, j in enumerate(result.gt_index):
                if j == -1:
                    assert result.match_iou[i] == 0.0
                    continue
                assert result.match_iou[i] == pytest.approx(overlap[i][j])
                assert result.gt_class[i] == gts[j].class_id
                if i not in result.forced_prior:
                    # non-forced: above threshold and no strictly better gt
                    assert overlap[i][j] >= 0.5
                    assert all(overlap[i][k] <= overlap[i][j] for k in range(n_gts))
            assert result.n_matched >= n_gts


def random_instances(rng):
    """Matching inputs: 200 with random real-valued boxes, then 200 tie-heavy
    ones on an integer grid with duplicate priors, duplicate ground truths,
    ground truths of 1, 2 and 3 boxes, and ground truths no prior overlaps."""
    for _ in range(200):
        n_priors = int(rng.integers(3, 31))
        n_gts = int(rng.integers(1, 4))
        priors = make_priors([random_box(rng) for _ in range(n_priors)])
        gts = [
            MicroTubeTarget(
                boxes=(random_box(rng), random_box(rng)),
                class_id=int(rng.integers(0, 5)),
            )
            for _ in range(n_gts)
        ]
        yield priors, gts
    far = BoundingBox(100, 100, 104, 104)
    for _ in range(200):
        pool = [grid_box(rng) for _ in range(int(rng.integers(2, 8)))]
        n_priors = int(rng.integers(5, 25))
        priors = make_priors([pool[int(k)] for k in rng.integers(0, len(pool), size=n_priors)])
        gts = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 4))
            gts.append(MicroTubeTarget(boxes=tuple(grid_box(rng) for _ in range(k)),
                                       class_id=int(rng.integers(0, 5))))
        if rng.random() < 0.5:
            gts.append(gts[int(rng.integers(0, len(gts)))])
        if rng.random() < 0.3:
            gts.append(MicroTubeTarget(boxes=(far,) * int(rng.integers(1, 4)), class_id=0))
        yield priors, gts
