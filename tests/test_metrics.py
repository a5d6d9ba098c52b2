import itertools
import math

import numpy as np
import pytest

import tubekit.metrics as metrics
from tubekit.geometry import BoundingBox, FrameSize, iou
from tubekit.linking import LinkParams, OnlineLinker
from tubekit.metrics import (
    AVG_DELTA,
    AVG_MAP_GRID,
    GroundTruthTube,
    average_precision,
    avg_map,
    evaluate_sweep,
    map_at,
    observed_frames,
    tube_iou,
)
from tubekit.prediction import PredictionHorizon
from tubekit.synth import NoiseModel, lane_dataset

from test_prediction import reference_predict_full_tube

BOX = BoundingBox(0, 0, 10, 10)


def const_tube(frames, box=BOX):
    return {f: box for f in frames}


def box_with_iou(target_iou):
    """A unit-height strip overlapping BOX at exactly the requested IoU."""
    if target_iou == 0.0:
        return BoundingBox(50, 50, 60, 60)
    # shift s gives IoU (10-s)/(10+s)  =>  s = 10(1-v)/(1+v)
    s = 10.0 * (1.0 - target_iou) / (1.0 + target_iou)
    return BoundingBox(s, 0, 10 + s, 10)


def reference_tube_iou(a, b):
    """Scalar tube IoU over dicts, summed in set order: the oracle of the kernel."""
    a, b = dict(a), dict(b)
    frames = set(a) | set(b)
    if not frames:
        return 0.0
    total = sum(iou(a[f], b[f]) for f in frames if f in a and f in b)
    return total / len(frames)


def reference_class_ap(detections, gts, deltas):
    """``_class_ap`` with one scalar tube IoU per (detection, ground truth) pair."""
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0:
        return {d: None for d in deltas}
    detections = [(video_id, score, dict(boxes)) for video_id, score, boxes in detections]
    gts = {video_id: [dict(g) for g in tubes] for video_id, tubes in gts.items()}
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][1], i))
    overlaps = []
    for i in order:
        video_id, _, boxes = detections[i]
        overlaps.append([reference_tube_iou(boxes, g) for g in gts.get(video_id, ())])
    out = {}
    for delta in deltas:
        claimed: dict[str, set[int]] = {}
        tp = []
        fp = []
        for rank, i in enumerate(order):
            used = claimed.setdefault(detections[i][0], set())
            best_j, best_ov = -1, 0.0
            for j, ov in enumerate(overlaps[rank]):
                if j not in used and ov > best_ov:
                    best_ov, best_j = ov, j
            if best_j >= 0 and best_ov >= delta:
                used.add(best_j)
                tp.append(1)
                fp.append(0)
            else:
                tp.append(0)
                fp.append(1)
        out[delta] = metrics._every_point_ap(tp, fp, n_gt)
    return out


class TestTubeIoU:
    def test_identical(self):
        t = const_tube(range(1, 9))
        assert tube_iou(t, t) == 1.0

    def test_temporally_disjoint(self):
        assert tube_iou(const_tube(range(1, 5)), const_tube(range(5, 9))) == 0.0

    def test_half_restriction_scores_half(self):
        full = const_tube(range(1, 9))
        half = const_tube(range(1, 5))
        assert tube_iou(full, half) == pytest.approx(0.5)

    def test_symmetric(self):
        a = const_tube(range(1, 6))
        b = const_tube(range(3, 10), box_with_iou(0.7))
        assert tube_iou(a, b) == tube_iou(b, a)

    def test_both_empty(self):
        assert tube_iou({}, {}) == 0.0

    def test_equals_scalar_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            stride = int(rng.integers(1, 3))
            tubes = []
            for _ in range(2):
                first = int(rng.integers(1, 30))
                frames = range(first, first + stride * int(rng.integers(0, 20)), stride)
                lo = rng.uniform(0, 60, size=(len(frames), 2))
                rows = np.hstack([lo, lo + rng.uniform(0, 40, size=lo.shape)]).tolist()
                tubes.append({f: BoundingBox(*r) for f, r in zip(frames, rows)})
            assert tube_iou(*tubes) == reference_tube_iou(*tubes)


def oracle_ap(labels, n_gt):
    """Direct area enumeration: sum over TP ranks of (dR * best later precision)."""
    points = []
    tp = fp = 0
    for is_tp in labels:
        tp += is_tp
        fp += 1 - is_tp
        points.append((tp / n_gt, tp / (tp + fp)))
    ap = 0.0
    prev_r = 0.0
    for k, (r, _) in enumerate(points):
        if r != prev_r:
            best_later = max(p for _, p in points[k:])
            ap += (r - prev_r) * best_later
            prev_r = r
    return ap


def oracle_labels(entries, gts_by_video, delta):
    """Naive greedy claim: best unclaimed same-video gt, TP if iou >= delta."""
    claimed = set()
    labels = []
    for video, _, boxes in entries:
        best, best_ov = None, 0.0
        for j, g in enumerate(gts_by_video.get(video, [])):
            if (video, j) in claimed:
                continue
            ov = tube_iou(boxes, g)
            if ov > best_ov:
                best, best_ov = (video, j), ov
        if best is not None and best_ov >= delta:
            claimed.add(best)
            labels.append(1)
        else:
            labels.append(0)
    return labels


class TestAveragePrecision:
    def test_single_perfect_detection(self):
        gts = {"v": [const_tube(range(1, 5))]}
        dets = [("v", 0.9, const_tube(range(1, 5)))]
        assert average_precision(dets, gts, 0.5) == 1.0

    def test_no_detections(self):
        gts = {"v": [const_tube(range(1, 5))]}
        assert average_precision([], gts, 0.5) == 0.0

    def test_no_gts_is_undefined(self):
        assert average_precision([("v", 0.9, const_tube(range(1, 5)))], {}, 0.5) is None
        assert average_precision([], {}, 0.5) is None

    def test_one_fp_above_one_tp_is_half(self):
        gts = {"v": [const_tube(range(1, 5))]}
        dets = [
            ("v", 0.9, const_tube(range(1, 5), box_with_iou(0.2))),  # FP at delta=0.5
            ("v", 0.8, const_tube(range(1, 5))),                      # TP
        ]
        assert average_precision(dets, gts, 0.5) == 0.5

    def test_monotone_score_transform_invariance(self):
        rng = np.random.default_rng(51)
        gts = {"v": [const_tube(range(1, 5)), const_tube(range(1, 5), box_with_iou(0.0))]}
        dets = [
            ("v", float(s), const_tube(range(1, 5), box_with_iou(float(v))))
            for s, v in zip(rng.uniform(0.1, 0.9, 6), rng.uniform(0.0, 1.0, 6))
        ]
        base = average_precision(dets, gts, 0.5)
        squashed = [(v, math.exp(4.0 * s), b) for v, s, b in dets]
        assert average_precision(squashed, gts, 0.5) == pytest.approx(base, rel=1e-12)

    def test_lower_scored_duplicate_never_helps(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n_det = int(rng.integers(1, 5))
            gts = {"v": [const_tube(range(1, 5))]}
            dets = [
                ("v", float(rng.uniform(0.2, 0.9)),
                 const_tube(range(1, 5), box_with_iou(float(rng.choice([0.0, 0.4, 0.8, 1.0])))))
                for _ in range(n_det)
            ]
            base = average_precision(dets, gts, 0.5)
            tp_like = [d for d in dets if tube_iou(d[2], gts["v"][0]) >= 0.5]
            if not tp_like:
                continue
            dup = (tp_like[0][0], min(s for _, s, _ in dets) / 2.0, tp_like[0][2])
            assert average_precision(dets + [dup], gts, 0.5) <= base + 1e-12

    def test_exhaustive_small_instances(self):
        # All score orderings of up to 6 detections against up to 3 gts,
        # exact to 1e-12 against an independently coded enumeration.
        instances = [
            # (detection iou targets, n_gts) on a single video; each
            # detection overlaps gt j at the given value, others at 0.
            ([(0, 1.0)], 1),
            ([(0, 0.2), (0, 1.0)], 1),
            ([(0, 0.8), (0, 0.8), (None, 0.0)], 1),
            ([(0, 1.0), (1, 0.6), (2, 0.4)], 3),
            ([(0, 0.9), (0, 0.7), (1, 0.55), (None, 0.0)], 2),
            ([(0, 0.9), (1, 0.9), (0, 0.6), (1, 0.6), (None, 0.0), (0, 0.52)], 2),
        ]
        for spec, n_gts in instances:
            # gt j occupies only frame j+1, so tubes overlap exactly one gt
            gts = {"v": [{j + 1: BOX} for j in range(n_gts)]}
            det_boxes = []
            for j, v in spec:
                det_boxes.append({} if j is None else {j + 1: box_with_iou(v)})
                if j is None:
                    det_boxes[-1] = {n_gts + 1: BOX}  # matches nothing
            n = len(det_boxes)
            for perm in itertools.permutations(range(n)):
                dets = [("v", float(n - rank), det_boxes[i]) for rank, i in enumerate(perm)]
                got = average_precision(dets, gts, 0.5)
                labels = oracle_labels(dets, gts, 0.5)
                want = oracle_ap(labels, n_gts)
                assert got == pytest.approx(want, abs=1e-12)

    def test_cross_video_pooling(self):
        gts = {"a": [const_tube(range(1, 5))], "b": [const_tube(range(1, 5))]}
        dets = [
            ("a", 0.9, const_tube(range(1, 5))),
            ("b", 0.8, const_tube(range(1, 5), box_with_iou(0.1))),
        ]
        # recall reaches only 0.5; AP = 0.5 * 1.0
        assert average_precision(dets, gts, 0.5) == pytest.approx(0.5)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            average_precision([], {"v": [const_tube([1])]}, 0.0)


class TestMapHelpers:
    def test_map_means_defined_classes(self):
        assert map_at({0: 1.0, 1: 0.0}) == 0.5
        assert map_at({0: 1.0, 1: None}) == 1.0
        assert map_at({0: None}) is None

    def test_avg_map_over_grid(self):
        table = {d: {0: 1.0, 1: 0.5} for d in AVG_MAP_GRID}
        assert avg_map(table) == pytest.approx(0.75)

    def test_avg_map_requires_grid(self):
        with pytest.raises(ValueError, match="avg-mAP needs"):
            avg_map({0.5: {0: 1.0}})


class TestObservedFrames:
    def test_rounding_up(self):
        assert observed_frames(40, 10) == 4
        assert observed_frames(40, 100) == 40
        assert observed_frames(33, 50) == 17

    def test_zero_percent_rejected(self):
        with pytest.raises(ValueError):
            observed_frames(40, 0)


def clean_sweep(num_videos=6, percentages=(20, 50, 100), deltas=(0.5, 0.75), **kwargs):
    manifest, streams = lane_dataset(
        seed=7, num_videos=num_videos, num_classes=3,
        noise=NoiseModel(), horizon=PredictionHorizon(0, 5, 3), **kwargs
    )
    report = evaluate_sweep(
        detections_by_video=streams,
        video_meta=manifest.video_meta(),
        gt_tubes=manifest.all_tubes(),
        num_classes=manifest.num_classes,
        horizon=PredictionHorizon(0, 5, 3),
        deltas=deltas,
        percentages=percentages,
        link_params=LinkParams(),
    )
    return report


class TestEvaluateSweep:
    def test_clean_pipeline_is_perfect(self):
        report = clean_sweep()
        for q in (20, 50):
            assert report.value("c_map", 0.5, q) == 1.0
            assert report.value("p_map", 0.5, q) == 1.0
            assert report.value("online_map", 0.5, q) == 1.0
            assert report.value("accuracy", None, q) == 1.0
        assert report.value("detection_map", 0.75, 100) == 1.0

    def test_p_map_absent_at_full_observation(self):
        report = clean_sweep()
        assert report.find("p_map", 0.5, 100) is None
        assert report.find("p_map", 0.5, 50) is not None

    def test_c_map_equals_detection_map_at_full_observation(self):
        report = clean_sweep()
        for d in (0.5, 0.75):
            assert report.value("c_map", d, 100) == report.value("detection_map", d, 100)

    def test_per_class_breakdown_present(self):
        report = clean_sweep()
        cell = report.find("c_map", 0.5, 50)
        assert dict(cell.per_class) == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_avg_rows_when_grid_requested(self):
        report = clean_sweep(percentages=(50,), deltas=AVG_MAP_GRID)
        assert report.value("c_map", AVG_DELTA, 50) == 1.0

    def test_monotone_detected_coverage(self):
        manifest, streams = lane_dataset(
            seed=19, num_videos=3, num_classes=2,
            noise=NoiseModel(), horizon=PredictionHorizon(0, 5, 3)
        )
        from tubekit.linking import build_tubes
        from tubekit.metrics import observed_frames as obs

        video_id = next(iter(manifest.videos))
        entry = manifest.videos[video_id]
        prev = 0
        for q in range(10, 101, 10):
            f_obs = obs(entry.num_frames, q)
            stream = [d for d in streams[video_id] if d.t + d.delta <= f_obs]
            tubes = build_tubes(stream, manifest.num_classes)
            frames = max((len(t.detected) for t in tubes), default=0)
            assert frames >= prev
            prev = frames

    def test_each_detection_linked_once_per_sweep(self, monkeypatch):
        pushed = {}
        push = OnlineLinker.push

        def recording_push(linker, chunk):
            pushed.setdefault(id(linker), []).extend(chunk)
            push(linker, chunk)

        monkeypatch.setattr(OnlineLinker, "push", recording_push)
        manifest, streams = lane_dataset(seed=7, num_videos=6, num_classes=3)
        evaluate_sweep(
            detections_by_video=streams,
            video_meta=manifest.video_meta(),
            gt_tubes=manifest.all_tubes(),
            num_classes=manifest.num_classes,
            horizon=PredictionHorizon(0, 5, 3),
            deltas=(0.5,),
            percentages=range(10, 101, 10),
        )
        # Each linker saw its video's stream once, in order.
        assert sorted(pushed.values(), key=repr) == sorted(streams.values(), key=repr)

    def test_aps_at_full_observation_computed_once(self, monkeypatch):
        import tubekit.metrics as metrics

        calls = []
        class_ap = metrics._class_ap

        def counting_class_ap(dets, gts, deltas):
            calls.append(len(dets))
            return class_ap(dets, gts, deltas)

        monkeypatch.setattr(metrics, "_class_ap", counting_class_ap)
        report = clean_sweep(percentages=(50, 100))
        # 3 classes: online, p and c pools at 50 %; at 100 % one pool shared by
        # online, c and detection mAP, plus the p pool, which has no ground truth.
        assert len(calls) == 3 * 3 + 2 * 3
        for d in (0.5, 0.75):
            assert (report.value("online_map", d, 100) == report.value("c_map", d, 100)
                    == report.value("detection_map", d, 100))

    def test_ground_truth_must_span_video(self):
        gt = GroundTruthTube("v", 0, const_tube(range(2, 5)))
        with pytest.raises(ValueError, match=r"video 'v' spans frames 2\.\.4, not 1\.\.5"):
            evaluate_sweep(
                detections_by_video={},
                video_meta={"v": (5, FrameSize(100, 100))},
                gt_tubes=[gt],
                num_classes=1,
                horizon=PredictionHorizon(0, 1, 1),
                deltas=(0.5,),
                percentages=(100,),
            )

    def test_percentage_zero_rejected(self):
        manifest, streams = lane_dataset(seed=3, num_videos=1, num_classes=1)
        with pytest.raises(ValueError):
            evaluate_sweep(
                detections_by_video=streams,
                video_meta=manifest.video_meta(),
                gt_tubes=manifest.all_tubes(),
                num_classes=1,
                horizon=PredictionHorizon(0, 5, 3),
                deltas=(0.5,),
                percentages=(0, 50),
            )

    def test_report_select_filters(self):
        report = clean_sweep()
        table = report.select(metrics=("c_map",), deltas=(0.5,))
        assert {c.metric for c in table.cells} == {"c_map"}
        assert {c.delta for c in table.cells} == {0.5}


REFERENCE_SETS = {
    "clean": (dict(seed=1, num_videos=6, num_frames=40), {}),
    "noisy": (dict(seed=1, num_videos=1, num_frames=80, num_actors=8,
                   noise=NoiseModel(2.0, 2.0, 1.0, 1.0, 0.1)), {}),
    "stride2_patience2": (dict(seed=5, num_videos=3, num_frames=60, delta=2,
                               noise=NoiseModel(2.0, 2.0, 0.0, 0.3, 0.6)),
                          dict(link_params=LinkParams(patience=2))),
    "horizon_2_5_3": (dict(seed=2, num_videos=4, num_frames=40,
                           horizon=PredictionHorizon(2, 5, 3),
                           noise=NoiseModel(1.0, 1.0, 0.0, 0.3, 0.1, 1.0)),
                      dict(horizon=PredictionHorizon(2, 5, 3))),
    "aggregate_mean": (dict(seed=1, num_videos=1, num_frames=80, num_actors=8,
                            noise=NoiseModel(2.0, 2.0, 1.0, 1.0, 0.1)),
                       dict(aggregate="mean")),
}


@pytest.mark.parametrize("name", list(REFERENCE_SETS))
def test_sweep_equals_scalar_reference(name, monkeypatch):
    data, options = REFERENCE_SETS[name]
    manifest, streams = lane_dataset(num_classes=3, **data)
    kwargs = dict(
        detections_by_video=streams,
        video_meta=manifest.video_meta(),
        gt_tubes=manifest.all_tubes(),
        num_classes=manifest.num_classes,
        horizon=PredictionHorizon(0, 5, 3),
        deltas=(0.2,) + AVG_MAP_GRID,
        percentages=range(10, 101, 10),
    )
    kwargs.update(options)
    report = evaluate_sweep(**kwargs)
    monkeypatch.setattr(metrics, "_class_ap", reference_class_ap)
    monkeypatch.setattr(metrics, "predict_full_tube", reference_predict_full_tube)
    assert report.cells == evaluate_sweep(**kwargs).cells


class TestSweepHandComputed:
    """A fully hand-derived instance, independent of the synthetic generator.

    One 4-frame video, one class. The true actor sits still at B; the
    detector emits one micro-tube at t=1 whose boxes overlap B at exactly
    1/3 IoU (score 0.8), plus one far-away false positive scored 0.9.
    At 50% observation (frames 1..2):

    * both detections survive and start one tube each;
    * the true-ish tube covers {1,2} at per-frame IoU 1/3, and its
      prediction (static extrapolation, no payload reach) covers {3,4}
      at IoU 1/3 as well;
    * ranking is FP(0.9) then TP(0.8), so every mAP kind at a threshold
      below 1/3 is exactly 0.5 (the one-FP-above-one-TP curve), and 0.0
      at a threshold above 1/3.
    """

    def build(self):
        from tubekit.linking import MicroTubeDetection

        gt_box = BOX  # (0,0,10,10)
        near = box_with_iou(1 / 3)  # IoU exactly 1/3 with BOX
        far = BoundingBox(60, 60, 80, 80)
        gt = GroundTruthTube("v", 0, {f: gt_box for f in range(1, 5)})

        def det(box, score):
            return MicroTubeDetection(
                t=1, delta=1, box_t=box, box_t_plus_delta=box,
                class_scores=(score, 1.0 - score),
            )

        stream = [det(near, 0.8), det(far, 0.9)]
        report = evaluate_sweep(
            detections_by_video={"v": stream},
            video_meta={"v": (4, FrameSize(100, 100))},
            gt_tubes=[gt],
            num_classes=1,
            horizon=PredictionHorizon(0, 1, 1),
            deltas=(0.2, 0.5),
            percentages=(50,),
        )
        return report

    def test_hand_computed_cells(self):
        report = self.build()
        assert report.value("accuracy", None, 50) == 1.0
        for kind in ("online_map", "p_map", "c_map"):
            assert report.value(kind, 0.2, 50) == 0.5, kind
            assert report.value(kind, 0.5, 50) == 0.0, kind


class TestClaimAcrossGts:
    def test_detection_claims_best_unclaimed_gt(self):
        # det A spans frames {1,2}: IoU 0.5 with gt1 (frame 1), 0.4 with
        # gt2 (frame 2); det B matches gt2 exactly. A claims gt1, B gt2.
        gts = {"v": [{1: BOX}, {2: BOX}]}
        det_a = {1: BOX, 2: box_with_iou(0.8)}
        det_b = {2: BOX}
        assert tube_iou(det_a, gts["v"][0]) == pytest.approx(0.5)
        assert tube_iou(det_a, gts["v"][1]) == pytest.approx(0.4)
        dets = [("v", 0.9, det_a), ("v", 0.8, det_b)]
        assert average_precision(dets, gts, 0.45) == 1.0
