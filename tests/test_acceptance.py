"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import time

import numpy as np
from tubekit.anchors import MicroTubeTarget, PriorBoxSet, match_priors
from tubekit.cli import main as cli_main
from tubekit.dataio import read_report
from tubekit.geometry import (
    BoundingBox,
    FrameSize,
    decode_offsets,
    encode_offsets,
    iou,
)
from tubekit.linking import LinkParams, nms
from tubekit.losses import run_grad_check, total_loss
from tubekit.metrics import evaluate_sweep
from tubekit.prediction import PredictionHorizon
from tubekit.synth import NoiseModel, lane_dataset

from test_anchors import mean_iou_microtube
from test_linking import pair_overlaps, paired_mean_iou
from test_losses import make_inputs
from test_metrics import BOX, average_precision, box_with_iou, oracle_ap, oracle_labels


def report_pass(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


def random_box(rng, extent=100.0, min_side=10.0, max_side=60.0):
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    x = rng.uniform(0.0, extent - w)
    y = rng.uniform(0.0, extent - h)
    return BoundingBox(x, y, x + w, y + h)


def test_criterion_1_geometry_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    cell = 2.0 ** -14

    def rasterized(a, b):
        snap = lambda box: np.rint(np.asarray(box.as_tuple()) / cell).astype(np.int64)
        ax0, ay0, ax1, ay1 = snap(a)
        bx0, by0, bx1, by1 = snap(b)
        iw = max(min(ax1, bx1) - max(ax0, bx0), 0)
        ih = max(min(ay1, by1) - max(ay0, by0), 0)
        inter = int(iw) * int(ih)
        union = int(ax1 - ax0) * int(ay1 - ay0) + int(bx1 - bx0) * int(by1 - by0) - inter
        return inter / union if union else 0.0

    worst_iou = 0.0
    for _ in range(10_000):
        a, b = random_box(rng), random_box(rng)
        worst_iou = max(worst_iou, abs(iou(a, b) - rasterized(a, b)))
    assert worst_iou < 1e-3

    worst_rt = 0.0
    for _ in range(2_000):
        box, prior = random_box(rng), random_box(rng)
        decoded = decode_offsets(encode_offsets(box, prior), prior)
        rel = max(
            abs(d - w) / max(abs(w), 1e-12)
            for d, w in zip(decoded.as_tuple(), box.as_tuple())
        )
        worst_rt = max(worst_rt, rel)
    assert worst_rt < 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_pass(1, f"geometry oracle, iou err {worst_iou:.2e}, "
                   f"roundtrip err {worst_rt:.2e}, {elapsed:.2f}s")


def test_criterion_2_matching_oracle():
    rng = np.random.default_rng(2002)
    forced_below_threshold_seen = 0
    for instance in range(200):
        n_priors = int(rng.integers(2, 31))
        n_gts = int(rng.integers(1, 4))
        n_gts = min(n_gts, n_priors)
        priors = PriorBoxSet(tuple(random_box(rng) for _ in range(n_priors)))
        gts = [
            MicroTubeTarget(boxes=(random_box(rng), random_box(rng)),
                            class_id=int(rng.integers(0, 4)))
            for _ in range(n_gts)
        ]
        result = match_priors(priors, gts, threshold=0.5)
        overlap = [[mean_iou_microtube(p, g.boxes) for g in gts] for p in priors.boxes]

        # invariant: every ground truth has at least one matched prior
        for j in range(n_gts):
            assert result.forced_prior[j] >= 0
            assert result.gt_index[result.forced_prior[j]] == j
        # invariant: matched priors map to exactly one gt, recorded exactly
        for i, j in enumerate(result.gt_index):
            if j >= 0:
                assert 0 <= j < n_gts
                assert result.match_iou[i] == overlap[i][j]
        # invariant: every non-forced match clears the threshold and is the
        # argmax over gts (exhaustive check over all pairs)
        for i, j in enumerate(result.gt_index):
            if j >= 0 and i not in result.forced_prior:
                assert overlap[i][j] >= 0.5
                assert all(overlap[i][k] <= overlap[i][j] for k in range(n_gts))
        assert result.n_matched >= n_gts
        if all(max(row[j] for row in overlap) < 0.5 for j in range(n_gts)):
            forced_below_threshold_seen += 1

    # the forced step also triggers when no overlap reaches the threshold;
    # construct such an instance explicitly
    gt_box = BoundingBox(0, 0, 10, 10)
    priors = PriorBoxSet((BoundingBox(6, 0, 16, 10), BoundingBox(7, 0, 17, 10)))
    gt = MicroTubeTarget(boxes=(gt_box, gt_box), class_id=0)
    forced = match_priors(priors, [gt], threshold=0.5)
    assert forced.n_matched == 1
    assert all(v < 0.5 for v in forced.match_iou)
    report_pass(2, "matching oracle, 200 instances "
                   f"(+{forced_below_threshold_seen} random all-below-threshold)")


def test_criterion_3_loss_checks():
    report = run_grad_check(seed=3003, trials=300, epsilon=1e-6)
    assert report.worst < 1e-4

    inputs = make_inputs(np.random.default_rng(3), n_future=0)
    inputs.prediction_mask[:] = False
    out = total_loss(inputs)
    assert out.l_pred == 0.0
    assert out.total == (out.l_cls + out.l_reg) / out.n_matched  # exact

    masked = make_inputs(np.random.default_rng(4))
    masked.prediction_mask[:] = False
    assert total_loss(masked).l_pred == 0.0
    report_pass(3, f"loss checks, worst gradient err {report.worst:.2e}")


def test_criterion_4_nms_oracle():
    rng = np.random.default_rng(4004)

    def brute_force(pairs, scores, threshold):
        alive = list(range(len(pairs)))
        kept = []
        while alive:
            best = min(alive, key=lambda i: (-scores[i], i))
            kept.append(best)
            alive = [i for i in alive
                     if i != best and paired_mean_iou(pairs[best], pairs[i]) <= threshold]
        return kept

    for _ in range(500):
        n = int(rng.integers(1, 51))
        pairs = []
        for _ in range(n):
            x, y = rng.uniform(0, 200, 2)
            w, h = rng.uniform(15, 80, 2)
            a = BoundingBox(x, y, x + w, y + h)
            b = a.translated(*rng.uniform(-5, 5, size=2))
            pairs.append((a, b))
        scores = list(rng.uniform(0.0, 1.0, n))
        assert set(nms(pair_overlaps(pairs), scores, 0.45)) == set(brute_force(pairs, scores, 0.45))
    report_pass(4, "nms oracle, 500 instances")


def test_criterion_5_ap_oracle():
    instances = [
        ([(0, 1.0)], 1),
        ([(0, 0.2), (0, 1.0)], 1),
        ([(0, 0.8), (0, 0.8), (None, 0.0)], 1),
        ([(0, 1.0), (1, 0.6), (2, 0.4)], 3),
        ([(0, 0.9), (0, 0.7), (1, 0.55), (None, 0.0)], 2),
        ([(0, 0.9), (1, 0.9), (0, 0.6), (1, 0.6), (None, 0.0), (0, 0.52)], 2),
    ]
    checked = 0
    for spec, n_gts in instances:
        gts = {"v": [{j + 1: BOX} for j in range(n_gts)]}
        det_boxes = [
            {n_gts + 1: BOX} if j is None else {j + 1: box_with_iou(v)}
            for j, v in spec
        ]
        for perm in itertools.permutations(range(len(det_boxes))):
            dets = [("v", float(len(det_boxes) - r), det_boxes[i])
                    for r, i in enumerate(perm)]
            got = average_precision(dets, gts, 0.5)
            want = oracle_ap(oracle_labels(dets, gts, 0.5), n_gts)
            assert abs(got - want) <= 1e-12
            checked += 1

    # one FP scored above one TP, one gt: AP exactly 0.5
    gts = {"v": [{1: BOX}]}
    dets = [("v", 0.9, {1: box_with_iou(0.2)}), ("v", 0.8, {1: BOX})]
    assert average_precision(dets, gts, 0.5) == 0.5
    report_pass(5, f"ap oracle, {checked} exhaustive orderings")


def _clean_dataset(num_videos=100):
    return lane_dataset(
        seed=6006, num_videos=num_videos, num_classes=3, num_actors=3,
        num_frames=40, noise=NoiseModel(), horizon=PredictionHorizon(0, 5, 3),
    )


def test_criterion_6_end_to_end_perfect_information():
    start = time.perf_counter()
    manifest, streams = _clean_dataset(100)
    report = evaluate_sweep(
        detections_by_video=streams,
        video_meta=manifest.video_meta(),
        gt_tubes=manifest.all_tubes(),
        num_classes=manifest.num_classes,
        horizon=PredictionHorizon(0, 5, 3),
        deltas=(0.5, 0.75),
        percentages=tuple(range(10, 101, 10)),
        link_params=LinkParams(),
    )
    assert report.value("detection_map", 0.75, 100) == 1.0
    for q in range(20, 91, 10):
        assert report.value("c_map", 0.5, q) == 1.0
        assert report.value("p_map", 0.5, q) == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report_pass(6, f"end-to-end perfect information, 100 videos in {elapsed:.2f}s")


def test_criterion_7_degradation_monotonicity():
    # Small frame so the largest jitter visibly destroys overlap; a fixed
    # seed re-scales the same noise draws across the sweep.
    maps = []
    for sigma in (0.0, 2.0, 5.0, 10.0):
        manifest, streams = lane_dataset(
            seed=7007, num_videos=20, num_classes=3, num_actors=3,
            frame=FrameSize(160, 120),
            noise=NoiseModel(center_sigma=sigma),
        )
        report = evaluate_sweep(
            detections_by_video=streams,
            video_meta=manifest.video_meta(),
            gt_tubes=manifest.all_tubes(),
            num_classes=manifest.num_classes,
            horizon=PredictionHorizon(0, 5, 3),
            deltas=(0.5,),
            percentages=(100,),
            link_params=LinkParams(),
        )
        maps.append(report.value("detection_map", 0.5, 100))
    assert all(a >= b for a, b in zip(maps, maps[1:])), maps
    assert maps[0] == 1.0
    assert maps[-1] < maps[0]  # the sweep actually degrades
    report_pass(7, "degradation monotonicity, mAP@0.5 = "
                + ", ".join(f"{m:.3f}" for m in maps))


def test_criterion_8_protocol_identity_at_full_observation():
    manifest, streams = _clean_dataset(12)
    report = evaluate_sweep(
        detections_by_video=streams,
        video_meta=manifest.video_meta(),
        gt_tubes=manifest.all_tubes(),
        num_classes=manifest.num_classes,
        horizon=PredictionHorizon(0, 5, 3),
        deltas=(0.2, 0.5, 0.75),
        percentages=(50, 100),
        link_params=LinkParams(),
    )
    for d in (0.2, 0.5, 0.75):
        c_cell = report.find("c_map", d, 100)
        det_cell = report.find("detection_map", d, 100)
        assert c_cell.value == det_cell.value
        assert c_cell.per_class == det_cell.per_class
        assert report.find("p_map", d, 100) is None
        assert report.find("p_map", d, 50) is not None
    report_pass(8, "protocol identity at 100% observation")


def test_criterion_9_sweep_table_shape(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["synth", "--out-dir", str(data), "--videos", "6",
                     "--classes", "3", "--frames", "40", "--seed", "9"]) == 0
    out = str(tmp_path / "sweep.csv")
    assert cli_main(["sweep",
                     "--detections", str(data / "detections.jsonl"),
                     "--manifest", str(data / "manifest.json"),
                     "--out", out, "--horizon", "0,5,3"]) == 0
    rows = read_report(out)

    assert {r[0] for r in rows} == {"accuracy", "online_map", "p_map", "c_map"}
    for kind in ("online_map", "c_map"):
        assert {r[1] for r in rows if r[0] == kind} == {"0.2", "0.5", "0.75", "avg"}
        assert {r[2] for r in rows if r[0] == kind} == set(range(10, 101, 10))
    # p-mAP: same thresholds, percentages stop at 90 (no future at 100)
    assert {r[1] for r in rows if r[0] == "p_map"} == {"0.2", "0.5", "0.75", "avg"}
    assert {r[2] for r in rows if r[0] == "p_map"} == set(range(10, 91, 10))
    assert {r[1] for r in rows if r[0] == "accuracy"} == {""}
    assert {r[2] for r in rows if r[0] == "accuracy"} == set(range(10, 101, 10))
    report_pass(9, f"sweep table shape, {len(rows)} rows")
