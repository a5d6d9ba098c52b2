from itertools import groupby
from operator import attrgetter
from typing import Iterable

import numpy as np
import pytest

from tubekit.geometry import BoundingBox, paired_mean_iou
from tubekit.linking import (
    ActionTube,
    ActiveTube,
    LinkParams,
    MicroTubeDetection,
    OnlineLinker,
    PredictionPayload,
    _finalize,
    build_tubes,
    link_step,
    nms,
)
from tubekit.metrics import observed_frames
from tubekit.synth import NoiseModel, lane_dataset


def scores_for(class_id, num_classes, confidence=0.9):
    # Residual mass goes to background so other real classes stay under
    # the 0.01 score threshold and spawn no phantom tubes.
    s = [0.001] * (num_classes + 1)
    s[class_id] = confidence
    s[-1] = 1.0 - confidence - 0.001 * (num_classes - 1)
    return tuple(s)


def det(t, box, class_id=0, num_classes=2, confidence=0.9, box2=None, delta=1):
    return MicroTubeDetection(
        t=t,
        delta=delta,
        box_t=box,
        box_t_plus_delta=box2 if box2 is not None else box,
        class_scores=scores_for(class_id, num_classes, confidence),
    )


def shifted_pair(shift):
    """A micro-tube whose mean IoU against the unshifted one is (100-s)/(100+s)."""
    base = BoundingBox(shift, 0, 100 + shift, 100)
    return (base, base)


def brute_force_nms(pairs, scores, threshold):
    """Naive reference: recompute the survivor set from scratch each round."""
    alive = list(range(len(pairs)))
    kept = []
    while alive:
        best = min(alive, key=lambda i: (-scores[i], i))
        kept.append(best)
        alive = [
            i for i in alive
            if i != best and paired_mean_iou(pairs[best], pairs[i]) <= threshold
        ]
    return kept


class TestNMS:
    def test_single_detection_kept(self):
        assert nms([shifted_pair(0)], [0.5]) == [0]

    def test_identical_pair_keeps_higher_score(self):
        pairs = [shifted_pair(0), shifted_pair(0)]
        assert nms(pairs, [0.8, 0.9]) == [1]

    def test_threshold_is_strict(self):
        # mean IoU (100-s)/(100+s): s for 0.44 and 0.46 around the 0.45 gate
        s44 = 100 * (1 - 0.44) / (1 + 0.44)
        s46 = 100 * (1 - 0.46) / (1 + 0.46)
        pairs = [shifted_pair(0), shifted_pair(s44), shifted_pair(s46)]
        kept = nms(pairs, [0.9, 0.5, 0.4], threshold=0.45)
        assert kept == [0, 1]

    def test_order_is_descending_score(self):
        pairs = [shifted_pair(0), shifted_pair(70), shifted_pair(140)]
        assert nms(pairs, [0.2, 0.9, 0.5]) == [1, 2, 0]

    def test_input_order_irrelevant_for_distinct_scores(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            pairs = []
            for _ in range(n):
                x = rng.uniform(0, 150)
                y = rng.uniform(0, 150)
                w, h = rng.uniform(20, 60, size=2)
                a = BoundingBox(x, y, x + w, y + h)
                b = a.translated(*rng.uniform(-3, 3, size=2))
                pairs.append((a, b))
            scores = list(rng.permutation(np.linspace(0.1, 0.9, n)))
            kept = set(nms(pairs, scores))
            perm = list(rng.permutation(n))
            shuffled_kept = {perm[i] for i in nms([pairs[j] for j in perm],
                                                  [scores[j] for j in perm])}
            assert kept == shuffled_kept

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            pairs = []
            for _ in range(n):
                x = rng.uniform(0, 200)
                y = rng.uniform(0, 200)
                w, h = rng.uniform(15, 80, size=2)
                a = BoundingBox(x, y, x + w, y + h)
                b = a.translated(*rng.uniform(-5, 5, size=2))
                pairs.append((a, b))
            scores = list(rng.uniform(0.0, 1.0, size=n))
            assert set(nms(pairs, scores, 0.45)) == set(brute_force_nms(pairs, scores, 0.45))


class TestLinkStep:
    def test_perfect_tail_extends(self):
        box = BoundingBox(10, 10, 50, 50)
        tube = ActiveTube(class_id=0, members=[det(1, box)])
        out = link_step([tube], [det(2, box)], class_id=0)
        assert len(out) == 1
        assert len(out[0].members) == 2
        assert out[0].missed == 0

    def test_empty_step_leaves_tubes(self):
        box = BoundingBox(10, 10, 50, 50)
        tube = ActiveTube(class_id=0, members=[det(1, box)])
        out = link_step([tube], [], class_id=0)
        assert out == [tube]
        assert len(out[0].members) == 1
        assert out[0].missed == 1

    def test_unmatched_detection_starts_tube(self):
        a = BoundingBox(10, 10, 50, 50)
        b = BoundingBox(200, 10, 240, 50)
        tube = ActiveTube(class_id=0, members=[det(1, a)])
        out = link_step([tube], [det(2, a), det(2, b)], class_id=0)
        assert len(out) == 2
        assert out[1].members[0].box_t == b

    def test_two_actors_resolved_like_exhaustive_oracle(self):
        a = BoundingBox(10, 10, 50, 50)
        b = BoundingBox(200, 10, 240, 50)
        tubes = [ActiveTube(0, [det(1, a)]), ActiveTube(0, [det(1, b)])]
        dets = [det(2, b), det(2, a)]
        params = LinkParams()
        # exhaustive 2x2 oracle: best total link score over the two bijections
        def link_score(tube, d):
            ov = paired_mean_iou([tube.tail_box], [d.box_t])
            return d.class_scores[0] + params.link_lambda * ov if ov >= params.iou_gate else None

        straight = [link_score(tubes[0], dets[0]), link_score(tubes[1], dets[1])]
        crossed = [link_score(tubes[0], dets[1]), link_score(tubes[1], dets[0])]
        assert None in straight and all(s is not None for s in crossed)
        out = link_step(tubes, dets, class_id=0, params=params)
        assert len(out) == 2
        assert out[0].members[-1].box_t == a
        assert out[1].members[-1].box_t == b

    def test_gate_blocks_weak_overlap(self):
        tube = ActiveTube(0, [det(1, BoundingBox(0, 0, 40, 40))])
        far = det(2, BoundingBox(100, 100, 140, 140))
        out = link_step([tube], [far], class_id=0, params=LinkParams(iou_gate=0.1))
        assert len(out) == 2
        assert out[0].missed == 1

    def test_frame_misalignment_rejected(self):
        tube = ActiveTube(0, [det(1, BoundingBox(0, 0, 40, 40))])
        with pytest.raises(ValueError, match="temporal discontinuity"):
            link_step([tube], [det(5, BoundingBox(0, 0, 40, 40))], class_id=0)
        with pytest.raises(ValueError, match="temporal discontinuity"):
            link_step([], [det(2, BoundingBox(0, 0, 40, 40)),
                           det(3, BoundingBox(0, 0, 40, 40))], class_id=0)


def walking_detections(start_box, frames, class_id=0, num_classes=2, vx=2.0, confidence=0.9):
    out = []
    for t in frames:
        b1 = start_box.translated(vx * (t - 1), 0.0)
        b2 = start_box.translated(vx * t, 0.0)
        out.append(det(t, b1, class_id, num_classes, confidence, box2=b2))
    return out


class TestBuildTubes:
    def test_single_actor_recovered_exactly(self):
        base = BoundingBox(10, 20, 50, 80)
        stream = walking_detections(base, range(1, 8))
        tubes = build_tubes(stream, num_classes=2)
        assert len(tubes) == 1
        tube = tubes[0]
        assert tube.class_id == 0
        assert sorted(tube.detected) == list(range(1, 9))
        for t in range(1, 9):
            assert tube.detected[t] == base.translated(2.0 * (t - 1), 0.0)
        assert tube.tube_score == pytest.approx(0.9)

    def test_overlap_frame_keeps_newer_box(self):
        a1, a2 = BoundingBox(0, 0, 40, 40), BoundingBox(2, 0, 42, 40)
        b2, b3 = BoundingBox(3, 0, 43, 40), BoundingBox(6, 0, 46, 40)
        stream = [det(1, a1, box2=a2), det(2, b2, box2=b3)]
        tube = build_tubes(stream, num_classes=2)[0]
        assert tube.detected[2] == b2  # newer micro-tube's first box wins

    def test_two_separated_actors_two_tubes(self):
        left = walking_detections(BoundingBox(10, 10, 50, 50), range(1, 4))
        right = walking_detections(BoundingBox(200, 10, 240, 50), range(1, 4), vx=-2.0)
        stream = sorted(left + right, key=lambda d: d.t)
        tubes = build_tubes(stream, num_classes=2)
        assert len(tubes) == 2
        firsts = sorted(t.detected[1].x_min for t in tubes)
        assert firsts == [10, 200]

    def test_classes_linked_separately(self):
        a = walking_detections(BoundingBox(10, 10, 50, 50), range(1, 4), class_id=0)
        b = walking_detections(BoundingBox(12, 10, 52, 50), range(1, 4), class_id=1)
        stream = sorted(a + b, key=lambda d: d.t)
        tubes = build_tubes(stream, num_classes=2)
        assert sorted(t.class_id for t in tubes) == [0, 1]

    def test_background_only_stream_yields_nothing(self):
        box = BoundingBox(10, 10, 50, 50)
        stream = [
            MicroTubeDetection(t=t, delta=1, box_t=box, box_t_plus_delta=box,
                               class_scores=(0.001, 0.001, 0.998))
            for t in (1, 2, 3)
        ]
        assert build_tubes(stream, num_classes=2) == []

    def test_empty_stream(self):
        assert build_tubes([], num_classes=2) == []

    def test_unsorted_stream_rejected(self):
        box = BoundingBox(10, 10, 50, 50)
        stream = [det(3, box), det(1, box)]
        with pytest.raises(ValueError, match="unsorted stream"):
            build_tubes(stream, num_classes=2)

    def test_missed_step_splits_tube_at_default_patience(self):
        base = BoundingBox(10, 20, 50, 80)
        stream = walking_detections(base, [1, 2, 5, 6])
        with_gap = [d for d in stream]
        tubes = build_tubes(with_gap, num_classes=2)
        assert len(tubes) == 2

    def test_patience_bridges_single_gap(self):
        base = BoundingBox(10, 20, 50, 80)
        stream = walking_detections(base, [1, 2, 4, 5])
        tubes = build_tubes(stream, num_classes=2, params=LinkParams(patience=2))
        assert len(tubes) == 1
        assert sorted(tubes[0].detected) == [1, 2, 3, 4, 5, 6]

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        stream = []
        for t in range(1, 10):
            for _ in range(int(rng.integers(1, 4))):
                x = float(rng.uniform(0, 250))
                y = float(rng.uniform(0, 180))
                b = BoundingBox(x, y, x + 40, y + 40)
                stream.append(det(t, b, class_id=int(rng.integers(0, 2)),
                                  confidence=float(rng.uniform(0.3, 0.95))))
        first = build_tubes(stream, num_classes=2)
        second = build_tubes(stream, num_classes=2)
        assert first == second

    def test_no_fabricated_boxes(self):
        rng = np.random.default_rng(37)
        stream = []
        for t in range(1, 12):
            x = float(rng.uniform(0, 200))
            b1 = BoundingBox(x, 10, x + 50, 70)
            b2 = b1.translated(float(rng.uniform(-4, 4)), 0.0)
            stream.append(det(t, b1, box2=b2))
        source_boxes = {b.as_tuple() for d in stream for b in (d.box_t, d.box_t_plus_delta)}
        for tube in build_tubes(stream, num_classes=2):
            for box in tube.detected.values():
                assert box.as_tuple() in source_boxes

    def test_score_sorted_output(self):
        hi = walking_detections(BoundingBox(10, 10, 50, 50), range(1, 4), confidence=0.95)
        lo = walking_detections(BoundingBox(200, 10, 240, 50), range(1, 4), confidence=0.55)
        stream = sorted(hi + lo, key=lambda d: d.t)
        tubes = build_tubes(stream, num_classes=2)
        assert [round(t.tube_score, 2) for t in tubes] == [0.95, 0.55]

    def test_mixed_delta_rejected(self):
        box = BoundingBox(10, 10, 50, 50)
        with pytest.raises(ValueError, match="mixed frame gaps"):
            build_tubes([det(1, box, delta=1), det(2, box, delta=2)], num_classes=2)


def reference_build_tubes(
    stream: Iterable[MicroTubeDetection],
    num_classes: int,
    params: LinkParams = LinkParams(),
) -> list[ActionTube]:
    """Class-outer batch linker: the implementation OnlineLinker replaced.

    Kept verbatim as the oracle for OnlineLinker and build_tubes.

    Per class and per step: drop micro-tubes scoring below
    ``score_threshold``, run NMS, then :func:`link_step`. Tubes that miss
    ``patience`` consecutive steps are closed. Steps with no surviving
    detections still advance the clock, so noisy streams with dropped
    frame pairs stay aligned.

    The result is deterministic for a given stream; tubes are sorted by
    descending tube score (mean member class score), ties by class then
    creation order.
    """
    detections = list(stream)
    if num_classes < 1:
        raise ValueError(f"need at least one real class, got {num_classes}")
    if not detections:
        return []

    delta = detections[0].delta
    groups: dict[int, list[MicroTubeDetection]] = {}
    prev_t = None
    for det in detections:
        if det.delta != delta:
            raise ValueError(f"mixed frame gaps in stream: {det.delta} vs {delta}")
        if len(det.class_scores) != num_classes + 1:
            raise ValueError(
                f"detection carries {len(det.class_scores)} scores, expected {num_classes + 1}"
            )
        if prev_t is not None and det.t < prev_t:
            raise ValueError(f"unsorted stream: frame {det.t} after {prev_t}")
        prev_t = det.t
        groups.setdefault(det.t, []).append(det)

    t_first, t_last = min(groups), max(groups)
    for t in groups:
        if (t - t_first) % delta != 0:
            raise ValueError(f"temporal discontinuity: step at frame {t} is off the stride {delta}")
    lattice = range(t_first, t_last + 1, delta)

    finished: list[ActionTube] = []
    for class_id in range(num_classes):
        active: list[ActiveTube] = []
        closed: list[ActiveTube] = []
        for t in lattice:
            step = [
                d for d in groups.get(t, [])
                if d.class_scores[class_id] >= params.score_threshold
            ]
            if step:
                keep = nms([d.pair for d in step],
                           [d.class_scores[class_id] for d in step],
                           params.nms_threshold)
                step = [step[i] for i in keep]
            active = link_step(active, step, class_id, params)
            still = []
            for tube in active:
                (closed if tube.missed >= params.patience else still).append(tube)
            active = still
        closed.extend(active)
        finished.extend(_finalize(tube) for tube in closed)

    order = sorted(range(len(finished)),
                   key=lambda i: (-finished[i].tube_score, finished[i].class_id, i))
    return [finished[i] for i in order]


def frontier_snapshots(stream, num_frames, num_classes, params):
    """One OnlineLinker pass over a video, snapshotted at every 10 % frontier.

    Yields (truncated stream, observed frames, snapshot) per percentage.
    """
    linker = OnlineLinker(num_classes, params)
    pushed = 0
    for q in range(10, 101, 10):
        f_obs = observed_frames(num_frames, q)
        observed = [d for d in stream if d.t + d.delta <= f_obs]
        for _, step in groupby(observed[pushed:], key=attrgetter("t")):
            linker.push(list(step))
        pushed = len(observed)
        yield observed, f_obs, linker.snapshot()


CLEAN_SET = dict(seed=3, num_videos=6, num_classes=3, num_actors=3, num_frames=40)
# Misses this high leave whole frame pairs empty, so frontiers fall after
# trailing empty steps; delta 2 puts the lattice on a stride. Zero score
# temperature gives equal tube scores, whose order is creation order.
NOISY_SET = dict(seed=5, num_videos=6, num_classes=3, num_actors=3, num_frames=60, delta=2,
                 noise=NoiseModel(center_sigma=2.0, size_sigma=2.0,
                                  false_positive_rate=0.3, miss_rate=0.6))


class TestOnlineLinker:
    @pytest.mark.parametrize("params", [LinkParams(), LinkParams(patience=2)],
                             ids=["patience1", "patience2"])
    @pytest.mark.parametrize("dataset", [CLEAN_SET, NOISY_SET], ids=["clean", "noisy"])
    def test_snapshots_match_reference_on_truncated_streams(self, dataset, params):
        manifest, streams = lane_dataset(**dataset)
        trailing_empty = 0
        for video_id, entry in manifest.videos.items():
            snapshots = frontier_snapshots(streams[video_id], entry.num_frames,
                                           manifest.num_classes, params)
            for observed, f_obs, snapshot in snapshots:
                expected = reference_build_tubes(observed, manifest.num_classes, params)
                assert snapshot == expected
                for got, want in zip(snapshot, expected):
                    assert all(a is b for a, b in zip(got.members, want.members))
                assert build_tubes(observed, manifest.num_classes, params) == expected
                if observed and observed[-1].t + 2 * observed[-1].delta <= f_obs:
                    trailing_empty += 1
        if dataset is NOISY_SET:
            assert trailing_empty > 0

    def test_snapshot_does_not_disturb_linking(self):
        stream = walking_detections(BoundingBox(10, 20, 50, 80), range(1, 9))
        linker = OnlineLinker(num_classes=2)
        for d in stream:
            linker.push([d])
            linker.snapshot()
        assert linker.snapshot() == reference_build_tubes(stream, num_classes=2)

    def test_empty_push_is_a_no_op(self):
        linker = OnlineLinker(num_classes=2)
        linker.push([])
        assert linker.snapshot() == []

    @pytest.mark.parametrize("first, second", [
        ([det(1, BoundingBox(10, 10, 50, 50), delta=1)],
         [det(2, BoundingBox(10, 10, 50, 50), delta=2)]),
        ([det(1, BoundingBox(10, 10, 50, 50))],
         [det(2, BoundingBox(10, 10, 50, 50), num_classes=3)]),
        ([det(3, BoundingBox(10, 10, 50, 50))],
         [det(1, BoundingBox(10, 10, 50, 50))]),
        ([det(1, BoundingBox(10, 10, 50, 50), delta=2)],
         [det(4, BoundingBox(10, 10, 50, 50), delta=2)]),
    ], ids=["mixed_delta", "score_count", "out_of_order", "off_stride"])
    def test_push_errors_match_build_tubes(self, first, second):
        with pytest.raises(ValueError) as batch:
            reference_build_tubes(first + second, num_classes=2)
        linker = OnlineLinker(num_classes=2)
        linker.push(first)
        with pytest.raises(ValueError) as online:
            linker.push(second)
        assert str(online.value) == str(batch.value)
        with pytest.raises(ValueError) as rebuilt:
            build_tubes(first + second, num_classes=2)
        assert str(rebuilt.value) == str(batch.value)

    def test_mixed_frames_in_one_push_rejected(self):
        box = BoundingBox(10, 10, 50, 50)
        with pytest.raises(ValueError, match="mixed frames in one step"):
            OnlineLinker(num_classes=2).push([det(1, box), det(2, box)])


class TestActionTubeInvariants:
    def test_contiguity_enforced(self):
        b = BoundingBox(0, 0, 10, 10)
        with pytest.raises(ValueError, match="not contiguous"):
            ActionTube(class_id=0, tube_score=1.0, detected={1: b, 2: b, 5: b}, predicted={})

    def test_predicted_must_follow_detected(self):
        b = BoundingBox(0, 0, 10, 10)
        with pytest.raises(ValueError, match="follow the detected"):
            ActionTube(class_id=0, tube_score=1.0, detected={1: b, 2: b}, predicted={2: b})

    def test_stride_lattice_is_contiguous(self):
        b = BoundingBox(0, 0, 10, 10)
        tube = ActionTube(class_id=0, tube_score=1.0,
                          detected={1: b, 3: b, 5: b}, predicted={6: b})
        assert tube.last_detected_frame == 5

    def test_scores_validated(self):
        b = BoundingBox(0, 0, 10, 10)
        with pytest.raises(ValueError, match="sum to 1"):
            MicroTubeDetection(t=1, delta=1, box_t=b, box_t_plus_delta=b,
                               class_scores=(0.5, 0.1, 0.1))

    def test_payload_roundtrip_fields(self):
        b = BoundingBox(0, 0, 10, 10)
        payload = PredictionPayload(future_boxes=(b, b), past_box=None)
        d = MicroTubeDetection(t=1, delta=1, box_t=b, box_t_plus_delta=b,
                               class_scores=scores_for(0, 2), predictions=payload)
        assert d.predictions.future_boxes == (b, b)
