from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np
import pytest

from tubekit.geometry import BoundingBox, iou
from tubekit.linking import (
    ActionTube,
    ActiveTube,
    LinkParams,
    MicroTubeStream,
    OnlineLinker,
    build_tubes,
    link_step,
    microtube_iou,
    nms,
)
from tubekit.metrics import observed_frames
from tubekit.synth import NoiseModel, lane_dataset

from records import MicroTubeDetection, records_of, stream_of, tube_records


def paired_mean_iou(boxes_a: Sequence[BoundingBox], boxes_b: Sequence[BoundingBox]) -> float:
    """Mean of frame-aligned IoUs between two equal-length box sequences.

    The scalar overlap of two micro-tubes (box at t with box at t, box at
    t+delta with box at t+delta): the oracle of ``linking.microtube_iou``.
    """
    if len(boxes_a) != len(boxes_b):
        raise ValueError(f"length mismatch: {len(boxes_a)} vs {len(boxes_b)}")
    if not boxes_a:
        raise ValueError("empty micro-tube")
    return sum(iou(a, b) for a, b in zip(boxes_a, boxes_b)) / len(boxes_a)


def pair_overlaps(pairs):
    """The ``nms`` overlap table of (box at t, box at t+delta) pairs."""
    boxes = np.array([[a.as_tuple(), b.as_tuple()] for a, b in pairs]).reshape(len(pairs), 2, 4)
    return microtube_iou(boxes[:, None], boxes[None, :]).tolist()


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


# -- the scalar linker over detection records: the oracle of the array one ----

def reference_nms(microtubes, scores, threshold=0.45):
    """Greedy NMS computing each overlap with ``paired_mean_iou``."""
    if len(microtubes) != len(scores):
        raise ValueError(f"{len(microtubes)} micro-tubes but {len(scores)} scores")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    suppressed = [False] * len(scores)
    kept = []
    for i in order:
        if suppressed[i]:
            continue
        kept.append(i)
        for j in order:
            if j != i and not suppressed[j]:
                if paired_mean_iou(microtubes[i], microtubes[j]) > threshold:
                    suppressed[j] = True
    return kept


@dataclass
class ReferenceActiveTube:
    """Open-tube state whose members are detection records."""

    class_id: int
    members: list
    missed: int = 0

    @property
    def tail_box(self) -> BoundingBox:
        return self.members[-1].box_t_plus_delta

    @property
    def next_link_frame(self) -> int:
        last = self.members[-1]
        return last.t + last.delta * (1 + self.missed)


def reference_link_step(active, detections, class_id, params=LinkParams()):
    """Association of one step computing each overlap with ``iou``."""
    if detections:
        t_new = detections[0].t
        if any(d.t != t_new for d in detections):
            raise ValueError("temporal discontinuity: detections from mixed frames in one step")
        for tube in active:
            if tube.next_link_frame != t_new:
                raise ValueError(
                    f"temporal discontinuity: tube expects frame {tube.next_link_frame}, "
                    f"step is at {t_new}"
                )

    candidates = []
    for i, tube in enumerate(active):
        tail = tube.tail_box
        for j, d in enumerate(detections):
            overlap = iou(tail, d.box_t)
            if overlap >= params.iou_gate:
                score = d.class_scores[class_id] + params.link_lambda * overlap
                candidates.append((score, i, j))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

    tube_taken = [False] * len(active)
    det_taken = [False] * len(detections)
    for _, i, j in candidates:
        if not tube_taken[i] and not det_taken[j]:
            active[i].members.append(detections[j])
            active[i].missed = 0
            tube_taken[i] = True
            det_taken[j] = True
    for i, tube in enumerate(active):
        if not tube_taken[i]:
            tube.missed += 1

    out = list(active)
    for j, d in enumerate(detections):
        if not det_taken[j]:
            out.append(ReferenceActiveTube(class_id=class_id, members=[d]))
    return out


def reference_finalize(tube):
    """Dict-built detected segment: the oracle of ``linking._finalize``."""
    detected = {}
    for m in tube.members:
        # At the shared frame the newer micro-tube's first box overwrites the
        # older one's second box.
        detected[m.t] = m.box_t
        detected[m.t + m.delta] = m.box_t_plus_delta
    score = sum(m.class_scores[tube.class_id] for m in tube.members) / len(tube.members)
    return ActionTube(class_id=tube.class_id, tube_score=score, detected=detected,
                      predicted={}, members=stream_of(tube.members))


def step_inputs(tubes, dets, class_id=0):
    """A stream holding open tubes' members then one step's detections, the
    tubes as linking states over its rows, and the other ``link_step``
    arguments: the step's rows, their class scores and the tail overlaps."""
    stream = stream_of([m for tube in tubes for m in tube] + list(dets))
    active, row = [], 0
    for tube in tubes:
        active.append(ActiveTube(class_id=class_id, members=list(range(row, row + len(tube)))))
        row += len(tube)
    overlaps = [[iou(tube[-1].box_t_plus_delta, d.box_t) for d in dets] for tube in tubes]
    scores = [d.class_scores[class_id] for d in dets]
    return stream, active, list(range(row, row + len(dets))), scores, overlaps


class TestNMS:
    def test_single_detection_kept(self):
        assert nms(pair_overlaps([shifted_pair(0)]), [0.5]) == [0]

    def test_identical_pair_keeps_higher_score(self):
        pairs = [shifted_pair(0), shifted_pair(0)]
        assert nms(pair_overlaps(pairs), [0.8, 0.9]) == [1]

    def test_threshold_is_strict(self):
        # mean IoU (100-s)/(100+s): s for 0.44 and 0.46 around the 0.45 gate
        s44 = 100 * (1 - 0.44) / (1 + 0.44)
        s46 = 100 * (1 - 0.46) / (1 + 0.46)
        pairs = [shifted_pair(0), shifted_pair(s44), shifted_pair(s46)]
        kept = nms(pair_overlaps(pairs), [0.9, 0.5, 0.4], threshold=0.45)
        assert kept == [0, 1]

    def test_order_is_descending_score(self):
        pairs = [shifted_pair(0), shifted_pair(70), shifted_pair(140)]
        assert nms(pair_overlaps(pairs), [0.2, 0.9, 0.5]) == [1, 2, 0]

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
            kept = set(nms(pair_overlaps(pairs), scores))
            perm = list(rng.permutation(n))
            shuffled_kept = {perm[i] for i in nms(pair_overlaps([pairs[j] for j in perm]),
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
            assert set(nms(pair_overlaps(pairs), scores, 0.45)) == set(
                brute_force_nms(pairs, scores, 0.45))

    def test_overlaps_equal_scalar_paired_mean_iou(self):
        rng = np.random.default_rng(29)
        pairs = []
        for _ in range(60):
            # Integer corners give touching, nested, identical and disjoint pairs.
            x, y = (int(v) for v in rng.integers(0, 12, size=2))
            w, h = (int(v) for v in rng.integers(0, 6, size=2))
            a = BoundingBox(x, y, x + w, y + h)
            pairs.append((a, a.translated(*(int(v) for v in rng.integers(-2, 3, size=2)))))
        table = pair_overlaps(pairs)
        for i, p in enumerate(pairs):
            assert table[i] == [paired_mean_iou(p, q) for q in pairs]

    def test_equals_scalar_reference_with_ties(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            pairs = []
            for _ in range(n):
                x, y = (int(v) for v in rng.integers(0, 10, size=2))
                a = BoundingBox(x, y, x + 4, y + 4)
                pairs.append((a, a.translated(int(rng.integers(-1, 2)), 0)))
            scores = [float(s) for s in rng.choice([0.3, 0.6, 0.9], size=n)]
            assert nms(pair_overlaps(pairs), scores) == reference_nms(pairs, scores)


class TestLinkStep:
    def test_perfect_tail_extends(self):
        box = BoundingBox(10, 10, 50, 50)
        _, [tube], rows, scores, overlaps = step_inputs([[det(1, box)]], [det(2, box)])
        out = link_step([tube], rows, 0, scores, overlaps)
        assert len(out) == 1
        assert len(out[0].members) == 2
        assert out[0].missed == 0

    def test_empty_step_leaves_tubes(self):
        box = BoundingBox(10, 10, 50, 50)
        _, [tube], rows, scores, overlaps = step_inputs([[det(1, box)]], [])
        out = link_step([tube], rows, 0, scores, overlaps)
        assert out == [tube]
        assert len(out[0].members) == 1
        assert out[0].missed == 1

    def test_unmatched_detection_starts_tube(self):
        a = BoundingBox(10, 10, 50, 50)
        b = BoundingBox(200, 10, 240, 50)
        stream, [tube], rows, scores, overlaps = step_inputs([[det(1, a)]],
                                                             [det(2, a), det(2, b)])
        out = link_step([tube], rows, 0, scores, overlaps)
        assert len(out) == 2
        assert records_of(stream)[out[1].members[0]].box_t == b

    def test_two_actors_resolved_like_exhaustive_oracle(self):
        a = BoundingBox(10, 10, 50, 50)
        b = BoundingBox(200, 10, 240, 50)
        tube_dets = [[det(1, a)], [det(1, b)]]
        dets = [det(2, b), det(2, a)]
        params = LinkParams()
        # exhaustive 2x2 oracle: best total link score over the two bijections
        def link_score(tube, d):
            ov = paired_mean_iou([tube[-1].box_t_plus_delta], [d.box_t])
            return d.class_scores[0] + params.link_lambda * ov if ov >= params.iou_gate else None

        straight = [link_score(tube_dets[0], dets[0]), link_score(tube_dets[1], dets[1])]
        crossed = [link_score(tube_dets[0], dets[1]), link_score(tube_dets[1], dets[0])]
        assert None in straight and all(s is not None for s in crossed)
        stream, tubes, rows, scores, overlaps = step_inputs(tube_dets, dets)
        out = link_step(tubes, rows, 0, scores, overlaps, params=params)
        assert len(out) == 2
        assert records_of(stream)[out[0].members[-1]].box_t == a
        assert records_of(stream)[out[1].members[-1]].box_t == b

    def test_gate_blocks_weak_overlap(self):
        far = det(2, BoundingBox(100, 100, 140, 140))
        _, [tube], rows, scores, overlaps = step_inputs(
            [[det(1, BoundingBox(0, 0, 40, 40))]], [far])
        out = link_step([tube], rows, 0, scores, overlaps, params=LinkParams(iou_gate=0.1))
        assert len(out) == 2
        assert out[0].missed == 1

    def test_frame_misalignment_rejected(self):
        # Steps are aligned by the linker, which rejects frames off the stride.
        box = BoundingBox(0, 0, 40, 40)
        linker = OnlineLinker(num_classes=2)
        linker.push(stream_of([det(1, box, delta=2)]))
        with pytest.raises(ValueError, match="temporal discontinuity"):
            linker.push(stream_of([det(4, box, delta=2)]))
        with pytest.raises(ValueError, match="temporal discontinuity"):
            OnlineLinker(num_classes=2).push(stream_of([det(2, box, delta=2),
                                                        det(3, box, delta=2)]))

    def test_equals_scalar_reference(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            tubes = []
            for _ in range(int(rng.integers(0, 5))):
                x = int(rng.integers(0, 30))
                tubes.append([det(1, BoundingBox(x, 0, x + 10, 10))])
            dets = []
            for _ in range(int(rng.integers(0, 5))):
                x = int(rng.integers(0, 30))
                dets.append(det(2, BoundingBox(x, 0, x + 10, 10),
                                confidence=float(rng.choice([0.5, 0.9]))))
            stream, active, rows, scores, overlaps = step_inputs(tubes, dets)
            out = link_step(active, rows, 0, scores, overlaps)
            expected = reference_link_step([ReferenceActiveTube(0, list(t)) for t in tubes],
                                           dets, 0)
            records = records_of(stream)
            assert [[records[r] for r in tube.members] for tube in out] == [
                tube.members for tube in expected]
            assert [tube.missed for tube in out] == [tube.missed for tube in expected]


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
        tubes = build_tubes(stream_of(stream), num_classes=2)
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
        tube = build_tubes(stream_of(stream), num_classes=2)[0]
        assert tube.detected[2] == b2  # newer micro-tube's first box wins

    def test_two_separated_actors_two_tubes(self):
        left = walking_detections(BoundingBox(10, 10, 50, 50), range(1, 4))
        right = walking_detections(BoundingBox(200, 10, 240, 50), range(1, 4), vx=-2.0)
        stream = sorted(left + right, key=lambda d: d.t)
        tubes = build_tubes(stream_of(stream), num_classes=2)
        assert len(tubes) == 2
        firsts = sorted(t.detected[1].x_min for t in tubes)
        assert firsts == [10, 200]

    def test_classes_linked_separately(self):
        a = walking_detections(BoundingBox(10, 10, 50, 50), range(1, 4), class_id=0)
        b = walking_detections(BoundingBox(12, 10, 52, 50), range(1, 4), class_id=1)
        stream = sorted(a + b, key=lambda d: d.t)
        tubes = build_tubes(stream_of(stream), num_classes=2)
        assert sorted(t.class_id for t in tubes) == [0, 1]

    def test_background_only_stream_yields_nothing(self):
        box = BoundingBox(10, 10, 50, 50)
        stream = [
            MicroTubeDetection(t=t, delta=1, box_t=box, box_t_plus_delta=box,
                               class_scores=(0.001, 0.001, 0.998))
            for t in (1, 2, 3)
        ]
        assert build_tubes(stream_of(stream), num_classes=2) == []

    def test_empty_stream(self):
        assert build_tubes(stream_of([]), num_classes=2) == []

    def test_unsorted_stream_rejected(self):
        box = BoundingBox(10, 10, 50, 50)
        stream = [det(3, box), det(1, box)]
        with pytest.raises(ValueError, match="unsorted stream"):
            build_tubes(stream_of(stream), num_classes=2)

    def test_missed_step_splits_tube_at_default_patience(self):
        base = BoundingBox(10, 20, 50, 80)
        stream = walking_detections(base, [1, 2, 5, 6])
        with_gap = [d for d in stream]
        tubes = build_tubes(stream_of(with_gap), num_classes=2)
        assert len(tubes) == 2

    def test_patience_bridges_single_gap(self):
        base = BoundingBox(10, 20, 50, 80)
        stream = walking_detections(base, [1, 2, 4, 5])
        tubes = build_tubes(stream_of(stream), num_classes=2, params=LinkParams(patience=2))
        assert len(tubes) == 1
        assert sorted(tubes[0].detected) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("kwargs, message", [
        ({"nms_threshold": 1.5}, "nms threshold must lie in"),
        ({"patience": 0}, "patience must be 1 or 2, got 0"),
        ({"patience": 3}, "patience must be 1 or 2, got 3: bridging two or more missed steps"),
    ], ids=["nms1.5", "patience0", "patience3"])
    def test_link_params_validated(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            LinkParams(**kwargs)

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
        first = build_tubes(stream_of(stream), num_classes=2)
        second = build_tubes(stream_of(stream), num_classes=2)
        assert first == second
        assert tube_records(first) == tube_records(second)

    def test_no_fabricated_boxes(self):
        rng = np.random.default_rng(37)
        stream = []
        for t in range(1, 12):
            x = float(rng.uniform(0, 200))
            b1 = BoundingBox(x, 10, x + 50, 70)
            b2 = b1.translated(float(rng.uniform(-4, 4)), 0.0)
            stream.append(det(t, b1, box2=b2))
        source_boxes = {b.as_tuple() for d in stream for b in (d.box_t, d.box_t_plus_delta)}
        for tube in build_tubes(stream_of(stream), num_classes=2):
            for box in tube.detected.values():
                assert box.as_tuple() in source_boxes

    def test_score_sorted_output(self):
        hi = walking_detections(BoundingBox(10, 10, 50, 50), range(1, 4), confidence=0.95)
        lo = walking_detections(BoundingBox(200, 10, 240, 50), range(1, 4), confidence=0.55)
        stream = sorted(hi + lo, key=lambda d: d.t)
        tubes = build_tubes(stream_of(stream), num_classes=2)
        assert [round(t.tube_score, 2) for t in tubes] == [0.95, 0.55]

    def test_mixed_delta_rejected(self):
        box = BoundingBox(10, 10, 50, 50)
        with pytest.raises(ValueError, match="mixed frame gaps"):
            build_tubes(stream_of([det(1, box, delta=1), det(2, box, delta=2)]), num_classes=2)


def reference_build_tubes(
    stream: Iterable[MicroTubeDetection],
    num_classes: int,
    params: LinkParams = LinkParams(),
) -> list[ActionTube]:
    """Class-outer batch linker: the implementation OnlineLinker replaced.

    Kept as the oracle for OnlineLinker and build_tubes, over the scalar
    reference NMS, association and finalisation.

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
        active: list[ReferenceActiveTube] = []
        closed: list[ReferenceActiveTube] = []
        for t in lattice:
            step = [
                d for d in groups.get(t, [])
                if d.class_scores[class_id] >= params.score_threshold
            ]
            if step:
                keep = reference_nms([(d.box_t, d.box_t_plus_delta) for d in step],
                                     [d.class_scores[class_id] for d in step],
                                     params.nms_threshold)
                step = [step[i] for i in keep]
            active = reference_link_step(active, step, class_id, params)
            still = []
            for tube in active:
                (closed if tube.missed >= params.patience else still).append(tube)
            active = still
        closed.extend(active)
        finished.extend(reference_finalize(tube) for tube in closed)

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
        observed = [d for d in records_of(stream) if d.t + d.delta <= f_obs]
        for _, step in groupby(observed[pushed:], key=attrgetter("t")):
            linker.push(stream_of(list(step)))
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
                    assert all(a == b for a, b in zip(records_of(got.members),
                                                      records_of(want.members)))
                assert build_tubes(stream_of(observed), manifest.num_classes, params) == expected
                if observed and observed[-1].t + 2 * observed[-1].delta <= f_obs:
                    trailing_empty += 1
        if dataset is NOISY_SET:
            assert trailing_empty > 0

    def test_snapshot_does_not_disturb_linking(self):
        stream = walking_detections(BoundingBox(10, 20, 50, 80), range(1, 9))
        linker = OnlineLinker(num_classes=2)
        for d in stream:
            linker.push(stream_of([d]))
            linker.snapshot()
        assert linker.snapshot() == reference_build_tubes(stream, num_classes=2)
        assert tube_records(linker.snapshot()) == tube_records(
            reference_build_tubes(stream, num_classes=2))

    def test_empty_push_is_a_no_op(self):
        linker = OnlineLinker(num_classes=2)
        linker.push(stream_of([]))
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
        linker.push(stream_of(first))
        with pytest.raises(ValueError) as online:
            linker.push(stream_of(second))
        assert str(online.value) == str(batch.value)
        with pytest.raises(ValueError) as rebuilt:
            build_tubes(stream_of(first + second), num_classes=2)
        assert str(rebuilt.value) == str(batch.value)

    @pytest.mark.parametrize("params", [LinkParams(), LinkParams(patience=2)],
                             ids=["patience1", "patience2"])
    def test_multi_frame_push_equals_frame_pushes(self, params):
        manifest, streams = lane_dataset(**NOISY_SET)
        rng = np.random.default_rng(47)
        for video_id in manifest.videos:
            stream = streams[video_id]
            whole = OnlineLinker(manifest.num_classes, params)
            whole.push(stream)
            chunked = OnlineLinker(manifest.num_classes, params)
            # Cut before random frames; chunks hold whole frames, some none.
            frames = rng.choice(stream.t, size=4)
            cuts = np.searchsorted(stream.t, np.sort(frames)).tolist()
            for lo, hi in zip([0, *cuts], [*cuts, len(stream)]):
                chunked.push(stream[lo:hi])
            expected = reference_build_tubes(records_of(stream), manifest.num_classes, params)
            assert whole.snapshot() == expected
            assert chunked.snapshot() == expected
            assert tube_records(whole.snapshot()) == tube_records(expected)
            assert tube_records(chunked.snapshot()) == tube_records(expected)

    def test_closed_tubes_finalised_once(self):
        left = walking_detections(BoundingBox(10, 10, 50, 50), [1, 2, 3])
        right = walking_detections(BoundingBox(200, 10, 240, 50), range(1, 9))
        stream = sorted(left + right, key=attrgetter("t"))
        linker = OnlineLinker(num_classes=2)
        linker.push(stream_of(stream))
        first, second = linker.snapshot(), linker.snapshot()
        assert first == second == reference_build_tubes(stream, num_classes=2)
        assert tube_records(first) == tube_records(reference_build_tubes(stream, num_classes=2))
        closed = [tube for tube in first if tube.last_detected_frame == 4]
        assert len(closed) == 1
        assert any(tube is closed[0] for tube in second)
        still_open = [tube for tube in first if tube.last_detected_frame == 9]
        assert len(still_open) == 1 and all(tube is not still_open[0] for tube in second)


class TestMicroTubeStream:
    def test_rows_are_sliced_not_indexed(self):
        stream = stream_of(walking_detections(BoundingBox(10, 20, 50, 80), range(1, 4)))
        assert not isinstance(stream, Sequence)
        assert stream[1:].t.tolist() == [2, 3]
        assert stream.observed(3).t.tolist() == [1, 2]
        with pytest.raises(TypeError, match="sliced, not indexed"):
            stream[0]
        with pytest.raises(TypeError, match="sliced, not indexed"):
            list(stream)

    def test_empty_stream_is_shared_and_read_only(self):
        assert stream_of([]) is MicroTubeStream.EMPTY
        assert len(MicroTubeStream.EMPTY.observed(10)) == 0
        assert not MicroTubeStream.EMPTY.t.flags.writeable
        tube = ActionTube(class_id=0, tube_score=1.0, detected={1: BoundingBox(0, 0, 1, 1)},
                          predicted={})
        assert tube.members is MicroTubeStream.EMPTY


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


def random_stream(rng, num_classes, delta, num_steps):
    """Moving actors, misses, skipped steps, false positives, exact duplicates
    and class scores on a tenths grid, so scores and tube scores tie."""
    actors = []
    for _ in range(int(rng.integers(1, 4))):
        x, y = rng.uniform(0, 150, size=2)
        actors.append((BoundingBox(x, y, x + 40, y + 40), rng.uniform(-3, 3, size=2),
                       int(rng.integers(num_classes))))

    def scores(class_id):
        counts = rng.multinomial(4, [1 / (num_classes + 1)] * (num_classes + 1))
        counts[class_id] += 6
        return tuple(float(c) / 10 for c in counts)

    stream = []
    for step in range(num_steps):
        t = 1 + step * delta
        if rng.random() < 0.15:
            continue
        here = []
        for start, (vx, vy), class_id in actors:
            if rng.random() < 0.2:
                continue
            box = start.translated(vx * t + rng.normal(0, 1), vy * t + rng.normal(0, 1))
            here.append(MicroTubeDetection(t, delta, box, box.translated(vx * delta, vy * delta),
                                           scores(class_id)))
        for _ in range(int(rng.poisson(1.0))):
            x, y = rng.uniform(0, 150, size=2)
            box = BoundingBox(x, y, x + rng.uniform(10, 50), y + rng.uniform(10, 50))
            here.append(MicroTubeDetection(t, delta, box, box,
                                           scores(int(rng.integers(num_classes)))))
        if here and rng.random() < 0.2:
            here.append(here[int(rng.integers(len(here)))])
        stream.extend(here[i] for i in rng.permutation(len(here)))
    return stream


class TestAgainstScalarReference:
    @pytest.mark.parametrize("delta", [1, 2])
    @pytest.mark.parametrize("patience", [1, 2])
    def test_random_streams(self, delta, patience):
        rng = np.random.default_rng(100 * delta + patience)
        params = LinkParams(patience=patience)
        ties = 0
        for _ in range(40):
            records = random_stream(rng, num_classes=3, delta=delta,
                                    num_steps=int(rng.integers(1, 25)))
            stream = stream_of(records)
            expected = reference_build_tubes(records, 3, params)
            got = build_tubes(stream, 3, params)
            assert len(got) == len(expected)
            for tube, want in zip(got, expected):
                assert tube.class_id == want.class_id
                assert tube.tube_score == want.tube_score
                assert records_of(tube.members) == records_of(want.members)
                assert tube.detected.frames.tolist() == sorted(want.detected)
                assert [tube.detected[f] for f in tube.detected] == [
                    want.detected[f] for f in sorted(want.detected)]
            scores = [t.tube_score for t in got]
            ties += len(scores) - len(set(scores))
            # The same stream pushed in chunks, snapshotted at each cut.
            linker, pushed = OnlineLinker(3, params), 0
            cuts = np.unique(rng.choice(stream.t, size=3)) if len(stream) else []
            for frame in [*cuts, stream.t[-1] + 1 if len(stream) else 1]:
                prefix = int(np.searchsorted(stream.t, frame))
                linker.push(stream[pushed:prefix])
                pushed = prefix
                assert linker.snapshot() == reference_build_tubes(records[:prefix], 3, params)
                assert tube_records(linker.snapshot()) == tube_records(
                    reference_build_tubes(records[:prefix], 3, params))
        assert ties > 0
