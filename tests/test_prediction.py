from dataclasses import replace

import numpy as np
import pytest

from tubekit.geometry import BoundingBox, FrameSize, clip_box, extrapolate, iou
from tubekit.linking import ActionTube, LinkParams, build_tubes
from tubekit.prediction import (
    VELOCITY_WINDOW,
    PredictionHorizon,
    assemble_future,
    early_label,
    predict_full_tube,
)
from tubekit.synth import NoiseModel, lane_dataset

from records import MicroTubeDetection, PredictionPayload, records_of, stream_of

FRAME = FrameSize(320, 240)


def reference_extrapolate(history, target_frames, frame, window=5):
    """Scalar constant-velocity extrapolation over ``(frame, box)`` pairs:
    the oracle of the array kernel ``geometry.extrapolate``."""
    if len(history) < 2:
        raise ValueError("insufficient history")
    frames = [f for f, _ in history]
    if any(b >= a for a, b in zip(frames[1:], frames)):
        raise ValueError(f"history frames must be strictly increasing, got {frames}")
    last_frame, last_box = history[-1]
    if any(t <= last_frame for t in target_frames):
        raise ValueError(f"target frames must follow the last history frame {last_frame}")

    recent = history[-min(window, len(history)):]
    steps = len(recent) - 1
    velocity = [0.0, 0.0, 0.0, 0.0]
    for (fa, a), (fb, b) in zip(recent, recent[1:]):
        gap = fb - fa
        for k, (va, vb) in enumerate(zip(a.as_tuple(), b.as_tuple())):
            velocity[k] += (vb - va) / gap
    velocity = [v / steps for v in velocity]

    out = []
    for t in target_frames:
        gap = t - last_frame
        x0, y0, x1, y1 = (c + v * gap for c, v in zip(last_box.as_tuple(), velocity))
        if x0 > x1:
            x0 = x1 = 0.5 * (x0 + x1)
        if y0 > y1:
            y0 = y1 = 0.5 * (y0 + y1)
        out.append(clip_box(BoundingBox(x0, y0, x1, y1), frame))
    return out


def reference_predict_full_tube(tube, now, video_length, horizon, frame, aggregate="latest"):
    """Frame-by-frame dict completion: the oracle of ``predict_full_tube``."""
    if now >= video_length:
        return replace(tube, predicted={})
    assembled = {
        f: clip_box(box, frame)
        for f, box in assemble_future(tube, now, horizon, aggregate).items()
        if f <= video_length
    }
    known = sorted({**tube.detected, **assembled}.items())
    predicted = dict(assembled)
    missing = [f for f in range(now + 1, video_length + 1) if f not in assembled]
    runs: list[list[int]] = []
    for f in missing:
        if runs and runs[-1][-1] == f - 1:
            runs[-1].append(f)
        else:
            runs.append([f])
    for run in runs:
        history = [(f, b) for f, b in known if f < run[0]][-VELOCITY_WINDOW:]
        boxes = reference_extrapolate(history, run, frame, window=VELOCITY_WINDOW)
        predicted.update(zip(run, boxes))
    return replace(tube, predicted=dict(sorted(predicted.items())))


def box_rows(boxes):
    """``(frame, coordinate reprs)`` rows; unlike ``==`` they tell -0.0 from 0.0."""
    return [(f, *map(repr, box.as_tuple())) for f, box in boxes.items()]


def actor_box(t, vx=2.0, vy=0.0):
    return BoundingBox(10 + vx * (t - 1), 40 + vy * (t - 1), 60 + vx * (t - 1), 120 + vy * (t - 1))


def scores(confidence=0.9, num_classes=2, class_id=0):
    s = [0.001] * (num_classes + 1)
    s[class_id] = confidence
    s[-1] = 1.0 - confidence - 0.001 * (num_classes - 1)
    return tuple(s)


def make_stream(frames, horizon, vx=2.0, class_id=0, box_fn=None):
    box_fn = box_fn or (lambda t: actor_box(t, vx=vx))
    stream = []
    for t in frames:
        payload = None
        if horizon.n > 0 or horizon.delta_p > 0:
            payload = PredictionPayload(
                future_boxes=tuple(box_fn(t + k * horizon.delta_f) for k in range(1, horizon.n + 1)),
                past_box=box_fn(t - horizon.delta_p) if horizon.delta_p > 0 else None,
            )
        stream.append(MicroTubeDetection(
            t=t, delta=1, box_t=box_fn(t), box_t_plus_delta=box_fn(t + 1),
            class_scores=scores(class_id=class_id), predictions=payload,
        ))
    return stream


def linked_tube(now, horizon, vx=2.0, box_fn=None):
    stream = make_stream(range(1, now), horizon, vx=vx, box_fn=box_fn)
    tubes = build_tubes(stream_of(stream), num_classes=2)
    assert len(tubes) == 1
    return tubes[0]


class TestAssembleFuture:
    def test_single_member_copies_payload(self):
        horizon = PredictionHorizon(0, 5, 3)
        box = BoundingBox(10, 10, 60, 60)
        payload = PredictionPayload(future_boxes=(
            BoundingBox(1, 0, 51, 50), BoundingBox(2, 0, 52, 50), BoundingBox(3, 0, 53, 50)
        ))
        member = MicroTubeDetection(t=7, delta=1, box_t=box, box_t_plus_delta=box,
                                    class_scores=scores(), predictions=payload)
        tube = ActionTube(class_id=0, tube_score=0.9, detected={7: box, 8: box},
                          predicted={}, members=stream_of([member]))
        out = assemble_future(tube, now=8, horizon=horizon)
        assert set(out) == {12, 17, 22}
        assert out[12] == payload.future_boxes[0]
        assert out[22] == payload.future_boxes[2]

    def test_latest_member_wins_conflicts(self):
        horizon = PredictionHorizon(0, 5, 3)
        tube = linked_tube(now=10, horizon=horizon)
        # members at t=1..9; frame 14 is predicted by both t=9 (k=1) and t=4 (k=2)
        marker = BoundingBox(300, 200, 310, 210)
        members = records_of(tube.members)
        old = members[3]  # t = 4
        members[3] = MicroTubeDetection(
            t=old.t, delta=old.delta, box_t=old.box_t, box_t_plus_delta=old.box_t_plus_delta,
            class_scores=old.class_scores,
            predictions=PredictionPayload(future_boxes=(
                old.predictions.future_boxes[0], marker, old.predictions.future_boxes[2]
            )),
        )
        tube = ActionTube(class_id=tube.class_id, tube_score=tube.tube_score,
                          detected=tube.detected, predicted={}, members=stream_of(members))
        out = assemble_future(tube, now=10, horizon=horizon)
        assert out[14] != marker
        assert out[14] == records_of(tube.members)[-1].predictions.future_boxes[0]

    def test_mean_aggregate_averages(self):
        horizon = PredictionHorizon(0, 1, 2)
        box = BoundingBox(10, 10, 20, 20)
        low = BoundingBox(0, 0, 10, 10)
        high = BoundingBox(10, 10, 20, 20)
        m1 = MicroTubeDetection(t=1, delta=1, box_t=box, box_t_plus_delta=box,
                                class_scores=scores(),
                                predictions=PredictionPayload(future_boxes=(low, low)))
        m2 = MicroTubeDetection(t=2, delta=1, box_t=box, box_t_plus_delta=box,
                                class_scores=scores(),
                                predictions=PredictionPayload(future_boxes=(high, high)))
        tube = ActionTube(class_id=0, tube_score=0.9, detected={1: box, 2: box, 3: box},
                          predicted={}, members=stream_of([m1, m2]))
        out = assemble_future(tube, now=3, horizon=horizon, aggregate="mean")
        # frame 4 = m2 k=2 only; frame 3 excluded (<= now); m1 k=2 covers 3
        assert set(out) == {4}
        assert out[4] == high
        both = assemble_future(tube, now=2, horizon=horizon, aggregate="mean")
        # frame 3: m1 k=2 (low) and m2 k=1 (high) average together
        assert both[3] == BoundingBox(5, 5, 15, 15)

    def test_n_zero_empty(self):
        horizon = PredictionHorizon(0, 5, 0)
        tube = linked_tube(now=6, horizon=horizon)
        assert assemble_future(tube, now=6, horizon=horizon) == {}

    def test_exact_payloads_give_unit_iou(self):
        horizon = PredictionHorizon(0, 5, 3)
        tube = linked_tube(now=10, horizon=horizon)
        out = assemble_future(tube, now=10, horizon=horizon)
        for f, box in out.items():
            assert iou(box, actor_box(f)) == pytest.approx(1.0)


class TestPredictFullTube:
    def test_constant_velocity_exact(self):
        horizon = PredictionHorizon(0, 5, 3)
        T = 40
        tube = linked_tube(now=12, horizon=horizon)
        full = predict_full_tube(tube, now=12, video_length=T, horizon=horizon, frame=FRAME)
        assert sorted(full.predicted) == list(range(13, T + 1))
        for f, box in full.predicted.items():
            np.testing.assert_allclose(box.as_tuple(), actor_box(f).as_tuple(),
                                       rtol=1e-9, atol=1e-7)
        assert full.detected == tube.detected

    def test_pure_extrapolation_when_no_horizon(self):
        horizon = PredictionHorizon(0, 5, 0)
        tube = linked_tube(now=12, horizon=horizon)
        full = predict_full_tube(tube, now=12, video_length=30, horizon=horizon, frame=FRAME)
        assert sorted(full.predicted) == list(range(13, 31))
        for f, box in full.predicted.items():
            np.testing.assert_allclose(box.as_tuple(), actor_box(f).as_tuple(),
                                       rtol=1e-9, atol=1e-7)

    def test_stationary_actor_constant_segment(self):
        horizon = PredictionHorizon(0, 5, 3)
        still = BoundingBox(100, 100, 150, 160)
        tube = linked_tube(now=10, horizon=horizon, box_fn=lambda t: still)
        full = predict_full_tube(tube, now=10, video_length=25, horizon=horizon, frame=FRAME)
        assert all(box == still for box in full.predicted.values())

    def test_now_at_video_end_empty_prediction(self):
        horizon = PredictionHorizon(0, 5, 3)
        tube = linked_tube(now=10, horizon=horizon)
        full = predict_full_tube(tube, now=10, video_length=10, horizon=horizon, frame=FRAME)
        assert full.predicted == {}
        assert full.detected == tube.detected

    def test_prediction_clipped_to_frame(self):
        horizon = PredictionHorizon(0, 5, 0)
        tube = linked_tube(now=12, horizon=horizon, vx=12.0)
        full = predict_full_tube(tube, now=12, video_length=60, horizon=horizon, frame=FRAME)
        for box in full.predicted.values():
            assert 0 <= box.x_min <= box.x_max <= FRAME.width
            assert 0 <= box.y_min <= box.y_max <= FRAME.height
        assert full.predicted[60].x_max == FRAME.width

    def test_covers_every_future_frame(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            horizon = PredictionHorizon(0, int(rng.integers(1, 7)), int(rng.integers(0, 4)))
            now = int(rng.integers(6, 15))
            T = now + int(rng.integers(1, 20))
            tube = linked_tube(now=now, horizon=horizon, vx=float(rng.uniform(-2, 2)))
            full = predict_full_tube(tube, now=now, video_length=T, horizon=horizon, frame=FRAME)
            assert sorted(full.predicted) == list(range(now + 1, T + 1))

    def test_empty_tube_rejected(self):
        with pytest.raises(ValueError):
            predict_full_tube(
                ActionTube(class_id=0, tube_score=0.0, detected={1: BoundingBox(0, 0, 1, 1)},
                           predicted={}, members=stream_of(())),
                now=0, video_length=10, horizon=PredictionHorizon(0, 5, 1), frame=FRAME,
            )

    def test_frontier_inside_detected_segment_rejected(self):
        horizon = PredictionHorizon(0, 5, 3)
        tube = linked_tube(now=12, horizon=horizon)
        with pytest.raises(ValueError, match="observation frontier"):
            predict_full_tube(tube, now=5, video_length=40, horizon=horizon, frame=FRAME)

    def test_stride_two_tube_completes_per_frame(self):
        from tubekit.metrics import observed_frames
        from tubekit.synth import ScenarioSpec, ActorSpec, generate
        from tubekit.linking import build_tubes

        horizon = PredictionHorizon(0, 5, 3)
        actor = ActorSpec(0, BoundingBox(20, 50, 80, 150), velocities=((1, 1.0, 0.0),))
        spec = ScenarioSpec(seed=0, num_frames=40, frame=FRAME, actors=(actor,),
                            horizon=horizon, delta=2)
        entry, stream = generate(spec, num_classes=1)
        f_obs = observed_frames(entry.num_frames, 50)
        observed = [d for d in records_of(stream) if d.t + d.delta <= f_obs]
        tube = build_tubes(stream_of(observed), 1)[0]
        full = predict_full_tube(tube, f_obs, 40, horizon, FRAME)
        assert sorted(full.detected) == list(range(1, 20, 2))
        assert sorted(full.predicted) == list(range(f_obs + 1, 41))


def completion_cases():
    """(tube, now, T, horizon, aggregate) tuples for the reference comparison."""
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(40):  # payload runs, both aggregates, both frame edges
        horizon = PredictionHorizon(0, int(rng.integers(1, 7)), int(rng.integers(0, 4)))
        now = int(rng.integers(6, 15))
        tube = linked_tube(now=now, horizon=horizon, vx=float(rng.uniform(-12, 12)))
        cases.append((tube, now, now + int(rng.integers(1, 40)), horizon,
                      ("latest", "mean")[int(rng.integers(0, 2))]))
    # A shrinking box: the extrapolated tail collapses to the crossing midpoint.
    for horizon in (PredictionHorizon(0, 5, 0), PredictionHorizon(0, 1, 2)):
        tube = linked_tube(now=10, horizon=horizon,
                           box_fn=lambda t: BoundingBox(10 + 3 * t, 40, 100 - 3 * t, 120 - 2 * t))
        cases.append((tube, 10, 40, horizon, "latest"))
    # Signed zeros on the frame edge, in detected and payload boxes.
    horizon = PredictionHorizon(0, 2, 3)
    tube = linked_tube(now=8, horizon=horizon, box_fn=lambda t: BoundingBox(-0.0, -0.0, 50, 60))
    cases += [(tube, 8, 30, horizon, "latest"), (tube, 8, 30, horizon, "mean")]
    # Members without payloads under a horizon with future boxes.
    tube = linked_tube(now=10, horizon=PredictionHorizon(0, 5, 0))
    cases.append((tube, 10, 30, PredictionHorizon(0, 5, 3), "mean"))
    # Stride-2 noisy tubes closed by patience 2, at three frontiers.
    horizon = PredictionHorizon(0, 5, 3)
    noise = NoiseModel(center_sigma=2, size_sigma=2, false_positive_rate=0.3, miss_rate=0.6)
    manifest, streams = lane_dataset(seed=5, num_videos=2, num_classes=2, num_frames=60,
                                     noise=noise, horizon=horizon, delta=2)
    for stream in streams.values():
        for now in (13, 31, 47):
            observed = [d for d in records_of(stream) if d.t + d.delta <= now]
            for tube in build_tubes(stream_of(observed), 2, LinkParams(patience=2)):
                cases.append((tube, now, 60, horizon, "latest"))
    return cases


class TestAgainstScalarReference:
    def test_extrapolate_kernel(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            frames = sorted(rng.choice(np.arange(1, 30), size=int(rng.integers(2, 9)),
                                       replace=False).tolist())
            lo = rng.uniform(-40, 300, size=(len(frames), 2))
            boxes = np.hstack([lo, lo + rng.uniform(0, 60, size=lo.shape)])
            boxes[rng.random(boxes.shape) < 0.1] = -0.0
            boxes[:, 2:] = np.maximum(boxes[:, :2], boxes[:, 2:])
            targets = sorted(rng.choice(np.arange(frames[-1] + 1, frames[-1] + 40),
                                        size=int(rng.integers(1, 6)), replace=False).tolist())
            history = [(f, BoundingBox(*b)) for f, b in zip(frames, boxes.tolist())]
            got = [BoundingBox(*row) for row in extrapolate(frames, boxes, targets, FRAME).tolist()]
            want = reference_extrapolate(history, targets, FRAME)
            assert box_rows(dict(zip(targets, got))) == box_rows(dict(zip(targets, want)))

    def test_completed_tubes(self):
        collapsed = signed_zero = 0
        for tube, now, video_length, horizon, aggregate in completion_cases():
            got = predict_full_tube(tube, now, video_length, horizon, FRAME, aggregate)
            want = reference_predict_full_tube(tube, now, video_length, horizon, FRAME, aggregate)
            assert got == want
            assert box_rows(got.predicted) == box_rows(want.predicted)
            collapsed += int(np.sum(got.predicted.boxes[:, 0] == got.predicted.boxes[:, 2]))
            signed_zero += int(np.sum(np.signbit(got.predicted.boxes)))
        assert collapsed and signed_zero  # the cases reach both rules


class TestEarlyLabel:
    def tube(self, class_id, score):
        b = BoundingBox(0, 0, 10, 10)
        return ActionTube(class_id=class_id, tube_score=score, detected={1: b, 2: b}, predicted={})

    def test_single_tube(self):
        assert early_label([self.tube(7, 0.4)]) == 7

    def test_highest_score_wins(self):
        assert early_label([self.tube(2, 0.9), self.tube(5, 0.4)]) == 2

    def test_tie_prefers_lowest_class(self):
        assert early_label([self.tube(3, 0.6), self.tube(1, 0.6)]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no tubes"):
            early_label([])
