#!/usr/bin/env python3
"""From a micro-tube stream to completed action tubes.

A detector is simulated on a 40-frame video with two actors; the stream is
truncated at half the video, linked into tubes, and each tube's future is
assembled from its payload boxes plus constant-velocity extrapolation.

Run with: python3 demos/04_tube_linking_and_prediction.py
"""

from tubekit import (
    PredictionHorizon,
    build_tubes,
    early_label,
    predict_full_tube,
    tube_iou,
)
from tubekit.synth import NoiseModel, lane_scenario, generate

horizon = PredictionHorizon(delta_p=0, delta_f=5, n=3)
spec = lane_scenario(seed=4, num_actors=2, num_frames=40, class_id=1,
                     noise=NoiseModel(center_sigma=1.0), horizon=horizon)
entry, stream = generate(spec, num_classes=3, video_id="demo")
print(f"scenario: {len(entry.tubes)} actors, {entry.num_frames} frames, "
      f"{len(stream)} micro-tube detections")

# A video's micro-tubes travel as columns, the form read_detections returns:
print(f"stream columns: t {stream.t.shape}, pairs {stream.pairs.shape}, "
      f"scores {stream.scores.shape}, payload future boxes {stream.future.shape}")

# --- Observe only half the video ---------------------------------------------
now = 20
observed = stream.observed(now)   # micro-tubes with t + delta <= now, a prefix
tubes = build_tubes(observed, num_classes=3)
print(f"\nobserved up to frame {now}: {len(tubes)} tubes")
for tube in tubes:
    print(f"  class {tube.class_id}, score {tube.tube_score:.3f}, "
          f"frames {min(tube.detected)}..{max(tube.detected)}")
print("early video label:", early_label(tubes))

# --- Complete each tube to the video end --------------------------------------
completed = [
    predict_full_tube(t, now, entry.num_frames, horizon, entry.frame)
    for t in tubes
]
print("\npredicted segments cover", sorted(completed[0].predicted)[0], "..",
      sorted(completed[0].predicted)[-1])

# Compare against the ground truth, segment by segment:
for tube in completed:
    gt = max(entry.tubes, key=lambda g: tube_iou(tube.detected, g.boxes))
    future_gt = {f: b for f, b in gt.boxes.items() if f > now}
    print(f"  tube(class {tube.class_id}): detected IoU "
          f"{tube_iou(tube.detected, {f: b for f, b in gt.boxes.items() if f <= now}):.3f}, "
          f"future IoU {tube_iou(tube.predicted, future_gt):.3f}, "
          f"full IoU {tube_iou(tube.full_segment(), gt.boxes):.3f}")
