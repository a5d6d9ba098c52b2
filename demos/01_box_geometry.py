#!/usr/bin/env python3
"""Box algebra walkthrough: IoU, offset codecs, clipping, extrapolation.

Run with: python3 demos/01_box_geometry.py
"""

from tubekit import (
    BoundingBox,
    FrameSize,
    clip_box,
    decode_offsets,
    encode_offsets,
    extrapolate,
    iou,
    mean_iou_microtube,
)

frame = FrameSize(320, 240)

# --- IoU -----------------------------------------------------------------
a = BoundingBox(0, 0, 10, 10)
b = BoundingBox(5, 0, 15, 10)
print("IoU of two half-overlapping 10x10 boxes:", iou(a, b))   # 1/3
print("IoU of a box with itself:", iou(a, a))                  # 1.0
print("IoU with a disjoint box:", iou(a, BoundingBox(100, 100, 120, 120)))

# Matching overlaps a single prior against a micro-tube (a box per frame):
print("mean micro-tube IoU:", mean_iou_microtube(a, [a, b]))   # (1 + 1/3) / 2

# --- Offset encoding -------------------------------------------------------
# Regression targets are center-size offsets relative to a prior box, the
# usual SSD convention with variances (0.1, 0.2).
prior = BoundingBox(0, 0, 10, 10)
box = BoundingBox(0, 0, 20, 20)
code = encode_offsets(box, prior)
print("\noffsets of a doubled box:", [round(v, 4) for v in code.as_tuple()])
print("decode inverts encode:", decode_offsets(code, prior).as_tuple())

# --- Clipping ---------------------------------------------------------------
wild = BoundingBox(300, -20, 400, 100)
print("\nclipped to 320x240:", clip_box(wild, frame).as_tuple())
# A box fully outside collapses to a zero-area sliver on the edge but is
# kept, so tube lengths never change under clipping:
gone = clip_box(BoundingBox(400, 50, 450, 90), frame)
print("fully outside collapses to zero area:", gone.as_tuple(), "area", gone.area)

# --- Constant-velocity extrapolation ----------------------------------------
# Velocity is the mean first difference over the last 5 history entries;
# each target box is the last box advanced and then clipped. History and
# result are arrays: one x_min, y_min, x_max, y_max row per frame.
frames = [1, 2, 3, 4, 5]
history = [(10 + 2 * t, 40, 60 + 2 * t, 120) for t in frames]
futures = extrapolate(frames, history, [6, 8, 10], frame)
print("\nwalking 2 px/frame, positions at t = 6, 8, 10:")
for t, row in zip([6, 8, 10], futures.tolist()):
    print(f"  t={t}: x_min = {row[0]}")
