"""Future-tube assembly: from payload boxes to a full predicted segment.

A tube observed up to frame t carries, through its member micro-tubes,
regressed future boxes reaching at most ``t - delta + n * delta_f``. This
module gathers those payload boxes from the members' columns into the
future segment (latest member wins on conflicts), then fills every
remaining frame up to the video end by constant-velocity extrapolation of
the already-built sequence. The completed segment is built as arrays;
each run of frames without payload is extrapolated in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import FrameSize, Segment, clip_boxes, extrapolate
from .linking import ActionTube

VELOCITY_WINDOW = 5


@dataclass(frozen=True)
class PredictionHorizon:
    """How far a detection's payload reaches: past offset, future step, steps."""

    delta_p: int = 0
    delta_f: int = 1
    n: int = 0

    def __post_init__(self) -> None:
        if self.delta_p < 0:
            raise ValueError(f"past offset must be >= 0, got {self.delta_p}")
        if self.delta_f < 1:
            raise ValueError(f"future step must be >= 1, got {self.delta_f}")
        if self.n < 0:
            raise ValueError(f"future step count must be >= 0, got {self.n}")


def assemble_future(
    tube: ActionTube,
    now: int,
    horizon: PredictionHorizon,
    aggregate: str = "latest",
) -> Segment:
    """Collect payload future boxes of a tube's members into a segment.

    Covers frames in ``(now, last_member_t + n * delta_f]``. When several
    members predict the same frame the most recent member wins
    (``aggregate="latest"``, it is conditioned on the newest input);
    ``aggregate="mean"`` averages the candidates coordinate-wise instead,
    summing them in member order. Frames no payload covers are left absent
    for extrapolation.
    """
    if aggregate not in ("latest", "mean"):
        raise ValueError(f"unknown aggregate mode {aggregate!r}")
    members = tube.members
    if not len(members):
        raise ValueError("tube has no member micro-tubes")
    n, step = horizon.n, horizon.delta_f
    if n == 0:
        return Segment.EMPTY
    if members.future.shape[1] != n and members.payload.any():
        raise ValueError(f"payload carries {members.future.shape[1]} future boxes, "
                         f"horizon says {n}")
    t = members.t
    reach = n * step
    if int(t[-1]) + reach <= now:
        return Segment.EMPTY

    # Only members after now - reach predict frames after now; their
    # candidates are gathered as flat indices into their future boxes,
    # in member order per frame.
    first = int(t.searchsorted(now - reach, side="right"))
    candidates: dict[int, list[int]] = {}
    for i, (t_i, carried) in enumerate(zip(t[first:].tolist(),
                                           members.payload[first:].tolist())):
        if carried:
            for k in range(max(0, (now - t_i) // step), n):  # frames t_i + (k+1)*step > now
                candidates.setdefault(t_i + (k + 1) * step, []).append(i * n + k)
    if not candidates:
        return Segment.EMPTY
    frames = sorted(candidates)
    future = members.future[first:].reshape(-1, 4)
    if aggregate == "latest":
        return Segment(frames, future.take([candidates[f][-1] for f in frames], axis=0))
    rows = future.tolist()
    means = []
    for f in frames:
        total = [0.0, 0.0, 0.0, 0.0]
        for i in candidates[f]:  # sequential adds, in member order
            total = [a + b for a, b in zip(total, rows[i])]
        means.append([a / len(candidates[f]) for a in total])
    return Segment(frames, means)


def predict_full_tube(
    tube: ActionTube,
    now: int,
    video_length: int,
    horizon: PredictionHorizon,
    frame: FrameSize,
    aggregate: str = "latest",
) -> ActionTube:
    """Complete a tube with a predicted segment covering ``(now, T]``.

    Payload boxes are placed first (clipped to the frame); every frame they
    leave open, including the whole tail past the payload reach, is filled
    by extrapolating the last ``VELOCITY_WINDOW`` boxes of the combined
    detected-plus-assembled sequence. At ``now >= T`` the predicted
    segment is empty and the detected segment is untouched.
    """
    if not tube.detected:
        raise ValueError("empty tube")
    if now < tube.last_detected_frame:
        raise ValueError(
            f"observation frontier {now} lies inside the detected segment "
            f"(ends at {tube.last_detected_frame})"
        )
    if now >= video_length:
        return ActionTube(tube.class_id, tube.tube_score, tube.detected, Segment.EMPTY,
                          tube.members)

    detected = tube.detected
    targets = np.arange(now + 1, video_length + 1)
    payload = assemble_future(tube, now, horizon, aggregate)
    if len(payload) and payload.frames[-1] > video_length:
        payload = payload.between(now + 1, video_length)
    if not len(payload):  # one run: the whole tail
        boxes = extrapolate(detected.frames[-VELOCITY_WINDOW:], detected.boxes[-VELOCITY_WINDOW:],
                            targets, frame, window=VELOCITY_WINDOW)
    else:
        assembled = clip_boxes(payload.boxes, frame)
        known_frames = np.concatenate((detected.frames, payload.frames))
        known_boxes = np.concatenate((detected.boxes, assembled))
        at = payload.frames - (now + 1)
        boxes = np.empty((len(targets), 4))
        boxes[at] = assembled
        # Each run of frames before a payload frame (or the video end) is
        # extrapolated from the last known boxes before the run; known[:k]
        # are the detected boxes plus the payload boxes preceding that frame.
        lo = 0
        for k, hi in enumerate(at.tolist() + [len(targets)], start=len(detected)):
            if hi > lo:
                history = slice(max(0, k - VELOCITY_WINDOW), k)
                boxes[lo:hi] = extrapolate(known_frames[history], known_boxes[history],
                                           targets[lo:hi], frame, window=VELOCITY_WINDOW)
            lo = hi + 1
    return ActionTube(tube.class_id, tube.tube_score, detected, Segment(targets, boxes),
                      tube.members)


def early_label(tubes: list[ActionTube]) -> int:
    """Class of the highest-scoring tube; score ties pick the lowest class."""
    if not tubes:
        raise ValueError("no tubes")
    best = min(tubes, key=lambda t: (-t.tube_score, t.class_id))
    return best.class_id
