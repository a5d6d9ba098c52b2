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

from dataclasses import dataclass, replace

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
    if horizon.n == 0 or not members.payload.any():
        return Segment.EMPTY
    if members.future.shape[1] != horizon.n:
        raise ValueError(f"payload carries {members.future.shape[1]} future boxes, "
                         f"horizon says {horizon.n}")
    reach = horizon.n * horizon.delta_f
    range_end = int(members.t[-1]) + reach
    if range_end <= now:
        return Segment.EMPTY

    # Only members after now - reach predict frames after now.
    recent = members[int(np.searchsorted(members.t, now - reach, side="right")):]
    frames = recent.t[:, None] + horizon.delta_f * np.arange(1, horizon.n + 1)
    covered = recent.payload[:, None] & (frames > now)
    # Candidates in member order, then grouped by frame with that order kept.
    frames, boxes = frames[covered], recent.future[covered]
    if not len(frames):
        return Segment.EMPTY
    order = np.argsort(frames, kind="stable")
    frames, boxes = frames[order], boxes[order]
    last = np.append(frames[1:] != frames[:-1], True)
    if aggregate == "latest":
        return Segment(frames[last], boxes[last])
    first = np.append(True, frames[1:] != frames[:-1])
    group = np.cumsum(first) - 1
    rank = np.arange(len(frames)) - np.flatnonzero(first)[group]
    sums = np.zeros((group[-1] + 1, 4))
    for r in range(rank.max() + 1):  # sequential adds, one candidate per frame at a time
        at = rank == r
        sums[group[at]] += boxes[at]
    return Segment(frames[last], sums / np.bincount(group)[:, None])


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
        return replace(tube, predicted={})

    payload = assemble_future(tube, now, horizon, aggregate)
    if len(payload) and payload.frames[-1] > video_length:
        payload = payload.between(now + 1, video_length)
    assembled = clip_boxes(payload.boxes, frame)
    at = payload.frames
    known_frames = np.concatenate((tube.detected.frames, at))
    known_boxes = np.concatenate((tube.detected.boxes, assembled))

    boxes = np.empty((video_length - now, 4))
    boxes[at - (now + 1)] = assembled
    # Each run of frames before a payload frame (or the video end) is
    # extrapolated from the last known boxes before the run; known[:k] are
    # the detected boxes plus the payload boxes preceding that frame.
    start = now + 1
    for k, stop in enumerate(at.tolist() + [video_length + 1], start=len(tube.detected)):
        if stop > start:
            history = slice(max(0, k - VELOCITY_WINDOW), k)
            boxes[start - now - 1: stop - now - 1] = extrapolate(
                known_frames[history], known_boxes[history], np.arange(start, stop), frame,
                window=VELOCITY_WINDOW)
        start = stop + 1

    return replace(tube, predicted=Segment(np.arange(now + 1, video_length + 1), boxes))


def early_label(tubes: list[ActionTube]) -> int:
    """Class of the highest-scoring tube; score ties pick the lowest class."""
    if not tubes:
        raise ValueError("no tubes")
    best = min(tubes, key=lambda t: (-t.tube_score, t.class_id))
    return best.class_id
