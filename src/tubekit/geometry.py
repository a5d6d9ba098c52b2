"""Axis-aligned box algebra: IoU, offset codecs, clipping, extrapolation.

Boxes are half-open pixel extents with real-valued corners; the area of a
box is ``(x_max - x_min) * (y_max - y_min)``. Everything in this module is
a pure function over immutable values and is safe to call concurrently.
:func:`box_iou` is the broadcast form of :func:`iou` over ``(..., 4)``
corner arrays, and a :class:`Segment` holds a tube's boxes as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

DEFAULT_VARIANCES = (0.1, 0.2)


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle in pixel coordinates.

    Invariants: ``x_min <= x_max``, ``y_min <= y_max``, all coordinates
    finite. Zero-width or zero-height boxes are valid (their area is 0 and
    their IoU with anything is 0).
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        coords = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"non-finite box coordinates {coords}")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(f"inverted box {coords}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center_x(self) -> float:
        return 0.5 * (self.x_min + self.x_max)

    @property
    def center_y(self) -> float:
        return 0.5 * (self.y_min + self.y_max)

    @classmethod
    def from_center_size(cls, cx: float, cy: float, width: float, height: float) -> "BoundingBox":
        return cls(cx - 0.5 * width, cy - 0.5 * height, cx + 0.5 * width, cy + 0.5 * height)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)

    def translated(self, dx: float, dy: float) -> "BoundingBox":
        return BoundingBox(self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy)


@dataclass(frozen=True)
class FrameSize:
    """Image extent in pixels used for clipping boxes to the visible area."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"frame size must be at least 1x1, got {self.width}x{self.height}")


@dataclass(frozen=True)
class OffsetCode:
    """Center-size regression offsets of a box relative to a prior box.

    ``d_cx``/``d_cy`` are center shifts in prior-size units, ``d_w``/``d_h``
    are log size ratios; both are divided by their variance, following the
    SSD offset convention.
    """

    d_cx: float
    d_cy: float
    d_w: float
    d_h: float
    v_center: float = DEFAULT_VARIANCES[0]
    v_size: float = DEFAULT_VARIANCES[1]

    def __post_init__(self) -> None:
        if self.v_center <= 0 or self.v_size <= 0:
            raise ValueError(f"variances must be positive, got ({self.v_center}, {self.v_size})")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.d_cx, self.d_cy, self.d_w, self.d_h)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Returns 0.0 when either box has zero area.
    """
    if a.area <= 0.0 or b.area <= 0.0:
        return 0.0
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of corresponding rows of two broadcastable ``(..., 4)`` arrays.

    Rows are ``x_min, y_min, x_max, y_max``. Each entry equals :func:`iou`
    of its two rows bit for bit: the arithmetic runs in the same order, and
    pairs where either area is 0 or the boxes do not overlap are 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1:] != (4,) or b.shape[-1:] != (4,):
        raise ValueError(f"box arrays must end in 4 coordinates, got {a.shape} and {b.shape}")
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    # In place where the operands are full-size temporaries.
    ix = np.minimum(a[..., 2], b[..., 2])
    ix -= np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3])
    iy -= np.maximum(a[..., 1], b[..., 1])
    overlapping = (area_a > 0.0) & (area_b > 0.0) & (ix > 0.0)
    overlapping &= iy > 0.0
    inter = ix
    inter *= iy
    union = area_a + area_b
    union -= inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=overlapping)


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of every row of ``a`` (N, 4) with every row of ``b`` (M, 4): (N, M)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[1] != 4 or b.ndim != 2 or b.shape[1] != 4:
        raise ValueError(f"box arrays must be (N, 4) and (M, 4), got {a.shape} and {b.shape}")
    return box_iou(a[:, None, :], b[None, :, :])


class Segment(Mapping[int, BoundingBox]):
    """A read-only frame -> box mapping stored as arrays.

    ``frames`` holds strictly ascending frame indices (int, N) and
    ``boxes`` their corners (float, N x 4). Hot paths read the arrays; a
    lookup builds a :class:`BoundingBox` only when asked. Frames need not
    be contiguous: a stride-2 detected segment holds frames 1, 3, 5, ...
    """

    __slots__ = ("frames", "boxes")
    EMPTY: "Segment"  # the segment without frames, shared

    def __init__(self, frames: Sequence[int] | np.ndarray, boxes: Sequence | np.ndarray) -> None:
        self.frames = np.asarray(frames, dtype=np.int64)
        self.boxes = np.asarray(boxes, dtype=float).reshape(len(self.frames), 4)
        self.frames.flags.writeable = False
        self.boxes.flags.writeable = False

    @classmethod
    def of(cls, boxes: Mapping[int, BoundingBox]) -> "Segment":
        """The segment of a frame -> box mapping; a segment is returned as is."""
        if isinstance(boxes, Segment):
            return boxes
        if not boxes:
            return cls.EMPTY
        frames = sorted(boxes)
        return cls(frames, [boxes[f].as_tuple() for f in frames])

    def between(self, first: int, last: int) -> "Segment":
        """The boxes at frames ``first..last``, as views of these arrays."""
        lo, hi = np.searchsorted(self.frames, (first, last + 1))
        return Segment(self.frames[lo:hi], self.boxes[lo:hi])

    def __getitem__(self, frame: int) -> BoundingBox:
        if isinstance(frame, (int, np.integer)):
            i = int(np.searchsorted(self.frames, frame))
            if i < len(self.frames) and self.frames[i] == frame:
                return BoundingBox(*self.boxes[i].tolist())
        raise KeyError(frame)

    def __iter__(self) -> Iterator[int]:
        return iter(self.frames.tolist())

    def __len__(self) -> int:
        return len(self.frames)

    def __repr__(self) -> str:
        return f"Segment(frames={self.frames.tolist()}, boxes={self.boxes.tolist()})"


Segment.EMPTY = Segment([], [])


def encode_offsets(
    box: BoundingBox,
    prior: BoundingBox,
    variances: tuple[float, float] = DEFAULT_VARIANCES,
) -> OffsetCode:
    """Encode ``box`` as center-size offsets relative to ``prior``.

    d_cx = (cx - pcx) / (pw * v_center)      d_w = log(w / pw) / v_size
    d_cy = (cy - pcy) / (ph * v_center)      d_h = log(h / ph) / v_size

    Both boxes must have positive area.
    """
    v_center, v_size = variances
    if prior.area <= 0.0 or box.area <= 0.0:
        raise ValueError("degenerate box")
    return OffsetCode(
        d_cx=(box.center_x - prior.center_x) / (prior.width * v_center),
        d_cy=(box.center_y - prior.center_y) / (prior.height * v_center),
        d_w=math.log(box.width / prior.width) / v_size,
        d_h=math.log(box.height / prior.height) / v_size,
        v_center=v_center,
        v_size=v_size,
    )


def decode_offsets(code: OffsetCode, prior: BoundingBox) -> BoundingBox:
    """Invert :func:`encode_offsets`; exact up to floating round-off."""
    if prior.area <= 0.0:
        raise ValueError("degenerate box")
    if not all(math.isfinite(v) for v in code.as_tuple()):
        raise ValueError(f"non-finite offset code {code.as_tuple()}")
    cx = code.d_cx * code.v_center * prior.width + prior.center_x
    cy = code.d_cy * code.v_center * prior.height + prior.center_y
    w = prior.width * math.exp(code.d_w * code.v_size)
    h = prior.height * math.exp(code.d_h * code.v_size)
    return BoundingBox.from_center_size(cx, cy, w, h)


def clip_box(box: BoundingBox, frame: FrameSize) -> BoundingBox:
    """Clamp a box to the frame extent [0, width] x [0, height].

    Idempotent. A box entirely outside the frame collapses to zero width
    or height on the nearest edge; it is kept rather than dropped so that
    tube lengths stay invariant under clipping.
    """

    def clamp(v: float, hi: int) -> float:
        return min(max(v, 0.0), float(hi))

    return BoundingBox(
        clamp(box.x_min, frame.width),
        clamp(box.y_min, frame.height),
        clamp(box.x_max, frame.width),
        clamp(box.y_max, frame.height),
    )


def clip_boxes(boxes: np.ndarray, frame: FrameSize) -> np.ndarray:
    """:func:`clip_box` over the rows of a ``(..., 4)`` array, bit for bit."""
    return _clip_in_place(np.array(boxes, dtype=float), frame)


def _clip_in_place(boxes: np.ndarray, frame: FrameSize) -> np.ndarray:
    """Clip a float ``(..., 4)`` array in place and return it.

    Masked copies keep the scalar tie rule: ``max(-0.0, 0.0)`` is -0.0,
    where ``np.maximum`` would return 0.0.
    """
    hi = np.array([frame.width, frame.height, frame.width, frame.height], dtype=float)
    np.copyto(boxes, 0.0, where=boxes < 0.0)
    np.copyto(boxes, hi, where=boxes > hi)
    return boxes


def extrapolate(
    frames: Sequence[int] | np.ndarray,
    boxes: Sequence | np.ndarray,
    target_frames: Sequence[int] | np.ndarray,
    frame: FrameSize,
    window: int = 5,
) -> np.ndarray:
    """Continue a box trajectory at constant velocity.

    The per-coordinate velocity is the mean of consecutive first
    differences (each divided by its frame gap) over the last
    ``min(window, len(frames))`` history entries, summed in time order.
    Each target box is the last history box advanced by velocity times the
    frame gap, then clipped to the frame.

    Args:
        frames: strictly increasing history frames, at least 2.
        boxes: ``(len(frames), 4)`` history boxes.
        target_frames: frames to predict, all strictly after the last
            history frame.
        frame: clipping extent.
        window: number of trailing history entries the velocity is
            estimated from, at least 2 (default 5).

    Returns:
        A ``(len(target_frames), 4)`` array, one row per target frame in
        the order given.
    """
    boxes = np.asarray(boxes, dtype=float)
    targets = np.asarray(target_frames, dtype=np.int64)
    history = np.asarray(frames, dtype=np.int64).tolist()
    if len(history) < 2:
        raise ValueError("insufficient history")
    if window < 2:
        raise ValueError(f"velocity window must be at least 2, got {window}")
    if boxes.shape != (len(history), 4):
        raise ValueError(f"history needs one box per frame, got {boxes.shape} for {len(history)}")
    if any(b <= a for a, b in zip(history, history[1:])):
        raise ValueError(f"history frames must be strictly increasing, got {history}")
    last_frame = history[-1]
    if len(targets) and targets.min() <= last_frame:
        raise ValueError(f"target frames must follow the last history frame {last_frame}")

    recent_frames, recent = history[-window:], boxes[-window:].tolist()
    velocity = [0.0, 0.0, 0.0, 0.0]
    for fa, fb, a, b in zip(recent_frames, recent_frames[1:], recent, recent[1:]):
        gap = fb - fa  # sequential adds from 0.0, in time order
        velocity = [v + (cb - ca) / gap for v, ca, cb in zip(velocity, a, b)]
    velocity = [v / (len(recent) - 1) for v in velocity]

    out = np.multiply.outer(targets - last_frame, velocity)
    out += recent[-1]
    # A shrinking box extrapolated past its collapse point inverts;
    # collapse to the crossing midpoint to keep the box valid. Rounding is
    # monotone, so a valid last box whose sides do not approach each
    # other cannot invert, and the masked pass is skipped.
    x0, y0, x1, y1 = recent[-1]
    vx0, vy0, vx1, vy1 = velocity
    if not (x0 <= x1 and y0 <= y1 and vx0 <= vx1 and vy0 <= vy1):
        lo, hi = out[:, :2], out[:, 2:]
        inverted = lo > hi
        mid = 0.5 * (lo + hi)
        np.copyto(lo, mid, where=inverted)
        np.copyto(hi, mid, where=inverted)
    return _clip_in_place(out, frame)
