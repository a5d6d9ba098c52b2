"""Per-class NMS and online micro-tube linking into action tubes.

A micro-tube is a pair of boxes at frames t and t+delta emitted jointly by
the detector and treated as implicitly linked. Linking runs independently
per class: at every step the surviving micro-tubes are greedily associated
with the open tubes whose tail box lives at the micro-tube's first frame,
scored by class score plus a weighted IoU term. Linking is sequential per
(video, class) session; sessions share nothing mutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

from .geometry import BoundingBox, iou, paired_mean_iou

DEFAULT_NMS_THRESHOLD = 0.45


@dataclass(frozen=True)
class PredictionPayload:
    """Past/future boxes regressed alongside one micro-tube.

    ``past_box`` is the smoothing estimate at t - delta_p (absent when the
    horizon has no past component); ``future_boxes[k-1]`` lives at
    t + k*delta_f.
    """

    future_boxes: tuple[BoundingBox, ...]
    past_box: BoundingBox | None = None


@dataclass(frozen=True)
class MicroTubeDetection:
    """One detector output: a scored box pair plus optional predictions.

    ``class_scores`` has C+1 entries summing to 1, background last.
    """

    t: int
    delta: int
    box_t: BoundingBox
    box_t_plus_delta: BoundingBox
    class_scores: tuple[float, ...]
    predictions: PredictionPayload | None = None

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ValueError(f"delta must be >= 1, got {self.delta}")
        if len(self.class_scores) < 2:
            raise ValueError("class scores need at least one real class plus background")
        if any(s < 0.0 for s in self.class_scores):
            raise ValueError(f"negative class score in {self.class_scores}")
        total = sum(self.class_scores)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"class scores must sum to 1 within 1e-6, got {total}")

    @property
    def pair(self) -> tuple[BoundingBox, BoundingBox]:
        return (self.box_t, self.box_t_plus_delta)


@dataclass(frozen=True)
class LinkParams:
    """Tunables of NMS and the association step."""

    nms_threshold: float = DEFAULT_NMS_THRESHOLD
    link_lambda: float = 1.0
    iou_gate: float = 0.1
    score_threshold: float = 0.01
    patience: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.nms_threshold <= 1.0:
            raise ValueError(f"nms threshold must lie in [0, 1], got {self.nms_threshold}")
        if self.patience not in (1, 2):
            # A tube that missed m steps links at last.t + (m + 1) * delta,
            # and its detected segment is contiguous only for m <= 1.
            raise ValueError(f"patience must be 1 or 2, got {self.patience}: bridging two or "
                             f"more missed steps would leave a gap in the detected segment")


@dataclass
class ActionTube:
    """A class-labeled, scored, frame-indexed box sequence.

    ``detected`` covers observed frames (contiguous at the micro-tube
    stride); ``predicted`` covers strictly later, unobserved frames. The
    member micro-tubes are kept so their prediction payloads can seed the
    future segment.
    """

    class_id: int
    tube_score: float
    detected: dict[int, BoundingBox]
    predicted: dict[int, BoundingBox]
    members: tuple[MicroTubeDetection, ...] = ()

    def __post_init__(self) -> None:
        if not self.detected:
            raise ValueError("tube without detected boxes")
        frames = sorted(self.detected)
        gaps = {b - a for a, b in zip(frames, frames[1:])}
        if len(gaps) > 1:
            raise ValueError(f"detected segment not contiguous, frame gaps {sorted(gaps)}")
        if self.predicted:
            last = frames[-1]
            if min(self.predicted) <= last:
                raise ValueError("predicted frames must all follow the detected segment")

    @property
    def first_frame(self) -> int:
        return min(self.detected)

    @property
    def last_detected_frame(self) -> int:
        return max(self.detected)

    def full_segment(self) -> dict[int, BoundingBox]:
        """Detected and predicted boxes merged into one frame map."""
        merged = dict(self.detected)
        merged.update(self.predicted)
        return merged


def nms(
    microtubes: Sequence[tuple[BoundingBox, BoundingBox]],
    scores: Sequence[float],
    threshold: float = DEFAULT_NMS_THRESHOLD,
) -> list[int]:
    """Greedy non-maximum suppression over micro-tubes.

    Repeatedly keeps the highest-scoring remaining micro-tube and
    suppresses every other whose mean frame-aligned IoU with it exceeds
    ``threshold``. Score ties break on lower index.

    Returns kept indices in descending score order.
    """
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
class ActiveTube:
    """Mutable per-class linking state for one open tube."""

    class_id: int
    members: list[MicroTubeDetection]
    missed: int = 0

    @property
    def tail_box(self) -> BoundingBox:
        return self.members[-1].box_t_plus_delta

    @property
    def next_link_frame(self) -> int:
        last = self.members[-1]
        return last.t + last.delta * (1 + self.missed)


def link_step(
    active: list[ActiveTube],
    detections: Sequence[MicroTubeDetection],
    class_id: int,
    params: LinkParams = LinkParams(),
) -> list[ActiveTube]:
    """Associate one step's micro-tubes with the open tubes of a class.

    Pairs are scored ``class_score + link_lambda * iou(tail, first box)``
    and resolved greedily in descending score (ties on lower tube index,
    then lower detection index); pairs below ``iou_gate`` are never
    linked. Each tube extends by at most one micro-tube. Unmatched
    micro-tubes open new tubes; unmatched tubes are carried with their
    missed-step counter bumped.
    """
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
        for j, det in enumerate(detections):
            overlap = iou(tail, det.box_t)
            if overlap >= params.iou_gate:
                score = det.class_scores[class_id] + params.link_lambda * overlap
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
    for j, det in enumerate(detections):
        if not det_taken[j]:
            out.append(ActiveTube(class_id=class_id, members=[det]))
    return out


def _finalize(tube: ActiveTube) -> ActionTube:
    detected: dict[int, BoundingBox] = {}
    for m in tube.members:
        # Ascending order; at the shared frame the newer micro-tube's first
        # box overwrites the older one's second box.
        detected[m.t] = m.box_t
        detected[m.t + m.delta] = m.box_t_plus_delta
    score = sum(m.class_scores[tube.class_id] for m in tube.members) / len(tube.members)
    return ActionTube(
        class_id=tube.class_id,
        tube_score=score,
        detected=dict(sorted(detected.items())),
        predicted={},
        members=tuple(tube.members),
    )


class OnlineLinker:
    """Causal linker over one video's micro-tube stream.

    :meth:`push` links one frame's micro-tubes; :meth:`snapshot` returns the
    tubes that :func:`build_tubes` would build from the stream pushed so far.
    """

    def __init__(self, num_classes: int, params: LinkParams = LinkParams()) -> None:
        if num_classes < 1:
            raise ValueError(f"need at least one real class, got {num_classes}")
        self.num_classes = num_classes
        self.params = params
        self._delta: int | None = None
        self._t_first = self._t_last = 0
        self._active: list[list[ActiveTube]] = [[] for _ in range(num_classes)]
        self._closed: list[list[ActiveTube]] = [[] for _ in range(num_classes)]

    def push(self, step: Sequence[MicroTubeDetection]) -> None:
        """Link all micro-tubes of one frame; frames come in increasing order.

        Lattice steps skipped since the previous push are first advanced as
        empty steps, so the clock only runs up to the last frame that carried
        detections. Per class and step: drop micro-tubes scoring below
        ``score_threshold``, run NMS, :func:`link_step`, then close tubes
        that missed ``patience`` steps. An empty ``step`` is a no-op.
        """
        if not step:
            return
        t = step[0].t
        if self._delta is None:  # the lattice starts at the first pushed frame
            self._delta, self._t_first, self._t_last = step[0].delta, t, t - step[0].delta
        delta, params = self._delta, self.params
        for det in step:
            if det.delta != delta:
                raise ValueError(f"mixed frame gaps in stream: {det.delta} vs {delta}")
            if len(det.class_scores) != self.num_classes + 1:
                raise ValueError(f"detection carries {len(det.class_scores)} scores, "
                                 f"expected {self.num_classes + 1}")
            if det.t != t:
                raise ValueError("temporal discontinuity: detections from mixed frames in one step")
        if t <= self._t_last:
            raise ValueError(f"unsorted stream: frame {t} after {self._t_last}")
        if (t - self._t_first) % delta != 0:
            raise ValueError(f"temporal discontinuity: step at frame {t} is off the stride {delta}")
        skipped = (t - self._t_last) // delta - 1
        for frame_dets in [()] * skipped + [step]:
            for class_id in range(self.num_classes):
                dets = [d for d in frame_dets if d.class_scores[class_id] >= params.score_threshold]
                if dets:
                    keep = nms([d.pair for d in dets], [d.class_scores[class_id] for d in dets],
                               params.nms_threshold)
                    dets = [dets[i] for i in keep]
                active = link_step(self._active[class_id], dets, class_id, params)
                self._closed[class_id] += [a for a in active if a.missed >= params.patience]
                self._active[class_id] = [a for a in active if a.missed < params.patience]
        self._t_last = t

    def snapshot(self) -> list[ActionTube]:
        """Finalise closed then open tubes of each class, sorted by descending
        tube score (mean member class score), ties by class then creation order."""
        finished = [_finalize(tube) for closed, active in zip(self._closed, self._active)
                    for tube in closed + active]
        order = sorted(range(len(finished)),
                       key=lambda i: (-finished[i].tube_score, finished[i].class_id, i))
        return [finished[i] for i in order]


def build_tubes(
    stream: Iterable[MicroTubeDetection],
    num_classes: int,
    params: LinkParams = LinkParams(),
) -> list[ActionTube]:
    """Turn a time-ordered micro-tube stream into per-class action tubes.

    Per class and per step: drop micro-tubes scoring below
    ``score_threshold``, run NMS, then :func:`link_step`. Tubes that miss
    ``patience`` consecutive steps are closed. Steps with no surviving
    detections still advance the clock, so noisy streams with dropped
    frame pairs stay aligned.

    This is one :class:`OnlineLinker` pass over the stream. The result is
    deterministic for a given stream; tubes are sorted by descending tube
    score (mean member class score), ties by class then creation order.
    """
    linker = OnlineLinker(num_classes, params)
    for _, step in groupby(stream, key=lambda d: d.t):
        linker.push(list(step))
    return linker.snapshot()
