"""Micro-tubes as one validated record per detection: the test oracle's view.

The library carries a video's micro-tubes only as the columns of a
:class:`~tubekit.linking.MicroTubeStream`. The scalar reference code in the
tests works on records instead; :func:`stream_of` and :func:`records_of`
convert between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from tubekit.geometry import BoundingBox
from tubekit.linking import MicroTubeStream


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


def stream_of(records: Iterable[MicroTubeDetection]) -> MicroTubeStream:
    """The stream of detection records, in their order.

    Records must share one ``delta``, one score count and one payload
    layout (future box count, past box or none).
    """
    dets = list(records)
    if not dets:
        return MicroTubeStream.EMPTY
    delta, width = dets[0].delta, len(dets[0].class_scores)
    payloads = [d.predictions for d in dets]
    carried = [p for p in payloads if p is not None]
    n = len(carried[0].future_boxes) if carried else 0
    with_past = bool(carried) and carried[0].past_box is not None
    for d in dets:
        if d.delta != delta:
            raise ValueError(f"mixed frame gaps in stream: {d.delta} vs {delta}")
        if len(d.class_scores) != width:
            raise ValueError(f"detection carries {len(d.class_scores)} scores, expected {width}")
    for p in carried:
        if len(p.future_boxes) != n or (p.past_box is not None) != with_past:
            raise ValueError("payloads of one stream must carry the same boxes")
    blank = (0.0,) * 4
    return MicroTubeStream(
        t=[d.t for d in dets],
        delta=delta,
        pairs=[(d.box_t.as_tuple(), d.box_t_plus_delta.as_tuple()) for d in dets],
        scores=[d.class_scores for d in dets],
        payload=[p is not None for p in payloads],
        future=np.array([[b.as_tuple() for b in p.future_boxes] if p else [blank] * n
                         for p in payloads]).reshape(len(dets), n, 4),
        past=[p.past_box.as_tuple() if p else blank for p in payloads] if with_past else None,
    )


def records_of(stream: MicroTubeStream) -> list[MicroTubeDetection]:
    """One record per row of a stream, in row order."""
    out = []
    for i in range(len(stream)):
        predictions = None
        if stream.payload[i]:
            predictions = PredictionPayload(
                future_boxes=tuple(BoundingBox(*b) for b in stream.future[i].tolist()),
                past_box=None if stream.past is None else BoundingBox(*stream.past[i].tolist()),
            )
        first, second = stream.pairs[i].tolist()
        out.append(MicroTubeDetection(int(stream.t[i]), stream.delta, BoundingBox(*first),
                                      BoundingBox(*second), tuple(stream.scores[i].tolist()),
                                      predictions))
    return out


def records_by_video(streams) -> dict[str, list[MicroTubeDetection]]:
    """:func:`records_of` of every stream in a video -> stream mapping."""
    return {video_id: records_of(stream) for video_id, stream in streams.items()}


def tube_records(tubes) -> list[list[MicroTubeDetection]]:
    """The member records of each tube, to compare tubes with their members."""
    return [records_of(tube.members) for tube in tubes]


def streams_of(by_video) -> dict[str, MicroTubeStream]:
    """:func:`stream_of` of every record list in a video -> records mapping."""
    return {video_id: stream_of(records) for video_id, records in by_video.items()}
