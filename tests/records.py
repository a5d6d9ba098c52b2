"""Micro-tubes as one validated record per detection: the test oracle's view.

The library carries a video's micro-tubes only as the columns of a
:class:`~tubekit.linking.MicroTubeStream`. The scalar reference code in the
tests works on records instead; :func:`stream_of` and :func:`records_of`
convert between the two. :func:`reference_check_records` checks a
detection file record by record, and :func:`corrupt` breaks its rules one
named fault kind at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from tubekit.dataio import _DETECTION_KEYS, _INT64_MAX, _as_int, _fail
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


def _as_number_list(value: object, where: str, what: str) -> list[float]:
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int.
    if not isinstance(value, list) or not all(type(v) in (float, int) for v in value):
        _fail(where, f"{what} must be a list of numbers, got {value!r}")
    try:
        return [float(v) for v in value]
    except OverflowError:
        _fail(where, f"{what} holds an integer too large for a float")


def reference_check_records(path: str, expected: tuple | None) -> None:
    """Check a detection file record by record; raise at the first bad one."""
    reference: tuple[int, tuple[int, ...], int] | None = None
    last_t: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(lineno, line.strip()) for lineno, line in enumerate(fh, start=1)]
    for lineno, line in lines:
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            _fail(where, f"invalid JSON ({exc.msg})")
        if not isinstance(obj, dict):
            _fail(where, "record must be a JSON object")
        missing = _DETECTION_KEYS - {"prediction"} - obj.keys()
        if missing:
            _fail(where, f"missing keys {sorted(missing)}")
        unknown = obj.keys() - _DETECTION_KEYS
        if unknown:
            _fail(where, f"unknown keys {sorted(unknown)}")
        video_id = obj["video"]
        if not isinstance(video_id, str):
            _fail(where, f"video id must be a string, got {video_id!r}")
        horizon_raw = obj["horizon"]
        if not (isinstance(horizon_raw, list) and len(horizon_raw) == 3):
            _fail(where, f"horizon must be [delta_p, delta_f, n], got {horizon_raw!r}")
        horizon = tuple(_as_int(v, where, "horizon entry") for v in horizon_raw)
        if expected is not None and horizon != expected:
            _fail(where, f"record horizon {horizon} differs from the requested horizon {expected}")
        t = _as_int(obj["t"], where, "t")
        if t < 1:
            _fail(where, f"t must be a frame index >= 1, got {t}")
        delta = _as_int(obj["delta"], where, "delta")
        if max(t, delta, *horizon) > _INT64_MAX:
            _fail(where, f"t, delta and horizon entries must not exceed {_INT64_MAX}")
        microtube = _as_number_list(obj["microtube"], where, "microtube")
        prediction = obj.get("prediction")
        if prediction is not None:
            prediction = _as_number_list(prediction, where, "prediction")
        scores = tuple(_as_number_list(obj["scores"], where, "scores"))
        delta_p, delta_f, n = horizon
        try:
            if delta_p < 0 or delta_f < 1 or n < 0:
                raise ValueError(f"invalid horizon {horizon}")
            if len(microtube) != 8:
                raise ValueError(f"micro-tube needs 8 coordinates, got {len(microtube)}")
            if not all(map(math.isfinite, microtube)):
                raise ValueError(f"non-finite micro-tube coordinates {microtube}")
            x1, y1, x2, y2, x3, y3, x4, y4 = microtube
            if x1 > x2 or y1 > y2 or x3 > x4 or y3 > y4:
                raise ValueError(f"inverted micro-tube box in {microtube}")
            if prediction is not None:
                if len(prediction) != 4 * (1 + n):
                    raise ValueError(f"prediction needs {4 * (1 + n)} coordinates for n={n}, "
                                     f"got {len(prediction)}")
                # The past slot is checked even when delta_p = 0 leaves it unused.
                if not all(map(math.isfinite, prediction)):
                    raise ValueError(f"non-finite prediction coordinates {prediction}")
                for k in [*range(1, n + 1), *([0] if delta_p > 0 else [])]:
                    BoundingBox(*prediction[4 * k: 4 * k + 4])
            if delta < 1:
                raise ValueError(f"delta must be >= 1, got {delta}")
            if len(scores) < 2:
                raise ValueError("class scores need at least one real class plus background")
            if any(s < 0.0 for s in scores):
                raise ValueError(f"negative class score in {scores}")
            total = sum(scores)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"class scores must sum to 1 within 1e-6, got {total}")
        except ValueError as exc:
            _fail(where, str(exc))
        current = (delta, horizon, len(scores))
        if reference is None:
            reference = current
        elif current != reference:
            _fail(where, f"record layout {current} differs from first record {reference}")
        if video_id in last_t and t < last_t[video_id]:
            _fail(where, f"non-monotone t: {t} after {last_t[video_id]} in video {video_id!r}")
        last_t[video_id] = t


def _prediction(r: dict) -> list:
    """The record's prediction; one is made when it has none."""
    if r.get("prediction") is None:
        h = r["horizon"]
        n = h[2] if type(h) is list and len(h) == 3 and type(h[2]) is int and 0 <= h[2] < 9 else 1
        r["prediction"] = [0.0, 0.0, 10.0, 10.0] * (1 + n)
    return r["prediction"]


def _invert(values: list, k: int, rng) -> None:
    """Swap box k's x or y bounds in a flat coordinate list, so min > max."""
    i = 4 * k + rng.randrange(2)
    values[i], values[i + 2] = values[i + 2] + 1, values[i]


def _set(key: str, choices: list):
    def fault(r, rng):
        r[key] = rng.choice(choices)
    return fault


def _set_entry(key: str, choices: list, prediction: bool = False):
    def fault(r, rng):
        values = _prediction(r) if prediction else r[key]
        if type(values) is list and values:  # a type fault may have replaced it
            values[rng.randrange(len(values))] = rng.choice(choices)
    return fault


def _change_layout(r, rng):
    kind = rng.randrange(3)
    if kind == 0:
        r["delta"] += 1
    elif kind == 1:
        r["scores"] = r["scores"] + [0.0]
    else:
        r["horizon"] = r["horizon"][:2] + [r["horizon"][2] + 1]
        if r.get("prediction") is not None:
            r["prediction"] = r["prediction"] + r["prediction"][-4:]


def _change_horizon(r, rng):
    r["horizon"] = [r["horizon"][0], r["horizon"][1] + 1, r["horizon"][2]]


def _invalid_horizon(r, rng):
    k = rng.randrange(3)
    r["horizon"] = [-1 if i == k and i != 1 else 0 if i == k else h
                    for i, h in enumerate(r["horizon"])]


def _resize(key: str, prediction: bool = False):
    def fault(r, rng):
        values = _prediction(r) if prediction else r[key]
        if rng.random() < 0.5:
            del values[-rng.choice([1, 4]):]
        else:
            values.extend(values[:rng.choice([1, 4])])
    return fault


def _invert_microtube(r, rng):
    _invert(r["microtube"], rng.randrange(2), rng)


def _invert_future(r, rng):
    values = _prediction(r)
    if len(values) >= 8:  # without future boxes there is none to invert
        _invert(values, rng.randrange(1, len(values) // 4), rng)


def _invert_past(r, rng):
    _invert(_prediction(r), 0, rng)


def _negative_score(r, rng):
    scores = r["scores"]
    scores[0], scores[-1] = scores[0] + scores[-1] + 0.25, -0.25


def _scale_scores(r, rng):
    r["scores"] = [s * rng.choice([0.5, 1.01, 1.5]) for s in r["scores"]]


def _earlier_t(r, rng):
    r["t"] = max(1, r["t"] - 40)


def _huge_int(r, rng):
    kind = rng.randrange(3)
    if kind == 0:
        r["t"] = 2**63 + rng.randrange(10)
    elif kind == 1:
        r["delta"] = 2**64
    else:
        r["horizon"] = [r["horizon"][0], r["horizon"][1], 2**70]


def _drop_key(r, rng):
    del r[rng.choice(sorted(_DETECTION_KEYS - {"prediction"}))]


def _add_key(r, rng):
    r[rng.choice(["extra", "Video", "prediction "])] = 1


NAN, INF = float("nan"), float("inf")
HUGE = 10**400  # a JSON integer that no float can hold

# One fault kind per rule of reference_check_records, in the order that
# corrupt() applies them when a record takes several: value faults first,
# then type faults, which replace whole values, then key faults.
FAULTS = {
    "layout": _change_layout,
    "horizon_changed": _change_horizon,
    "horizon_invalid": _invalid_horizon,
    "microtube_inverted": _invert_microtube,
    "prediction_inverted": _invert_future,
    "past_inverted": _invert_past,  # a fault only when delta_p > 0
    "microtube_length": _resize("microtube"),
    "prediction_length": _resize("prediction", prediction=True),
    "microtube_nonfinite": _set_entry("microtube", [NAN, INF, -INF]),
    "prediction_nonfinite": _set_entry("prediction", [NAN, INF, -INF], prediction=True),
    "scores_negative": _negative_score,
    "scores_sum": _scale_scores,
    "scores_short": _set("scores", [[1.0], []]),
    "delta_low": _set("delta", [0, -3, -2**70]),
    "t_low": _set("t", [0, -1, -2**70]),
    "t_order": _earlier_t,
    "int_huge": _huge_int,
    "microtube_huge": _set_entry("microtube", [HUGE, -HUGE]),
    "prediction_huge": _set_entry("prediction", [HUGE], prediction=True),
    "scores_huge": _set_entry("scores", [HUGE]),
    "video_type": _set("video", [7, None, ["v0"], True]),
    "horizon_type": _set_entry("horizon", [True, 1.0, "5", None]),
    "horizon_shape": _set("horizon", [[0, 5], [0, 5, 2, 1], "0,5,2", None, {"n": 2}]),
    "t_type": _set("t", [1.5, True, "3", None, [3]]),
    "delta_type": _set("delta", [1.0, False, "1", None]),
    "microtube_entry_type": _set_entry("microtube", [True, "1", None, [1]]),
    "prediction_entry_type": _set_entry("prediction", [False, "2", None], prediction=True),
    "scores_entry_type": _set_entry("scores", [True, "0.5", None]),
    "microtube_type": _set("microtube", ["x", None, {"a": 1}, 8]),
    "prediction_type": _set("prediction", ["x", {"a": 1}, 0, True]),
    "scores_type": _set("scores", ["0.5", {"a": 1}, 1]),
    "missing_key": _drop_key,
    "unknown_key": _add_key,
}
# Kinds that replace the whole line; corrupt() applies them alone.
LINE_FAULTS = {
    "not_object": lambda rng: json.dumps(rng.choice([[1, 2], "record", None, 7, 2.5])),
    "broken_json": lambda rng: rng.choice(['{"video": "v0"', "{'video': 'v0'}", '{"t": 1} 2',
                                           "nan", "[1, 2,]", '{"t": 01}']),
}


def corrupt(record: dict, kinds, rng) -> str:
    """The JSON line of ``record`` with the named faults, drawn from ``rng``
    (a :class:`random.Random`): one kind of :data:`LINE_FAULTS`, or kinds
    of :data:`FAULTS`, applied in that table's order."""
    kinds = list(kinds)
    if kinds[0] in LINE_FAULTS:
        return LINE_FAULTS[kinds[0]](rng)
    r = json.loads(json.dumps(record))
    for kind in sorted(kinds, key=list(FAULTS).index):
        FAULTS[kind](r, rng)
    return json.dumps(r)
