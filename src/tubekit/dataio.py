"""File formats: detection streams, dataset manifests, tubes, reports, config.

Formats (all coordinates are absolute pixels):

* Detections: JSON lines, one record per line, streamable. Keys:
  ``video`` (str), ``t`` (int), ``delta`` (int), ``horizon``
  ``[delta_p, delta_f, n]``, ``microtube`` (8 floats: box at t then box at
  t+delta, each x_min,y_min,x_max,y_max), ``prediction`` (``4*(1+n)``
  floats: past box slot then n future boxes, or null), ``scores``
  (C+1 non-negative floats summing to 1, background last). ``delta``,
  ``horizon`` and the score count must agree across the whole file;
  records must be time-ordered within each video. A file is read into one
  :class:`~tubekit.linking.MicroTubeStream` of columns per video; the
  records are checked column by column, and the first bad one is named.
  The past slot is always read and checked finite, but it is kept (as
  ``past``) only when ``delta_p > 0``; the writer fills it with the box at
  t when a detection carries no past box.

* Manifest: one JSON document with ``classes`` (C names; tube class ids
  are indices into it) and ``videos``, each with ``id``, ``frames``,
  ``width``, ``height`` and ``tubes``; a tube has ``class`` and ``boxes``,
  a list of exactly ``frames`` 4-float rows (row i is frame i+1), read
  straight into a :class:`~tubekit.geometry.Segment`.

* Tubes: one JSON document; per video a list of tubes with ``class``,
  ``score`` and ``detected``/``predicted`` lists of
  ``[frame, x_min, y_min, x_max, y_max]`` rows; frames are integers (an
  integral float such as ``3.0`` counts) in strictly ascending order.
  Member payloads are not serialized; tubes read back have empty
  ``members``.

* Report: CSV with header ``metric,delta,observed_pct,class,value``. The
  delta column holds a threshold, ``avg``, or is empty for threshold-free
  metrics; the class column holds a class id or ``mean``. Rows are ordered
  by metric (accuracy, detection_map, online_map, p_map, c_map), then
  delta ascending with ``avg`` last, then percentage, then class with the
  mean row last. An optional trailing ``tag`` column labels the run.

* Config: one JSON object whose keys mirror the CLI flag names; unknown
  keys are rejected.

Every parse failure raises :class:`DataFormatError` carrying the file path
and, for line-oriented input, the line number.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Mapping, Sequence

import numpy as np

from .geometry import BoundingBox, FrameSize, Segment
from .linking import ActionTube, MicroTubeDetection, MicroTubeStream
from .metrics import AVG_DELTA, EvalReport, GroundTruthTube
from .prediction import PredictionHorizon


class DataFormatError(ValueError):
    """Malformed input data; the message carries location context."""


def _fail(where: str, message: str) -> None:
    raise DataFormatError(f"{where}: {message}")


def _as_number_list(value: object, where: str, what: str) -> list[float]:
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int.
    if not isinstance(value, list) or not all(type(v) in (float, int) for v in value):
        _fail(where, f"{what} must be a list of numbers, got {value!r}")
    try:
        return [float(v) for v in value]
    except OverflowError:
        _fail(where, f"{what} holds an integer too large for a float")


def _as_int(value: object, where: str, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(where, f"{what} must be an integer, got {value!r}")
    return value


_DETECTION_KEYS = frozenset({"video", "t", "delta", "horizon", "microtube", "prediction", "scores"})
_NUMBER_TYPES = {float, int}
_decode = json.JSONDecoder().raw_decode  # json.loads without its whitespace handling
_INT64_MAX = np.iinfo(np.int64).max  # frame indices and horizons are read into int64 columns
_BATCH_LINES = 2048  # records parsed at once; their objects take far more memory than columns


def read_detections(
    path: str, expected_horizon: PredictionHorizon | None = None
) -> dict[str, MicroTubeStream]:
    """Read a detection file into one validated, time-ordered stream per video.

    The records are checked column by column; when any check fails, the
    file is checked again record by record and the first bad record is
    reported as ``path:line``. With ``expected_horizon`` given, the first
    record whose horizon differs from it fails: its payload boxes would be
    placed on the wrong frames.
    """
    expected = None
    if expected_horizon is not None:
        expected = (expected_horizon.delta_p, expected_horizon.delta_f, expected_horizon.n)
    try:
        streams = _read_columns(path, expected)
    except (json.JSONDecodeError, TypeError, ValueError, OverflowError):
        streams = None
    if streams is None:
        _check_detection_records(path, expected)  # raises at the first bad record
        raise AssertionError(f"{path}: records that pass one by one fail as columns")
    return streams


def _decode_line(line: str) -> object:
    obj, end = _decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return obj


def _read_columns(path: str, expected: tuple | None) -> dict[str, MicroTubeStream] | None:
    """The per-video streams of a detection file, or None when a record
    fails a check of :func:`_check_detection_records`. Lines are parsed and
    turned into columns a batch at a time, so the parsed objects of only one
    batch are alive at once."""
    parts = []
    with open(path, "r", encoding="utf-8") as fh:
        for batch in iter(lambda: list(islice(fh, _BATCH_LINES)), []):
            records = [_decode_line(line) for line in map(str.strip, batch) if line]
            if records:
                part = _batch_columns(records, expected)
                if part is None:
                    return None
                parts.append(part)
    if not parts:
        return {}
    if len({part[0] for part in parts}) != 1:
        return None
    (delta, (delta_p, _, n), _), *_ = parts[0]
    videos = [video_id for part in parts for video_id in part[1]]
    t, pairs, scores, payload, slots = (np.concatenate([part[k] for part in parts])
                                        for k in range(2, 7))
    if not len(slots):  # without payload rows the horizon's n sizes nothing
        n, slots = 0, np.zeros((0, 1, 4))
    future = np.zeros((len(t), n, 4))
    future[payload] = slots[:, 1:]
    past = None
    if delta_p > 0:
        past = np.zeros((len(t), 4))
        past[payload] = slots[:, 0]
    rows_by_video: dict[str, list[int]] = {}
    for i, video_id in enumerate(videos):
        rows_by_video.setdefault(video_id, []).append(i)
    streams = {}
    for video_id, rows in rows_by_video.items():
        if (np.diff(t[rows]) < 0).any():
            return None
        streams[video_id] = MicroTubeStream(
            t[rows], delta, pairs[rows], scores[rows], payload[rows], future[rows],
            None if past is None else past[rows])
    return streams


def _batch_columns(records: list, expected: tuple | None) -> tuple | None:
    """``(layout, videos, t, pairs, scores, payload, slots)`` of parsed
    records, ``slots`` holding the prediction rows of the records that
    carry one; None when a record fails a check that needs no other batch."""
    without_prediction = _DETECTION_KEYS - {"prediction"}
    if not all(type(r) is dict and r.keys() in (_DETECTION_KEYS, without_prediction)
               for r in records):
        return None
    videos = [r["video"] for r in records]
    t = [r["t"] for r in records]
    deltas = [r["delta"] for r in records]
    horizons = [r["horizon"] for r in records]
    microtubes = [r["microtube"] for r in records]
    predictions = [r.get("prediction") for r in records]
    scores = [r["scores"] for r in records]
    carried = [p for p in predictions if p is not None]
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int.
    if (set(map(type, videos)) != {str} or set(map(type, t)) != {int}
            or set(map(type, deltas)) != {int}
            or not all(type(h) is list and len(h) == 3 for h in horizons)
            or set(map(type, chain.from_iterable(horizons))) != {int}
            or not all(type(m) is list for m in microtubes + carried + scores)
            or not set(map(type, chain.from_iterable(microtubes + carried + scores)))
            <= _NUMBER_TYPES):
        return None
    layouts = set(zip(deltas, map(tuple, horizons), map(len, scores)))
    if len(layouts) != 1:
        return None
    ((delta, horizon, width),) = layouts
    delta_p, delta_f, n = horizon
    if (delta_p < 0 or delta_f < 1 or n < 0 or delta < 1 or width < 2
            or max(delta, *horizon) > _INT64_MAX
            or (expected is not None and horizon != expected)):
        return None
    t = np.array(t, dtype=np.int64)
    pairs = np.array(microtubes, dtype=float).reshape(len(records), 2, 4)
    slots = np.array(carried, dtype=float).reshape(len(carried), 1 + n, 4)
    scores = np.array(scores, dtype=float)
    # Payload slots must be finite even when unused; cumsum adds the scores
    # in order, as the record check does.
    if ((t < 1).any() or not np.isfinite(slots).all() or not np.isfinite(pairs).all()
            or (scores < 0.0).any()
            or (np.abs(np.cumsum(scores, axis=1)[:, -1] - 1.0) > 1e-6).any()):
        return None
    for boxes in (pairs, slots if delta_p > 0 else slots[:, 1:]):
        if (boxes[..., 0] > boxes[..., 2]).any() or (boxes[..., 1] > boxes[..., 3]).any():
            return None
    payload = np.array([p is not None for p in predictions], dtype=bool)
    return (delta, horizon, width), videos, t, pairs, scores, payload, slots


def _check_detection_records(path: str, expected: tuple | None) -> None:
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
            MicroTubeDetection(t, delta, BoundingBox(x1, y1, x2, y2), BoundingBox(x3, y3, x4, y4),
                               scores)
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


def write_detections(
    streams: Mapping[str, Sequence[MicroTubeDetection]],
    horizon: PredictionHorizon,
    path: str,
) -> None:
    """Write detection streams; a payload's past slot falls back to the box at t.

    Reading the file back with :func:`read_detections` gives the same streams
    when payloads carry a past box exactly when ``horizon.delta_p > 0``, as
    synth's do.
    """
    layout = [horizon.delta_p, horizon.delta_f, horizon.n]
    with open(path, "w", encoding="utf-8") as fh:
        for video_id, dets in streams.items():
            for d in dets:
                prediction = None
                if d.predictions is not None:
                    future = d.predictions.future_boxes
                    if len(future) != horizon.n:
                        raise ValueError(f"video {video_id!r} t={d.t}: payload carries "
                                         f"{len(future)} future boxes, horizon says {horizon.n}")
                    past = d.predictions.past_box or d.box_t
                    prediction = [c for box in (past, *future) for c in box.as_tuple()]
                obj = {
                    "video": video_id,
                    "t": d.t,
                    "delta": d.delta,
                    "horizon": layout,
                    "microtube": [*d.box_t.as_tuple(), *d.box_t_plus_delta.as_tuple()],
                    "prediction": prediction,
                    "scores": list(d.class_scores),
                }
                fh.write(json.dumps(obj) + "\n")


def detections_to_streams(
    streams: Mapping[str, MicroTubeStream],
    manifest: DatasetManifest,
    path: str,
) -> None:
    """Check the detection streams read from ``path`` against their manifest.

    Every video must be in the manifest, and every micro-tube must end
    within its video's frames.
    """
    unknown = streams.keys() - manifest.videos.keys()
    if unknown:
        _fail(path, f"detections for videos missing from the manifest: {sorted(unknown)}")
    for video_id, stream in streams.items():
        last = int(stream.t[-1])  # streams are time-ordered with one delta per file
        num_frames = manifest.videos[video_id].num_frames
        if last + stream.delta > num_frames:
            _fail(path, f"video {video_id!r} has a detection at t={last} "
                        f"with delta={stream.delta} past its {num_frames} frames")


@dataclass(frozen=True)
class VideoEntry:
    """Per-video metadata plus its ground-truth tubes."""

    video_id: str
    num_frames: int
    frame: FrameSize
    tubes: tuple[GroundTruthTube, ...]


@dataclass(frozen=True)
class DatasetManifest:
    """Class names and per-video ground truth for one dataset split."""

    class_names: tuple[str, ...]
    videos: dict[str, VideoEntry]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def video_meta(self) -> dict[str, tuple[int, FrameSize]]:
        return {v.video_id: (v.num_frames, v.frame) for v in self.videos.values()}

    def all_tubes(self) -> list[GroundTruthTube]:
        return [t for v in self.videos.values() for t in v.tubes]


def _first_bad_box(boxes: np.ndarray) -> int | None:
    """Index of the first ``(N, 4)`` row that :class:`BoundingBox` rejects."""
    bad = ~np.isfinite(boxes).all(axis=1) | (boxes[:, 0] > boxes[:, 2]) | (boxes[:, 1] > boxes[:, 3])
    return int(np.argmax(bad)) if bad.any() else None


def _ground_truth_boxes(rows: list) -> Segment | None:
    """Frames 1..len(rows) of four-number box rows, or None when a row is
    not a valid box."""
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int.
    if not (all(type(row) is list and len(row) == 4 for row in rows)
            and set(map(type, chain.from_iterable(rows))) <= _NUMBER_TYPES):
        return None
    try:
        boxes = np.array(rows, dtype=float).reshape(len(rows), 4)
    except OverflowError:
        return None
    if _first_bad_box(boxes) is not None:
        return None
    return Segment(np.arange(1, len(rows) + 1), boxes)


def read_manifest(path: str) -> DatasetManifest:
    """Read and schema-validate a dataset manifest."""
    where = path
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            _fail(where, f"invalid JSON ({exc.msg} at line {exc.lineno})")
    if not isinstance(obj, dict) or obj.keys() != {"classes", "videos"}:
        _fail(where, "manifest must be an object with keys 'classes' and 'videos'")
    classes = obj["classes"]
    if (not isinstance(classes, list) or not classes
            or not all(isinstance(c, str) for c in classes)):
        _fail(where, "'classes' must be a non-empty list of names")
    videos: dict[str, VideoEntry] = {}
    if not isinstance(obj["videos"], list):
        _fail(where, "'videos' must be a list")
    for entry in obj["videos"]:
        if not isinstance(entry, dict):
            _fail(where, f"video entry must be an object, got {entry!r}")
        missing = {"id", "frames", "width", "height", "tubes"} - entry.keys()
        if missing:
            _fail(where, f"video entry missing keys {sorted(missing)}")
        video_id = entry["id"]
        if not isinstance(video_id, str):
            _fail(where, f"video id must be a string, got {video_id!r}")
        vwhere = f"{where} (video {video_id!r})"
        if video_id in videos:
            _fail(vwhere, "duplicate video id")
        num_frames = _as_int(entry["frames"], vwhere, "frames")
        if num_frames < 1:
            _fail(vwhere, f"frame count must be >= 1, got {num_frames}")
        try:
            frame = FrameSize(_as_int(entry["width"], vwhere, "width"),
                              _as_int(entry["height"], vwhere, "height"))
        except ValueError as exc:
            _fail(vwhere, str(exc))
        tubes = []
        if not isinstance(entry["tubes"], list):
            _fail(vwhere, "'tubes' must be a list")
        for k, tube in enumerate(entry["tubes"]):
            twhere = f"{vwhere} tube {k}"
            if not isinstance(tube, dict) or tube.keys() != {"class", "boxes"}:
                _fail(twhere, "tube must be an object with keys 'class' and 'boxes'")
            class_id = _as_int(tube["class"], twhere, "class")
            if not 0 <= class_id < len(classes):
                _fail(twhere, f"unknown class id {class_id}, have {len(classes)} classes")
            rows = tube["boxes"]
            if not isinstance(rows, list) or len(rows) != num_frames:
                got = len(rows) if isinstance(rows, list) else type(rows).__name__
                _fail(twhere, f"tube must cover all {num_frames} frames, got {got} rows")
            boxes = _ground_truth_boxes(rows)
            if boxes is None:  # name the first bad frame
                for f, row in enumerate(rows, start=1):
                    coords = _as_number_list(row, twhere, f"frame {f} box")
                    if len(coords) != 4:
                        _fail(twhere, f"frame {f} box needs 4 coordinates, got {len(coords)}")
                    try:
                        BoundingBox(*coords)
                    except ValueError as exc:
                        _fail(twhere, f"frame {f}: {exc}")
            tubes.append(GroundTruthTube(video_id=video_id, class_id=class_id, boxes=boxes))
        videos[video_id] = VideoEntry(video_id, num_frames, frame, tuple(tubes))
    return DatasetManifest(class_names=tuple(classes), videos=videos)


def write_manifest(manifest: DatasetManifest, path: str) -> None:
    obj = {
        "classes": list(manifest.class_names),
        "videos": [
            {
                "id": v.video_id,
                "frames": v.num_frames,
                "width": v.frame.width,
                "height": v.frame.height,
                "tubes": [
                    {
                        "class": t.class_id,
                        "boxes": [list(t.boxes[f].as_tuple()) for f in range(1, v.num_frames + 1)],
                    }
                    for t in v.tubes
                ],
            }
            for v in manifest.videos.values()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _rows_text(segment: Segment, indent: int) -> str:
    """``[frame, x_min, y_min, x_max, y_max]`` rows as ``json.dump(indent=1)``
    writes them at ``indent``; coordinates are finite, so ``repr`` is their
    JSON form."""
    if not len(segment):
        return "[]"
    item = "\n" + " " * (indent + 2)
    row = " " * (indent + 1) + "[" + item + ("{!r}," + item) * 4 + "{!r}\n" + " " * (indent + 1) + "]"
    values = np.column_stack((segment.frames, segment.boxes)).ravel().tolist()
    return "[\n" + ",\n".join([row] * len(segment)).format(*values) + "\n" + " " * indent + "]"


def _json_list(items: list[str], indent: int) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def write_tubes(tubes_by_video: Mapping[str, Sequence[ActionTube]], path: str) -> None:
    """Write a tubes document: the bytes ``json.dump(..., indent=1)`` would
    write, formatted straight from the segment arrays."""
    videos = []
    for video_id, tubes in tubes_by_video.items():
        entries = [
            f'    {{\n     "class": {json.dumps(t.class_id)},\n     "score": {json.dumps(t.tube_score)},'
            f'\n     "detected": {_rows_text(t.detected, 5)},'
            f'\n     "predicted": {_rows_text(t.predicted, 5)}\n    }}'
            for t in tubes
        ]
        videos.append(f'  {{\n   "id": {json.dumps(video_id)},\n   "tubes": {_json_list(entries, 3)}\n  }}')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "videos": {_json_list(videos, 1)}\n}}\n')


def _segment_rows(rows: object, where: str, what: str) -> Segment:
    """A segment from ``[frame, x_min, y_min, x_max, y_max]`` rows; frames
    must be integers in strictly ascending order."""
    if not isinstance(rows, list):
        _fail(where, f"{what} rows must be a list, got {rows!r}")
    try:
        values = np.array(rows, dtype=float).reshape(len(rows), 5)
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(where, f"{what} rows must be [frame, x_min, y_min, x_max, y_max] numbers ({exc})")
    frames = values[:, 0]
    fractional = np.flatnonzero(frames != np.floor(frames))
    if len(fractional):
        _fail(where, f"{what} frame {frames[fractional[0]]:g} is not an integer")
    back = np.flatnonzero(frames[1:] <= frames[:-1])
    if len(back):
        k = back[0]
        _fail(where, f"{what} frames must ascend without repeats, got {frames[k + 1]:g} "
                     f"after {frames[k]:g}")
    bad = _first_bad_box(values[:, 1:])
    if bad is not None:
        try:
            BoundingBox(*values[bad, 1:].tolist())
        except ValueError as exc:
            _fail(where, f"{what} frame {frames[bad]:g}: {exc}")
    return Segment(frames.astype(np.int64), values[:, 1:])


def read_tubes(path: str) -> dict[str, list[ActionTube]]:
    """Read a tubes document; member micro-tubes are not serialized."""
    where = path
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            _fail(where, f"invalid JSON ({exc.msg} at line {exc.lineno})")
    if not isinstance(obj, dict) or obj.keys() != {"videos"}:
        _fail(where, "tubes document must be an object with key 'videos'")
    out: dict[str, list[ActionTube]] = {}
    for entry in obj["videos"]:
        video_id = entry.get("id")
        if not isinstance(video_id, str):
            _fail(where, f"video id must be a string, got {video_id!r}")
        if video_id in out:
            _fail(where, f"duplicate video id {video_id!r}")
        tubes = []
        for k, raw in enumerate(entry.get("tubes", [])):
            twhere = f"{where} (video {video_id!r} tube {k})"
            try:
                tubes.append(ActionTube(
                    class_id=_as_int(raw["class"], twhere, "class"),
                    tube_score=float(raw["score"]),
                    detected=_segment_rows(raw["detected"], twhere, "detected"),
                    predicted=_segment_rows(raw["predicted"], twhere, "predicted"),
                ))
            except DataFormatError:
                raise
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                _fail(twhere, str(exc))
        out[video_id] = tubes
    return out


REPORT_HEADER = ("metric", "delta", "observed_pct", "class", "value")


def _format_delta(delta: float | str | None) -> str:
    if delta is None:
        return ""
    if delta == AVG_DELTA:
        return AVG_DELTA
    return format(delta, "g")


def report_rows(report: EvalReport, tag: str | None = None) -> list[list[str]]:
    """Flatten a report into CSV rows (per-class rows, then the mean row)."""
    rows = []
    for cell in report.sorted_cells():
        base = [cell.metric, _format_delta(cell.delta), str(cell.observed_pct)]
        for class_id, value in cell.per_class:
            rows.append(base + [str(class_id), format(value, ".14g")])
        rows.append(base + ["mean", format(cell.value, ".14g")])
    if tag is not None:
        rows = [row + [tag] for row in rows]
    return rows


def write_report(report: EvalReport, path: str, tag: str | None = None) -> None:
    header = list(REPORT_HEADER) + (["tag"] if tag is not None else [])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(report_rows(report, tag))


def read_report(path: str) -> list[tuple[str, str, int, str, float]]:
    """Read back a report CSV as (metric, delta, observed_pct, class, value)."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:5] != list(REPORT_HEADER):
            _fail(path, f"unexpected report header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) < 5:
                _fail(f"{path}:{lineno}", f"expected at least 5 columns, got {len(row)}")
            try:
                rows.append((row[0], row[1], int(row[2]), row[3], float(row[4])))
            except ValueError as exc:
                _fail(f"{path}:{lineno}", str(exc))
    return rows


CONFIG_KEYS = {
    "detections": str,
    "manifest": str,
    "out": str,
    "out_dir": str,
    "seed": int,
    "nms": float,
    "link_lambda": float,
    "iou_gate": float,
    "score_threshold": float,
    "patience": int,
    "delta": int,
    "horizon": list,
    "delta_list": list,
    "pct_list": list,
    "observed_pct": int,
    "aggregate": str,
    "videos": int,
    "actors": int,
    "classes": int,
    "frames": int,
    "width": int,
    "height": int,
    "center_sigma": float,
    "size_sigma": float,
    "score_temperature": float,
    "fp_rate": float,
    "miss_rate": float,
    "prediction_sigma": float,
    "trials": int,
    "epsilon": float,
    "tolerance": float,
    "tag": str,
}


def read_config(path: str) -> dict:
    """Read a run-configuration document; unknown keys are rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            _fail(path, f"invalid JSON ({exc.msg} at line {exc.lineno})")
    if not isinstance(obj, dict):
        _fail(path, "config must be a JSON object")
    for key, value in obj.items():
        if key not in CONFIG_KEYS:
            _fail(path, f"unknown config key {key!r}")
        expected = CONFIG_KEYS[key]
        if expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                _fail(path, f"config key {key!r} must be a number, got {value!r}")
        elif not isinstance(value, expected) or isinstance(value, bool):
            _fail(path, f"config key {key!r} must be {expected.__name__}, got {value!r}")
    return obj
