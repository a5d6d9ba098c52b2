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
  :class:`~tubekit.linking.MicroTubeStream` of columns per video. Each
  rule is stated once, as a check over a batch's columns; a failing batch
  is narrowed to its shortest failing prefix, whose last record is the
  first bad one and is named.
  The past slot is always read and checked finite, but it is kept (as
  ``past``) only when ``delta_p > 0``. The writer formats the records from
  the same columns and fills the past slot with the box at t when a stream
  has no ``past`` column.

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
  keys are rejected. ``horizon`` is three integers, ``pct_list`` a list of
  integers and ``delta_list`` a list of numbers, as the flags accept.

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
from .linking import ActionTube, MicroTubeStream
from .metrics import AVG_DELTA, EvalReport, GroundTruthTube
from .prediction import PredictionHorizon


class DataFormatError(ValueError):
    """Malformed input data; the message carries location context."""


def _fail(where: str, message: str) -> None:
    raise DataFormatError(f"{where}: {message}")


def _as_int(value: object, where: str, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(where, f"{what} must be an integer, got {value!r}")
    return value


class _Fault(Exception):
    """A check failed. The message is right for the last item checked when
    every item before it is good."""


def _narrowed(check, items: list):
    """``check(items)``; when that raises :class:`_Fault`, raise instead the
    fault of the shortest failing prefix, with the prefix length as its
    ``count``: the prefix's last item is the first bad one. A check must
    judge each item by the items before it only, so that a prefix fails
    exactly when it holds a bad item."""
    try:
        return check(items)
    except _Fault as fault:
        first = fault
    good, bad = 0, len(items)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            check(items[:mid])
            good = mid
        except _Fault as fault:
            bad, first = mid, fault
    first.count = bad
    raise first


def _number_column(lists: list, what: str, last: object) -> np.ndarray:
    """The numbers of JSON number lists, in one flat float array; ``last``
    is the last list, named when a check fails."""
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int.
    if not (all(type(v) is list for v in lists)
            and set(map(type, chain.from_iterable(lists))) <= _NUMBER_TYPES):
        raise _Fault(f"{what} must be a list of numbers, got {last!r}")
    try:
        return np.fromiter(chain.from_iterable(lists), float)
    except OverflowError:
        raise _Fault(f"{what} holds an integer too large for a float") from None


def _first_bad_box(boxes: np.ndarray) -> int | None:
    """Index of the first ``(N, 4)`` row that :class:`BoundingBox` rejects."""
    bad = ~np.isfinite(boxes).all(axis=1) | (boxes[:, 0] > boxes[:, 2]) | (boxes[:, 1] > boxes[:, 3])
    return int(np.argmax(bad)) if bad.any() else None


def _box_error(boxes) -> str | None:
    """Why :class:`BoundingBox` rejects the first bad one of ``boxes``."""
    for box in boxes:
        try:
            BoundingBox(*box)
        except ValueError as exc:
            return str(exc)
    return None


_DETECTION_KEYS = frozenset({"video", "t", "delta", "horizon", "microtube", "prediction", "scores"})
_REQUIRED_KEYS = _DETECTION_KEYS - {"prediction"}
_NUMBER_TYPES = {float, int}
_decode = json.JSONDecoder().raw_decode  # json.loads without its whitespace handling
_INT64_MAX = np.iinfo(np.int64).max  # frame indices and horizons are read into int64 columns
_BATCH_LINES = 2048  # records parsed at once; their objects take far more memory than columns


def read_detections(
    path: str, expected_horizon: PredictionHorizon | None = None
) -> dict[str, MicroTubeStream]:
    """Read a detection file into one validated, time-ordered stream per video.

    Lines are parsed a batch at a time, and each batch is checked column
    by column, layout and time order against the batches before it. A
    failing batch is narrowed to its shortest failing prefix, whose last
    record is the first bad one in the file; it is reported as
    ``path:line``. With ``expected_horizon`` given, the first record whose
    horizon differs from it fails: its payload boxes would be placed on the
    wrong frames.
    """
    expected = None
    if expected_horizon is not None:
        expected = (expected_horizon.delta_p, expected_horizon.delta_f, expected_horizon.n)
    parts, lineno, first, last_t = [], 0, None, {}
    with open(path, "r", encoding="utf-8") as fh:
        for batch in iter(lambda: list(islice(fh, _BATCH_LINES)), []):
            records, linenos, broken = [], [], None
            for lineno, line in enumerate(map(str.strip, batch), start=lineno + 1):
                if line:
                    try:
                        records.append(_decode_line(line))
                    except json.JSONDecodeError as exc:
                        # Checked after the records before it: the first bad line wins.
                        broken = f"invalid JSON ({exc.msg})"
                        break
                    linenos.append(lineno)
            if records:
                try:
                    part = _narrowed(lambda rs: _batch_columns(rs, expected, first, last_t),
                                     records)
                except _Fault as fault:
                    _fail(f"{path}:{linenos[fault.count - 1]}", str(fault))
                parts.append(part)
                first, last_t = part[0], part[-1]
            if broken:
                _fail(f"{path}:{lineno}", broken)
    if not parts:
        return {}
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
    return {video_id: MicroTubeStream(t[rows], delta, pairs[rows], scores[rows], payload[rows],
                                      future[rows], None if past is None else past[rows])
            for video_id, rows in rows_by_video.items()}


def _decode_line(line: str) -> object:
    obj, end = _decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return obj


def _batch_columns(records: list, expected: tuple | None, first: tuple | None,
                   last_t: Mapping[str, int]) -> tuple:
    """``(layout, videos, t, pairs, scores, payload, slots, last_t)`` of
    parsed records: ``slots`` holds the prediction rows of the records that
    carry one, and ``last_t`` each video's last t up to this batch.

    ``first`` is the layout of the file's first record and ``last_t`` each
    video's last t in the batches before (None and empty for the first
    batch). A record that breaks a rule raises :class:`_Fault`. The rules
    run in one fixed order, so the message names the first rule that the
    last record breaks when the records before it are good. The layout is
    compared before the payload boxes and scores, which need one layout
    to become arrays.
    """
    last = records[-1]
    if not all(type(r) is dict and r.keys() in (_DETECTION_KEYS, _REQUIRED_KEYS)
               for r in records):
        if type(last) is not dict:
            raise _Fault("record must be a JSON object")
        missing = _REQUIRED_KEYS - last.keys()
        raise _Fault(f"missing keys {sorted(missing)}" if missing
                     else f"unknown keys {sorted(last.keys() - _DETECTION_KEYS)}")
    videos = [r["video"] for r in records]
    t = [r["t"] for r in records]
    deltas = [r["delta"] for r in records]
    horizons = [r["horizon"] for r in records]
    microtubes = [r["microtube"] for r in records]
    predictions = [r.get("prediction") for r in records]
    scores = [r["scores"] for r in records]
    carried = [p for p in predictions if p is not None]
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int.
    if set(map(type, videos)) != {str}:
        raise _Fault(f"video id must be a string, got {last['video']!r}")
    if not all(type(h) is list and len(h) == 3 for h in horizons):
        raise _Fault(f"horizon must be [delta_p, delta_f, n], got {last['horizon']!r}")
    if set(map(type, chain.from_iterable(horizons))) != {int}:
        entry = next((v for v in last["horizon"] if type(v) is not int), None)
        raise _Fault(f"horizon entry must be an integer, got {entry!r}")
    distinct = set(map(tuple, horizons))
    if expected is not None and distinct != {expected}:
        raise _Fault(f"record horizon {tuple(last['horizon'])} differs from the requested "
                     f"horizon {expected}")
    if set(map(type, t)) != {int}:
        raise _Fault(f"t must be an integer, got {last['t']!r}")
    if min(t) < 1:
        raise _Fault(f"t must be a frame index >= 1, got {last['t']}")
    if set(map(type, deltas)) != {int}:
        raise _Fault(f"delta must be an integer, got {last['delta']!r}")
    if max(max(t), max(deltas), *chain.from_iterable(distinct)) > _INT64_MAX:
        raise _Fault(f"t, delta and horizon entries must not exceed {_INT64_MAX}")
    pairs = _number_column(microtubes, "microtube", last["microtube"])
    slots = _number_column(carried, "prediction", last.get("prediction"))
    values = _number_column(scores, "scores", last["scores"])
    if any(delta_p < 0 or delta_f < 1 or n < 0 for delta_p, delta_f, n in distinct):
        raise _Fault(f"invalid horizon {tuple(last['horizon'])}")
    if set(map(len, microtubes)) != {8}:
        raise _Fault(f"micro-tube needs 8 coordinates, got {len(last['microtube'])}")
    pairs = pairs.reshape(len(records), 2, 4)
    if not np.isfinite(pairs).all():
        raise _Fault(f"non-finite micro-tube coordinates {pairs[-1].ravel().tolist()}")
    if _first_bad_box(pairs.reshape(-1, 4)) is not None:
        raise _Fault(f"inverted micro-tube box in {pairs[-1].ravel().tolist()}")
    if min(deltas) < 1:
        raise _Fault(f"delta must be >= 1, got {last['delta']}")
    if min(map(len, scores)) < 2:
        raise _Fault("class scores need at least one real class plus background")
    layout = first or (deltas[0], tuple(horizons[0]), len(scores[0]))
    if set(zip(deltas, map(tuple, horizons), map(len, scores))) != {layout}:
        current = (last["delta"], tuple(last["horizon"]), len(last["scores"]))
        raise _Fault(f"record layout {current} differs from first record {layout}")
    delta, (delta_p, _, n), width = layout
    if set(map(len, carried)) - {4 * (1 + n)}:
        raise _Fault(f"prediction needs {4 * (1 + n)} coordinates for n={n}, "
                     f"got {len(last.get('prediction') or ())}")
    slots = slots.reshape(len(carried), 1 + n, 4)
    # The past slot is checked finite even when delta_p = 0 leaves it unused.
    if not np.isfinite(slots).all():
        raise _Fault(f"non-finite prediction coordinates {slots[-1].ravel().tolist()}")
    if _first_bad_box((slots if delta_p > 0 else slots[:, 1:]).reshape(-1, 4)) is not None:
        past, *future = slots[-1].tolist()
        raise _Fault(_box_error(future + [past] if delta_p > 0 else future))
    values = values.reshape(len(records), width)
    if (values < 0.0).any():
        raise _Fault(f"negative class score in {tuple(values[-1].tolist())}")
    # cumsum adds the scores in order, as sum() does.
    if (np.abs(np.cumsum(values, axis=1)[:, -1] - 1.0) > 1e-6).any():
        raise _Fault(f"class scores must sum to 1 within 1e-6, got {sum(values[-1].tolist())}")
    latest = dict(last_t)
    for video_id, t_k in zip(videos, t):
        if t_k < latest.get(video_id, t_k):
            raise _Fault(f"non-monotone t: {t_k} after {latest[video_id]} in video {video_id!r}")
        latest[video_id] = t_k
    payload = np.array([p is not None for p in predictions], dtype=bool)
    return layout, videos, np.array(t, dtype=np.int64), pairs, values, payload, slots, latest


def write_detections(
    streams: Mapping[str, MicroTubeStream],
    horizon: PredictionHorizon,
    path: str,
) -> None:
    """Write detection streams, one record per row, straight from the columns.

    A stream without a ``past`` column fills each payload's past slot with
    the box at t. Reading the file back with :func:`read_detections` gives
    the same streams when a stream has a ``past`` column exactly when
    ``horizon.delta_p > 0``, as synth's do.
    """
    layout = [horizon.delta_p, horizon.delta_f, horizon.n]
    with open(path, "w", encoding="utf-8") as fh:
        for video_id, stream in streams.items():
            n = len(stream)
            if not n:
                continue
            if stream.payload.any() and stream.future.shape[1] != horizon.n:
                t = int(stream.t[np.argmax(stream.payload)])
                raise ValueError(f"video {video_id!r} t={t}: payload carries "
                                 f"{stream.future.shape[1]} future boxes, horizon says {horizon.n}")
            past = stream.pairs[:, 0] if stream.past is None else stream.past
            slots = np.concatenate((past[:, None], stream.future), axis=1).reshape(n, -1)
            rows = zip(stream.t.tolist(), stream.pairs.reshape(n, 8).tolist(), slots.tolist(),
                       stream.payload.tolist(), stream.scores.tolist())
            for t, microtube, prediction, carried, scores in rows:
                obj = {
                    "video": video_id,
                    "t": t,
                    "delta": stream.delta,
                    "horizon": layout,
                    "microtube": microtube,
                    "prediction": prediction if carried else None,
                    "scores": scores,
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


def _ground_truth_boxes(rows: list) -> Segment:
    """Frames 1..len(rows) of four-number box rows; raises :class:`_Fault`
    when a row is not a valid box."""
    what = f"frame {len(rows)} box"
    boxes = _number_column(rows, what, rows[-1])
    if set(map(len, rows)) != {4}:
        raise _Fault(f"{what} needs 4 coordinates, got {len(rows[-1])}")
    boxes = boxes.reshape(len(rows), 4)
    if _first_bad_box(boxes) is not None:
        raise _Fault(f"frame {len(rows)}: {_box_error(boxes[-1:].tolist())}")
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
            try:
                boxes = _narrowed(_ground_truth_boxes, rows)
            except _Fault as fault:
                _fail(twhere, str(fault))
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
        _fail(where, f"{what} frame {frames[bad]:g}: {_box_error([values[bad, 1:].tolist()])}")
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
    if not isinstance(obj["videos"], list):
        _fail(where, f"'videos' must be a list, got {obj['videos']!r}")
    out: dict[str, list[ActionTube]] = {}
    for v, entry in enumerate(obj["videos"]):
        if not isinstance(entry, dict):
            _fail(where, f"video entry {v} must be an object, got {entry!r}")
        video_id = entry.get("id")
        if not isinstance(video_id, str):
            _fail(where, f"video id must be a string, got {video_id!r}")
        if video_id in out:
            _fail(where, f"duplicate video id {video_id!r}")
        vwhere = f"{where} (video {video_id!r})"
        if entry.keys() != {"id", "tubes"}:
            _fail(vwhere, f"video entry must have keys ['id', 'tubes'], got {sorted(entry)}")
        raw_tubes = entry["tubes"]
        if not isinstance(raw_tubes, list):
            _fail(vwhere, f"'tubes' must be a list, got {raw_tubes!r}")
        tubes = []
        for k, raw in enumerate(raw_tubes):
            twhere = f"{where} (video {video_id!r} tube {k})"
            if not isinstance(raw, dict):
                _fail(twhere, f"tube must be an object, got {raw!r}")
            if raw.keys() != {"class", "score", "detected", "predicted"}:
                _fail(twhere, "tube must have keys ['class', 'detected', 'predicted', 'score'], "
                              f"got {sorted(raw)}")
            try:
                score = raw["score"]
                # type(), not isinstance(): JSON true/false load as bool.
                if type(score) not in _NUMBER_TYPES or not math.isfinite(score):
                    _fail(twhere, f"score must be a finite number, got {score!r}")
                tubes.append(ActionTube(
                    class_id=_as_int(raw["class"], twhere, "class"),
                    tube_score=float(score),
                    detected=_segment_rows(raw["detected"], twhere, "detected"),
                    predicted=_segment_rows(raw["predicted"], twhere, "predicted"),
                ))
            except DataFormatError:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
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
        # type(), not isinstance(): JSON true/false load as bool, a subclass of int.
        if key == "horizon" and (len(value) != 3 or any(type(v) is not int for v in value)):
            _fail(path, f"config key 'horizon' must be three integers [delta_p, delta_f, n], "
                        f"got {value!r}")
        if key == "pct_list" and any(type(v) is not int for v in value):
            _fail(path, f"config key 'pct_list' must be a list of integers, got {value!r}")
        if key == "delta_list" and any(type(v) not in _NUMBER_TYPES for v in value):
            _fail(path, f"config key 'delta_list' must be a list of numbers, got {value!r}")
    return obj
