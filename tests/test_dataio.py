import ast
import inspect
import json
import random
import re
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from tubekit.dataio import (
    CONFIG_KEYS,
    DataFormatError,
    DatasetManifest,
    VideoEntry,
    read_config,
    read_detections,
    read_manifest,
    read_report,
    read_tubes,
    report_rows,
    write_detections,
    write_manifest,
    write_report,
    write_tubes,
)
from tubekit.geometry import BoundingBox, FrameSize, Segment
from tubekit.linking import ActionTube, MicroTubeStream
from tubekit.metrics import GroundTruthTube
from tubekit.prediction import PredictionHorizon
from tubekit.synth import NoiseModel, lane_dataset

import records
from records import (
    FAULTS,
    LINE_FAULTS,
    MicroTubeDetection,
    PredictionPayload,
    corrupt,
    records_by_video,
    records_of,
    reference_check_records,
    stream_of,
    streams_of,
)


def random_box_coords(rng):
    x, y = rng.uniform(0, 80, 2)
    w, h = rng.uniform(5, 40, 2)
    return (float(x), float(y), float(x + w), float(y + h))


def sample_detection(t=1, n=2):
    rng = np.random.default_rng(t)
    scores = rng.uniform(0.1, 1.0, 4)
    scores /= scores.sum()
    box_t, box_next, *future = (BoundingBox(*random_box_coords(rng)) for _ in range(2 + n))
    return MicroTubeDetection(
        t=t,
        delta=1,
        box_t=box_t,
        box_t_plus_delta=box_next,
        class_scores=tuple(float(s) for s in scores),
        predictions=PredictionPayload(future_boxes=tuple(future)),
    )


def sample_line(tmp_path, n=2):
    """The JSON object that write_detections makes of one sample detection."""
    path = tmp_path / "one.jsonl"
    write_detections({"v0": stream_of([sample_detection(n=n)])}, PredictionHorizon(0, 5, n),
                     str(path))
    return json.loads(path.read_text())


class TestDetectionRecords:
    def test_roundtrip_is_identity(self, tmp_path):
        path = str(tmp_path / "d.jsonl")
        streams = {
            "v0": [sample_detection(t) for t in (1, 2, 3)],
            "v1": [sample_detection(t) for t in (1, 2)],
        }
        write_detections(streams_of(streams), PredictionHorizon(0, 5, 2), path)
        assert records_by_video(read_detections(path)) == streams

    def test_records_without_payload_roundtrip(self, tmp_path):
        path = str(tmp_path / "d.jsonl")
        bare = replace(sample_detection(2), predictions=None)
        streams = {"v0": [sample_detection(1), bare, sample_detection(3)], "v1": [bare]}
        write_detections(streams_of(streams), PredictionHorizon(0, 5, 2), path)
        back = read_detections(path)
        assert records_by_video(back) == streams
        assert back["v0"].payload.tolist() == [True, False, True]

    @pytest.mark.parametrize("horizon", [(0, 5, 3), (2, 5, 3)], ids=["0,5,3", "2,5,3"])
    def test_synth_stream_roundtrips_through_file(self, tmp_path, horizon):
        horizon = PredictionHorizon(*horizon)
        _, streams = lane_dataset(seed=5, num_videos=2, num_classes=2, horizon=horizon,
                                  noise=NoiseModel(center_sigma=1.5, false_positive_rate=0.5))
        path = str(tmp_path / "d.jsonl")
        write_detections(streams, horizon, path)
        back = read_detections(path)
        assert records_by_video(back) == records_by_video(streams)
        payloads = [d.predictions for dets in records_by_video(back).values() for d in dets]
        assert all(len(p.future_boxes) == 3 for p in payloads)
        assert all((p.past_box is not None) == (horizon.delta_p > 0) for p in payloads)

    def test_video_without_detections_writes_no_records(self, tmp_path):
        # Synth gives a video whose actors were all missed a stream without rows.
        _, streams = lane_dataset(seed=2, num_videos=2, num_classes=2,
                                  noise=NoiseModel(miss_rate=1.0))
        assert [len(s) for s in streams.values()] == [0, 0]
        streams["video_000"] = stream_of([sample_detection(1, n=3)])
        path = str(tmp_path / "d.jsonl")
        write_detections(streams, PredictionHorizon(0, 5, 3), path)
        assert list(read_detections(path)) == ["video_000"]

    def test_writer_rejects_payload_of_wrong_length(self, tmp_path):
        with pytest.raises(ValueError, match="2 future boxes, horizon says 3"):
            write_detections({"v0": stream_of([sample_detection(n=2)])},
                             PredictionHorizon(0, 5, 3), str(tmp_path / "d.jsonl"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_detections(str(path)) == {}

    def test_bad_coordinate_count_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = sample_line(tmp_path)
        microtube, prediction = good["microtube"], good["prediction"]
        x_min, y_min, x_max, y_max = microtube[4:8]
        fx_min, fy_min, fx_max, fy_max = prediction[4:8]
        # json.loads accepts NaN and Infinity, so the reader must reject them.
        cases = [
            ({"microtube": microtube[:7]}, "8 coordinates"),
            ({"microtube": [False] + microtube[1:]}, "microtube must be a list of numbers"),
            ({"microtube": microtube[:2] + [float("nan")] + microtube[3:]}, "non-finite micro-tube"),
            ({"microtube": microtube[:4] + [x_max, y_min, x_min, y_max]}, "inverted micro-tube"),
            ({"prediction": prediction[:-1] + [float("inf")]}, "non-finite prediction"),
            ({"prediction": [float("nan")] + prediction[1:]}, "non-finite prediction"),
            ({"prediction": prediction[:4] + [fx_max, fy_min, fx_min, fy_max] + prediction[8:]},
             "inverted box"),
            ({"scores": [1.2, -0.2, 0.0, 0.0]}, "negative class score"),
            ({"delta": 0}, "delta must be >= 1, got 0"),
            ({"scores": [1.0]}, "at least one real class plus background"),
            ({"t": -1}, "t must be a frame index >= 1, got -1"),
            ({"t": 2**63}, "must not exceed 9223372036854775807"),
            ({"horizon": [0, 5, 2**70]}, "must not exceed 9223372036854775807"),
            ({"delta": 2**70}, "must not exceed 9223372036854775807"),
            ({"horizon": [2**70, 5, 2], "prediction": None}, "must not exceed 9223372036854775807"),
            ({"microtube": microtube[:2] + [10**400] + microtube[3:]},
             "microtube holds an integer too large for a float"),
        ]
        for change, message in cases:
            path.write_text(json.dumps({**good, **change}) + "\n")
            with pytest.raises(DataFormatError, match=rf"bad\.jsonl:1: .*{message}"):
                read_detections(str(path))

    def test_horizon_without_payloads_sizes_nothing(self, tmp_path):
        # No record carries the n future boxes, so none may be allocated.
        path = tmp_path / "huge_n.jsonl"
        good = sample_line(tmp_path)
        path.write_text(json.dumps({**good, "horizon": [0, 5, 10**12], "prediction": None}) + "\n")
        (stream,) = read_detections(str(path)).values()
        assert len(stream) == 1 and not stream.payload.any()
        assert stream.future.size == 0

    def test_score_sum_violation(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        obj = {**sample_line(tmp_path), "scores": [0.5, 0.1, 0.1, 0.1]}
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(DataFormatError, match="sum to 1"):
            read_detections(str(path))

    def test_non_monotone_t(self, tmp_path):
        path = str(tmp_path / "order.jsonl")
        write_detections({"v0": stream_of([sample_detection(5), sample_detection(2)])},
                         PredictionHorizon(0, 5, 2), path)
        with pytest.raises(DataFormatError, match="non-monotone"):
            read_detections(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"video": "v"\n')
        with pytest.raises(DataFormatError, match=r"broken\.jsonl:1"):
            read_detections(str(path))

    def test_first_bad_record_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = sample_line(tmp_path)
        nan_tube = {**good, "microtube": [float("nan")] + good["microtube"][1:]}
        lines = [json.dumps(good), json.dumps(nan_tube), '{"video": "v0"', json.dumps({"t": 1})]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=r"bad\.jsonl:2: non-finite micro-tube"):
            read_detections(str(path))
        path.write_text("\n".join([lines[0], "", lines[2], lines[1]]) + "\n")
        with pytest.raises(DataFormatError, match=r"bad\.jsonl:3: invalid JSON"):
            read_detections(str(path))
        path.write_text("\n".join([lines[0], lines[3], lines[1]]) + "\n")
        with pytest.raises(DataFormatError, match=r"bad\.jsonl:2: missing keys"):
            read_detections(str(path))

    def test_streams_are_columns(self, tmp_path):
        path = str(tmp_path / "d.jsonl")
        dets = [sample_detection(t, n=3) for t in (1, 2, 3)]
        write_detections({"v0": stream_of(dets)}, PredictionHorizon(0, 5, 3), path)
        stream = read_detections(path)["v0"]
        assert isinstance(stream, MicroTubeStream)
        assert stream.t.tolist() == [1, 2, 3]
        assert stream.pairs.shape == (3, 2, 4) and stream.future.shape == (3, 3, 4)
        assert stream.scores.tolist() == [list(d.class_scores) for d in dets]
        assert stream.past is None and stream.payload.all()

    def test_layout_consistency_enforced(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        lines = [{**sample_line(tmp_path, n=2), "video": "v0"},
                 {**sample_line(tmp_path, n=3), "video": "v1"}]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        with pytest.raises(DataFormatError, match="layout"):
            read_detections(str(path))


class TestBatchBoundaries:
    """Files longer than the 2,048 lines the reader parses at once."""

    @staticmethod
    def write_lines(tmp_path, objs):
        path = tmp_path / "long.jsonl"
        path.write_text("".join(o if isinstance(o, str) else json.dumps(o) + "\n" for o in objs))
        return str(path)

    @staticmethod
    def one_video(tmp_path, count):
        """``count`` valid records of video v0, record i at t = i + 1."""
        good = sample_line(tmp_path)
        return [{**good, "video": "v0", "t": i + 1} for i in range(count)]

    def test_synth_stream_roundtrips(self, tmp_path):
        horizon = PredictionHorizon(2, 5, 3)
        _, streams = lane_dataset(seed=3, num_videos=40, num_classes=3, horizon=horizon,
                                  noise=NoiseModel(false_positive_rate=0.3))
        assert sum(map(len, streams.values())) > 4096
        path = str(tmp_path / "d.jsonl")
        write_detections(streams, horizon, path)
        assert records_by_video(read_detections(path)) == records_by_video(streams)

    def test_bad_record_in_third_batch_named(self, tmp_path):
        objs = self.one_video(tmp_path, 5000)
        objs[4500] = {**objs[4500], "microtube": [float("nan")] + objs[4500]["microtube"][1:]}
        objs[10:10] = ["\n"]
        objs[3000:3000] = ["   \n"]
        with pytest.raises(DataFormatError, match=r"long\.jsonl:4503: non-finite micro-tube"):
            read_detections(self.write_lines(tmp_path, objs))

    def test_layout_change_after_first_batch_named(self, tmp_path):
        objs = self.one_video(tmp_path, 2100)
        objs[2048:] = [{**o, "delta": 2} for o in objs[2048:]]
        with pytest.raises(DataFormatError, match=r"long\.jsonl:2049: record layout"):
            read_detections(self.write_lines(tmp_path, objs))

    def test_descending_t_across_batches_named(self, tmp_path):
        objs = self.one_video(tmp_path, 2100)
        objs[2048] = {**objs[2048], "t": objs[2047]["t"] - 1}
        message = r"long\.jsonl:2049: non-monotone t: 2047 after 2048 in video 'v0'"
        with pytest.raises(DataFormatError, match=message):
            read_detections(self.write_lines(tmp_path, objs))

    def test_bad_record_before_broken_line_named(self, tmp_path):
        objs = self.one_video(tmp_path, 3000)
        objs[2500] = {**objs[2500], "scores": [0.5, 0.1, 0.1, 0.1]}
        objs[2600] = '{"video": "v0"\n'
        with pytest.raises(DataFormatError, match=r"long\.jsonl:2501: class scores must sum to 1"):
            read_detections(self.write_lines(tmp_path, objs))


# (delta, horizon, score count) of the files of the oracle corpus
CORPUS_LAYOUTS = [(1, (0, 5, 2), 3), (2, (2, 5, 3), 4), (1, (0, 5, 0), 2), (1, (3, 5, 0), 5),
                  (3, (1, 2, 1), 3)]


def corpus_records(rng, count):
    """``count`` valid detection records of one random layout, time-ordered
    per video; some coordinates are integers and some records carry no
    prediction or no prediction key."""
    delta, horizon, width = rng.choice(CORPUS_LAYOUTS)
    next_t = {f"v{k}": 50 + rng.randrange(5) for k in range(rng.randint(1, 4))}
    out = []
    for _ in range(count):
        video = rng.choice(list(next_t))
        t, next_t[video] = next_t[video], next_t[video] + rng.randrange(3)
        coords = []
        for _ in range(3 + horizon[2]):
            x, y, w, h = (rng.uniform(0, 100) for _ in range(4))
            box = [x, y, x + w + 1, y + h + 1]
            coords += [round(v) for v in box] if rng.random() < 0.2 else box
        scores = [rng.random() + 0.01 for _ in range(width)]
        record = {"video": video, "t": t, "delta": delta, "horizon": list(horizon),
                  "microtube": coords[:8], "prediction": coords[8:],
                  "scores": [s / sum(scores) for s in scores]}
        if rng.random() < 0.2:
            record["prediction"] = None
        elif rng.random() < 0.05:
            del record["prediction"]
        out.append(record)
    return out


def detections_of(objs):
    """The records of a file the oracle accepts, grouped by video."""
    delta_p, _, n = objs[0]["horizon"]
    by_video = {}
    for o in objs:
        p = o.get("prediction")
        payload = None if p is None else PredictionPayload(
            future_boxes=tuple(BoundingBox(*p[4 * k: 4 * k + 4]) for k in range(1, n + 1)),
            past_box=BoundingBox(*p[:4]) if delta_p > 0 else None)
        m = o["microtube"]
        by_video.setdefault(o["video"], []).append(MicroTubeDetection(
            o["t"], o["delta"], BoundingBox(*m[:4]), BoundingBox(*m[4:]), tuple(o["scores"]),
            payload))
    return by_video


def oracle_templates():
    """A pattern for each message that reference_check_records can raise,
    read from its source: the strings it passes to ``_fail`` and
    ``ValueError``, and those of the helpers it calls, with their ``what``."""
    def pattern(node, what):
        if isinstance(node, ast.Constant):
            return re.escape(node.value)
        return "".join(re.escape(v.value) if isinstance(v, ast.Constant)
                       else re.escape(what) if ast.unparse(v.value) == "what" else ".+"
                       for v in node.values)

    def messages(func, what=None):
        for call in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
            name = ast.unparse(call.func) if isinstance(call, ast.Call) else None
            if name == "_fail" and not isinstance(call.args[1], ast.Call):  # not str(exc)
                yield pattern(call.args[1], what)
            elif name == "ValueError":
                yield pattern(call.args[0], what)
            elif name in ("_as_int", "_as_number_list"):
                yield from messages(getattr(records, name), call.args[2].value)
            elif name == "BoundingBox":
                yield r"inverted box .+"  # its non-finite case is checked before

    return set(messages(reference_check_records))


def test_reader_matches_record_oracle(tmp_path):
    """The reader and the record-by-record oracle agree on a seeded corpus of
    files with 0-3 corrupted records: both accept a file, and the reader's
    streams hold its records, or both name the same line. The messages are
    equal when the line holds at most one fault."""
    rng = random.Random(20261021)
    kinds = list(FAULTS)
    path = tmp_path / "corpus.jsonl"
    templates = oracle_templates()
    reached = set()
    for i in range(300):
        count = rng.randint(2049, 2080) if i % 60 == 0 else rng.randint(1, 30)
        objs = corpus_records(rng, count)
        lines = [json.dumps(o) for o in objs]
        faults_at = {}
        for _ in range(rng.choice([0, 1, 1, 1, 2, 3])):
            near_boundary = count > 2048 and rng.random() < 0.5
            k = rng.randrange(2040, min(count, 2060)) if near_boundary else rng.randrange(count)
            if rng.random() < 0.06:
                chosen = [rng.choice(list(LINE_FAULTS))]
            else:
                chosen = rng.sample(kinds, rng.choice([1, 1, 1, 2, 3]))
            lines[k] = corrupt(objs[k], chosen, rng)
            faults_at[k] = len(chosen)
        for k in sorted(rng.sample(range(len(lines) + 1), rng.choice([0, 0, 1, 2])), reverse=True):
            lines.insert(k, rng.choice(["", "  "]))
            faults_at = {j + (j >= k): n for j, n in faults_at.items()}
        path.write_text("\n".join(lines) + "\n")
        horizon = objs[0]["horizon"]
        for expected in (None, tuple(horizon)):
            try:
                reference_check_records(str(path), expected)
                want = None
            except DataFormatError as exc:
                want = str(exc)
            try:
                got = read_detections(str(path), expected and PredictionHorizon(*expected))
            except DataFormatError as exc:
                assert want is not None, f"file {i}: only the reader fails: {exc}"
                where, message = re.fullmatch(r"(.*?:\d+): (.*)", want, re.S).groups()
                assert str(exc).startswith(where + ": "), f"file {i}: {exc} != {want}"
                if faults_at.get(int(where.rsplit(":", 1)[1]) - 1, 0) <= 1:
                    assert str(exc) == want, f"file {i}"
                reached |= {p for p in templates if re.fullmatch(p, message, re.S)}
            else:
                assert want is None, f"file {i}: only the oracle fails: {want}"
                accepted = [json.loads(line) for line in lines if line.strip()]
                assert records_by_video(got) == detections_of(accepted), f"file {i}"
    assert templates - reached == set()


def sample_manifest(num_frames=4):
    b = BoundingBox(1, 2, 30, 40)
    tube = GroundTruthTube("v0", 0, {f: b for f in range(1, num_frames + 1)})
    entry = VideoEntry("v0", num_frames, FrameSize(320, 240), (tube,))
    return DatasetManifest(class_names=("walk",), videos={"v0": entry})


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "m.json")
        manifest = sample_manifest()
        write_manifest(manifest, path)
        assert read_manifest(path) == manifest

    def test_minimal_manifest_parses(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "classes": ["walk"],
            "videos": [{"id": "v", "frames": 2, "width": 100, "height": 100,
                        "tubes": [{"class": 0, "boxes": [[0, 0, 10, 10], [0, 0, 10, 10]]}]}],
        }))
        manifest = read_manifest(str(path))
        assert manifest.num_classes == 1
        assert manifest.videos["v"].tubes[0].boxes[2] == BoundingBox(0, 0, 10, 10)

    def test_duplicate_video_id(self, tmp_path):
        path = tmp_path / "m.json"
        video = {"id": "v", "frames": 1, "width": 10, "height": 10,
                 "tubes": [{"class": 0, "boxes": [[0, 0, 5, 5]]}]}
        path.write_text(json.dumps({"classes": ["a"], "videos": [video, video]}))
        with pytest.raises(DataFormatError, match="duplicate video id"):
            read_manifest(str(path))

    def test_unknown_class_id(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "classes": ["a"],
            "videos": [{"id": "v", "frames": 1, "width": 10, "height": 10,
                        "tubes": [{"class": 3, "boxes": [[0, 0, 5, 5]]}]}],
        }))
        with pytest.raises(DataFormatError, match="unknown class id"):
            read_manifest(str(path))

    def test_tube_must_cover_video(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "classes": ["a"],
            "videos": [{"id": "v", "frames": 3, "width": 10, "height": 10,
                        "tubes": [{"class": 0, "boxes": [[0, 0, 5, 5]]}]}],
        }))
        with pytest.raises(DataFormatError, match="cover all 3 frames"):
            read_manifest(str(path))

    def test_ground_truth_read_as_segment(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_manifest(sample_manifest(num_frames=3), path)
        boxes = read_manifest(path).videos["v0"].tubes[0].boxes
        assert isinstance(boxes, Segment)
        assert boxes.frames.tolist() == [1, 2, 3]
        assert boxes.boxes.tolist() == [[1.0, 2.0, 30.0, 40.0]] * 3

    @pytest.mark.parametrize("row, message", [
        ([5, 0, 0, 5], r"tube 0: frame 2: inverted box"),
        ([0, 5, 5, 0], r"tube 0: frame 2: inverted box"),
        ([0, 0, float("nan"), 5], r"tube 0: frame 2: non-finite box coordinates"),
        ([0, 0, True, 5], r"tube 0: frame 2 box must be a list of numbers"),
        ([0, 0, 5], r"tube 0: frame 2 box needs 4 coordinates, got 3"),
        ([0, 0, 10**400, 5], r"tube 0: frame 2 box holds an integer too large for a float"),
    ], ids=["inverted_x", "inverted_y", "nan", "bool", "short", "huge"])
    def test_bad_ground_truth_box_names_frame(self, tmp_path, row, message):
        path = tmp_path / "m.json"
        rows = [[0, 0, 5, 5], row, [0, 0, True, 5]]
        path.write_text(json.dumps({
            "classes": ["a"],
            "videos": [{"id": "v", "frames": 3, "width": 10, "height": 10,
                        "tubes": [{"class": 0, "boxes": rows}]}],
        }))
        with pytest.raises(DataFormatError, match=message):
            read_manifest(str(path))

    def test_generated_dataset_roundtrips(self, tmp_path):
        manifest, _ = lane_dataset(seed=2, num_videos=3, num_classes=2)
        path = str(tmp_path / "gen.json")
        write_manifest(manifest, path)
        again = read_manifest(path)
        assert again == manifest


class TestTubesDocument:
    def test_roundtrip_without_members(self, tmp_path):
        b1, b2 = BoundingBox(0, 0, 10, 10), BoundingBox(2, 0, 12, 10)
        tube = ActionTube(class_id=1, tube_score=0.75,
                          detected={1: b1, 2: b2}, predicted={3: b2})
        path = str(tmp_path / "t.json")
        write_tubes({"v": [tube]}, path)
        back = read_tubes(path)
        assert back["v"][0].detected == tube.detected
        assert back["v"][0].predicted == tube.predicted
        assert back["v"][0].tube_score == tube.tube_score
        assert tuple(records_of(back["v"][0].members)) == ()

    @pytest.mark.parametrize("frames, message", [
        ([1.5, 2, 2], r"detected frame 1\.5 is not an integer"),
        ([1, 2, 2], r"detected frames must ascend without repeats, got 2 after 2"),
        ([2, 1, 3], r"detected frames must ascend without repeats, got 1 after 2"),
    ], ids=["fractional", "duplicate", "descending"])
    def test_bad_frame_numbers_rejected(self, tmp_path, frames, message):
        path = tmp_path / "t.json"
        rows = [[f, 0.0, 0.0, 10.0 + k, 10.0] for k, f in enumerate(frames)]
        tube = {"class": 0, "score": 0.5, "detected": rows, "predicted": []}
        path.write_text(json.dumps({"videos": [{"id": "v", "tubes": [tube]}]}))
        with pytest.raises(DataFormatError, match=rf"t\.json \(video 'v' tube 0\): {message}"):
            read_tubes(str(path))

    def test_integral_float_frames_accepted(self, tmp_path):
        path = tmp_path / "t.json"
        tube = {"class": 0, "score": 0.5, "detected": [[1.0, 0, 0, 1, 1], [2, 0, 0, 1, 1]],
                "predicted": [[3.0, 0, 0, 1, 1]]}
        path.write_text(json.dumps({"videos": [{"id": "v", "tubes": [tube]}]}))
        back = read_tubes(str(path))["v"][0]
        assert back.detected.frames.tolist() == [1, 2]
        assert back.predicted.frames.tolist() == [3]

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"videos": [{"id": "v", "tubes": [{"class": 0}]}]}))
        with pytest.raises(DataFormatError):
            read_tubes(str(path))
        rows = [[1, 0, 0, 10**400, 1]]
        for tube in ({"class": 0, "score": 0.5, "detected": rows, "predicted": []},
                     {"class": 0, "score": 10**400, "detected": rows[:0], "predicted": []}):
            path.write_text(json.dumps({"videos": [{"id": "v", "tubes": [tube]}]}))
            with pytest.raises(DataFormatError, match=r"\(video 'v' tube 0\)"):
                read_tubes(str(path))

    @pytest.mark.parametrize("doc, message", [
        ({"videos": "abc"}, r"t\.json: 'videos' must be a list, got 'abc'"),
        ({"videos": {"id": "v"}}, r"t\.json: 'videos' must be a list"),
        ({"videos": ["v"]}, r"t\.json: video entry 0 must be an object, got 'v'"),
        ({"videos": [{"id": "v", "tubes": "x"}]},
         r"t\.json \(video 'v'\): 'tubes' must be a list, got 'x'"),
        ({"videos": [{"id": "v", "tubes": [{"class": 0, "score": True, "predicted": [],
                                          "detected": [[1, 0, 0, 1, 1]]}]}]},
         r"t\.json \(video 'v' tube 0\): score must be a finite number, got True"),
        ({"videos": [{"id": "v", "tubes": [{"class": 0, "score": "0.5", "predicted": [],
                                          "detected": [[1, 0, 0, 1, 1]]}]}]},
         r"t\.json \(video 'v' tube 0\): score must be a finite number, got '0\.5'"),
        ({"videos": [{"id": "v", "tubes": [{"class": 0, "score": float("nan"), "predicted": [],
                                          "detected": [[1, 0, 0, 1, 1]]}]}]},
         r"t\.json \(video 'v' tube 0\): score must be a finite number, got nan"),
        ({"videos": [{"id": "v", "tubs": [], "extra": 1}]},
         r"t\.json \(video 'v'\): video entry must have keys \['id', 'tubes'\], "
         r"got \['extra', 'id', 'tubs'\]"),
        ({"videos": [{"id": "v"}]},
         r"t\.json \(video 'v'\): video entry must have keys \['id', 'tubes'\], got \['id'\]"),
        ({"videos": [{"id": "v", "tubes": [[0, 0.5]]}]},
         r"t\.json \(video 'v' tube 0\): tube must be an object, got \[0, 0\.5\]"),
        ({"videos": [{"id": "v", "tubes": [{"class": 0, "score": 0.5, "predicted": []}]}]},
         r"t\.json \(video 'v' tube 0\): tube must have keys \['class', 'detected', "
         r"'predicted', 'score'\], got \['class', 'predicted', 'score'\]"),
        ({"videos": [{"id": "v", "tubes": [{"class": 0, "score": 0.5, "predicted": [],
                                          "detected": [[1, 0, 0, 1, 1]], "members": []}]}]},
         r"t\.json \(video 'v' tube 0\): tube must have keys .*, got \['class', 'detected', "
         r"'members', 'predicted', 'score'\]"),
    ], ids=["videos_str", "videos_dict", "video_str", "tubes_str", "score_bool", "score_str",
            "score_nan", "video_unknown_key", "video_missing_tubes", "tube_list",
            "tube_missing_detected", "tube_unknown_key"])
    def test_bad_structure_names_location(self, tmp_path, doc, message):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=message):
            read_tubes(str(path))


class TestReport:
    def make_report(self):
        from tubekit.metrics import EvalCell, EvalReport

        return EvalReport(class_ids=(0, 1), cells=[
            EvalCell("accuracy", None, 50, 0.5),
            EvalCell("c_map", 0.5, 50, 0.25, ((0, 0.5), (1, 0.0))),
            EvalCell("c_map", "avg", 50, 0.125, ((0, 0.25),)),
        ])

    def test_roundtrip_within_tolerance(self, tmp_path):
        path = str(tmp_path / "r.csv")
        report = self.make_report()
        write_report(report, path)
        rows = read_report(path)
        assert rows[0] == ("accuracy", "", 50, "mean", 0.5)
        assert ("c_map", "0.5", 50, "0", 0.5) in rows
        assert ("c_map", "avg", 50, "mean", 0.125) in rows
        for row in rows:
            assert isinstance(row[4], float)

    def test_row_count_formula(self, tmp_path):
        # mAP metrics emit (|classes with gt| + 1 mean) rows per (delta, pct)
        # cell; accuracy emits one mean row per pct. Counted directly from
        # the emission rules.
        from tubekit.linking import LinkParams
        from tubekit.metrics import evaluate_sweep
        from tubekit.prediction import PredictionHorizon

        manifest, streams = lane_dataset(seed=11, num_videos=4, num_classes=2)
        deltas = (0.2, 0.5)
        pcts = (50, 100)
        report = evaluate_sweep(
            detections_by_video=streams,
            video_meta=manifest.video_meta(),
            gt_tubes=manifest.all_tubes(),
            num_classes=2,
            horizon=PredictionHorizon(0, 5, 3),
            deltas=deltas,
            percentages=pcts,
            link_params=LinkParams(),
        )
        rows = report_rows(report)
        n_classes = 2
        per_cell = n_classes + 1
        expected = (
            len(pcts)                                   # accuracy mean rows
            + len(deltas) * len(pcts) * per_cell        # online_map
            + len(deltas) * 1 * per_cell                # p_map (absent at 100)
            + len(deltas) * len(pcts) * per_cell        # c_map
            + len(deltas) * 1 * per_cell                # detection_map at 100
        )
        assert len(rows) == expected

    def test_tag_column(self, tmp_path):
        path = str(tmp_path / "r.csv")
        write_report(self.make_report(), path, tag="run_a")
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["metric", "delta", "observed_pct", "class", "value", "tag"]

    def test_values_roundtrip_precisely(self, tmp_path):
        from tubekit.metrics import EvalCell, EvalReport

        value = 0.12345678901234567
        report = EvalReport(class_ids=(), cells=[EvalCell("accuracy", None, 10, value)])
        path = str(tmp_path / "r.csv")
        write_report(report, path)
        got = read_report(path)[0][4]
        assert got == pytest.approx(value, rel=1e-12)


class TestConfig:
    def test_known_keys_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 3, "nms": 0.4, "horizon": [0, 5, 3]}))
        cfg = read_config(str(path))
        assert cfg["seed"] == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        for doc in ({"bogus": 1}, {"priors": {}}):
            path.write_text(json.dumps(doc))
            with pytest.raises(DataFormatError, match="unknown config key"):
                read_config(str(path))

    def test_keys_match_run_config(self):
        from dataclasses import fields

        from tubekit.cli import RunConfig

        assert set(CONFIG_KEYS) == {f.name for f in fields(RunConfig)}

    def test_wrong_type_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": "three"}))
        with pytest.raises(DataFormatError, match="seed"):
            read_config(str(path))

    @pytest.mark.parametrize("doc, message", [
        ({"horizon": [0, 5]}, r"'horizon' must be three integers .*got \[0, 5\]"),
        ({"horizon": [0, 5, 3, 1]}, r"'horizon' must be three integers"),
        ({"horizon": [0, True, 3]}, r"'horizon' must be three integers .*got \[0, True, 3\]"),
        ({"horizon": [0, 5.0, 3]}, r"'horizon' must be three integers"),
        ({"pct_list": [0.5]}, r"'pct_list' must be a list of integers, got \[0\.5\]"),
        ({"pct_list": [50, False]}, r"'pct_list' must be a list of integers"),
        ({"delta_list": [0.5, True]}, r"'delta_list' must be a list of numbers"),
        ({"delta_list": ["0.5"]}, r"'delta_list' must be a list of numbers"),
    ], ids=["horizon_short", "horizon_long", "horizon_bool", "horizon_float", "pct_float",
            "pct_bool", "delta_bool", "delta_str"])
    def test_list_elements_checked(self, tmp_path, doc, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=rf"c\.json: config key {message}"):
            read_config(str(path))
