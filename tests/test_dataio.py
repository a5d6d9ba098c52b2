import json

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
from tubekit.geometry import BoundingBox, FrameSize
from tubekit.linking import ActionTube, MicroTubeDetection, PredictionPayload
from tubekit.metrics import GroundTruthTube
from tubekit.prediction import PredictionHorizon
from tubekit.synth import NoiseModel, lane_dataset


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
    write_detections({"v0": [sample_detection(n=n)]}, PredictionHorizon(0, 5, n), str(path))
    return json.loads(path.read_text())


class TestDetectionRecords:
    def test_roundtrip_is_identity(self, tmp_path):
        path = str(tmp_path / "d.jsonl")
        streams = {
            "v0": [sample_detection(t) for t in (1, 2, 3)],
            "v1": [sample_detection(t) for t in (1, 2)],
        }
        write_detections(streams, PredictionHorizon(0, 5, 2), path)
        assert read_detections(path) == streams

    @pytest.mark.parametrize("horizon", [(0, 5, 3), (2, 5, 3)], ids=["0,5,3", "2,5,3"])
    def test_synth_stream_roundtrips_through_file(self, tmp_path, horizon):
        horizon = PredictionHorizon(*horizon)
        _, streams = lane_dataset(seed=5, num_videos=2, num_classes=2, horizon=horizon,
                                  noise=NoiseModel(center_sigma=1.5, false_positive_rate=0.5))
        path = str(tmp_path / "d.jsonl")
        write_detections(streams, horizon, path)
        back = read_detections(path)
        assert back == streams
        payloads = [d.predictions for dets in back.values() for d in dets]
        assert all(len(p.future_boxes) == 3 for p in payloads)
        assert all((p.past_box is not None) == (horizon.delta_p > 0) for p in payloads)

    def test_writer_rejects_payload_of_wrong_length(self, tmp_path):
        with pytest.raises(ValueError, match="2 future boxes, horizon says 3"):
            write_detections({"v0": [sample_detection(n=2)]}, PredictionHorizon(0, 5, 3),
                             str(tmp_path / "d.jsonl"))

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
        ]
        for change, message in cases:
            path.write_text(json.dumps({**good, **change}) + "\n")
            with pytest.raises(DataFormatError, match=rf"bad\.jsonl:1: .*{message}"):
                read_detections(str(path))

    def test_score_sum_violation(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        obj = {**sample_line(tmp_path), "scores": [0.5, 0.1, 0.1, 0.1]}
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(DataFormatError, match="sum to 1"):
            read_detections(str(path))

    def test_non_monotone_t(self, tmp_path):
        path = str(tmp_path / "order.jsonl")
        write_detections({"v0": [sample_detection(5), sample_detection(2)]},
                         PredictionHorizon(0, 5, 2), path)
        with pytest.raises(DataFormatError, match="non-monotone"):
            read_detections(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"video": "v"\n')
        with pytest.raises(DataFormatError, match=r"broken\.jsonl:1"):
            read_detections(str(path))

    def test_layout_consistency_enforced(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        lines = [{**sample_line(tmp_path, n=2), "video": "v0"},
                 {**sample_line(tmp_path, n=3), "video": "v1"}]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        with pytest.raises(DataFormatError, match="layout"):
            read_detections(str(path))


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
        assert back["v"][0].members == ()

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"videos": [{"id": "v", "tubes": [{"class": 0}]}]}))
        with pytest.raises(DataFormatError):
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
