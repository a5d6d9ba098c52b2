import pytest

from tubekit.dataio import write_detections
from tubekit.geometry import BoundingBox, FrameSize
from tubekit.linking import LinkParams
from tubekit.metrics import evaluate_sweep
from tubekit.prediction import PredictionHorizon
from tubekit.synth import (
    ActorSpec,
    NoiseModel,
    ScenarioSpec,
    generate,
    lane_dataset,
)

from records import records_of

FRAME = FrameSize(320, 240)


def still_actor(class_id=0):
    return ActorSpec(class_id=class_id, initial_box=BoundingBox(50, 50, 120, 150))


def walking_actor(vx=2.0, vy=0.0, class_id=0):
    return ActorSpec(class_id=class_id, initial_box=BoundingBox(20, 50, 80, 150),
                     velocities=((1, vx, vy),))


class TestScenarioValidation:
    def test_actor_must_start_inside_frame(self):
        with pytest.raises(ValueError, match="starts outside"):
            ScenarioSpec(seed=0, num_frames=10, frame=FRAME,
                         actors=(ActorSpec(0, BoundingBox(-5, 0, 40, 40)),))

    def test_actor_leaving_frame_rejected(self):
        runner = ActorSpec(0, BoundingBox(250, 50, 310, 150), velocities=((1, 30.0, 0.0),))
        with pytest.raises(ValueError, match="leaves the frame"):
            ScenarioSpec(seed=0, num_frames=10, frame=FRAME, actors=(runner,))

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            NoiseModel(miss_rate=1.5)
        with pytest.raises(ValueError):
            NoiseModel(center_sigma=-1.0)
        with pytest.raises(ValueError, match="prediction_sigma must be finite"):
            NoiseModel(prediction_sigma=float("inf"))

    def test_velocity_schedule_validated(self):
        with pytest.raises(ValueError, match="start at frame 1"):
            ActorSpec(0, BoundingBox(0, 0, 10, 10), velocities=((3, 1.0, 0.0),))


class TestGroundTruth:
    def test_follows_schedule_exactly(self):
        spec = ScenarioSpec(seed=0, num_frames=12, frame=FRAME,
                            actors=(walking_actor(vx=3.0, vy=1.0),))
        entry, _ = generate(spec, num_classes=1)
        boxes = entry.tubes[0].boxes
        for f in range(1, 13):
            assert boxes[f] == BoundingBox(20 + 3.0 * (f - 1), 50 + 1.0 * (f - 1),
                                           80 + 3.0 * (f - 1), 150 + 1.0 * (f - 1))

    def test_piecewise_schedule(self):
        actor = ActorSpec(0, BoundingBox(50, 50, 100, 100),
                          velocities=((1, 2.0, 0.0), (4, 0.0, 3.0)))
        spec = ScenarioSpec(seed=0, num_frames=8, frame=FRAME, actors=(actor,))
        entry, _ = generate(spec, num_classes=1)
        boxes = entry.tubes[0].boxes
        assert boxes[4] == BoundingBox(56, 50, 106, 100)   # 3 steps of vx=2
        assert boxes[6] == BoundingBox(56, 56, 106, 106)   # then 2 steps of vy=3

    def test_clipped_at_edges(self):
        # moves right 4 px/frame from x_max=300; unclipped truth exits at 320
        actor = ActorSpec(0, BoundingBox(240, 50, 300, 150), velocities=((1, 4.0, 0.0),))
        spec = ScenarioSpec(seed=0, num_frames=10, frame=FRAME, actors=(actor,))
        entry, _ = generate(spec, num_classes=1)
        assert entry.tubes[0].boxes[10].x_max == 320.0


class TestDetections:
    def test_zero_noise_equals_ground_truth(self):
        spec = ScenarioSpec(seed=0, num_frames=10, frame=FRAME,
                            actors=(walking_actor(),), noise=NoiseModel())
        entry, dets = generate(spec, num_classes=1)
        boxes = entry.tubes[0].boxes
        assert len(dets) == 9
        for d in records_of(dets):
            assert d.box_t == boxes[d.t]
            assert d.box_t_plus_delta == boxes[d.t + 1]
            for k, fb in enumerate(d.predictions.future_boxes, start=1):
                f = d.t + k * spec.horizon.delta_f
                if f <= spec.num_frames:
                    assert fb == boxes[f]

    def test_full_miss_rate_empty_stream(self):
        spec = ScenarioSpec(seed=0, num_frames=10, frame=FRAME,
                            actors=(walking_actor(),),
                            noise=NoiseModel(miss_rate=1.0))
        _, dets = generate(spec, num_classes=1)
        assert records_of(dets) == []

    def test_false_positives_emitted(self):
        spec = ScenarioSpec(seed=0, num_frames=30, frame=FRAME,
                            actors=(still_actor(),),
                            noise=NoiseModel(false_positive_rate=1.0))
        _, dets = generate(spec, num_classes=1)
        assert len(dets) == 2 * 29  # one real + one fp per pair

    def test_fixed_seed_byte_identical(self, tmp_path):
        horizon = PredictionHorizon(0, 5, 3)
        noise = NoiseModel(center_sigma=2.0, miss_rate=0.1, false_positive_rate=0.2,
                           score_temperature=1.0)
        paths = []
        for run in range(2):
            spec = ScenarioSpec(seed=99, num_frames=20, frame=FRAME,
                                actors=(walking_actor(),), noise=noise, horizon=horizon)
            _, dets = generate(spec, num_classes=2)
            path = tmp_path / f"run{run}.jsonl"
            write_detections({"v": dets}, horizon, str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_scores_favor_true_class(self):
        spec = ScenarioSpec(seed=1, num_frames=10, frame=FRAME,
                            actors=(walking_actor(class_id=2),))
        _, dets = generate(spec, num_classes=3)
        for d in records_of(dets):
            assert d.class_scores[2] > 0.99

    def test_class_id_must_fit(self):
        spec = ScenarioSpec(seed=1, num_frames=10, frame=FRAME,
                            actors=(walking_actor(class_id=5),))
        with pytest.raises(ValueError, match="class id"):
            generate(spec, num_classes=3)

    def test_stride_two_stream_on_lattice(self):
        spec = ScenarioSpec(seed=1, num_frames=11, frame=FRAME,
                            actors=(walking_actor(),), delta=2)
        _, dets = generate(spec, num_classes=1)
        assert [d.t for d in records_of(dets)] == [1, 3, 5, 7, 9]
        assert all(d.delta == 2 for d in records_of(dets))


class TestLaneDataset:
    def test_shapes(self):
        manifest, streams = lane_dataset(seed=3, num_videos=4, num_classes=2, num_actors=3)
        assert len(manifest.videos) == 4
        assert manifest.num_classes == 2
        for entry in manifest.videos.values():
            assert len(entry.tubes) == 3
        assert {v.tubes[0].class_id for v in manifest.videos.values()} == {0, 1}

    def test_actors_never_overlap(self):
        manifest, _ = lane_dataset(seed=13, num_videos=3, num_classes=1, num_actors=3)
        from tubekit.geometry import iou

        for entry in manifest.videos.values():
            for f in range(1, entry.num_frames + 1):
                boxes = [t.boxes[f] for t in entry.tubes]
                for i in range(len(boxes)):
                    for j in range(i + 1, len(boxes)):
                        assert iou(boxes[i], boxes[j]) == 0.0

    def test_zero_noise_pipeline_perfect(self):
        manifest, streams = lane_dataset(seed=23, num_videos=4, num_classes=2)
        report = evaluate_sweep(
            detections_by_video=streams,
            video_meta=manifest.video_meta(),
            gt_tubes=manifest.all_tubes(),
            num_classes=manifest.num_classes,
            horizon=PredictionHorizon(0, 5, 3),
            deltas=(0.5,),
            percentages=tuple(range(20, 100, 10)),
            link_params=LinkParams(),
        )
        for q in range(20, 100, 10):
            assert report.value("c_map", 0.5, q) == 1.0
            assert report.value("p_map", 0.5, q) == 1.0

    def test_jitter_sweep_monotone_map(self):
        maps = []
        for sigma in (0.0, 2.0, 5.0, 10.0):
            manifest, streams = lane_dataset(
                seed=31, num_videos=12, num_classes=3,
                frame=FrameSize(160, 120),
                noise=NoiseModel(center_sigma=sigma),
            )
            report = evaluate_sweep(
                detections_by_video=streams,
                video_meta=manifest.video_meta(),
                gt_tubes=manifest.all_tubes(),
                num_classes=manifest.num_classes,
                horizon=PredictionHorizon(0, 5, 3),
                deltas=(0.5,),
                percentages=(100,),
                link_params=LinkParams(),
            )
            maps.append(report.value("detection_map", 0.5, 100))
        assert maps[0] == 1.0
        assert maps[-1] < maps[0]
        assert all(a >= b for a, b in zip(maps, maps[1:]))
