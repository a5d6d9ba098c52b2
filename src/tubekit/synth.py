"""Seeded synthetic scenarios: exact ground truth plus noisy detector output.

Actors translate along piecewise-constant velocity schedules; ground-truth
tubes follow the schedule exactly (clipped at the frame edges). Simulated
detections perturb the true micro-tubes and payload boxes under a
controllable noise model. Generation is deterministic for a fixed seed:
the random stream is consumed in a fixed order whose length does not
depend on the noise magnitudes, so sweeping a sigma re-scales the same
draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import DatasetManifest, VideoEntry
from .geometry import BoundingBox, FrameSize, clip_box
from .linking import MicroTubeDetection, PredictionPayload
from .metrics import GroundTruthTube
from .prediction import PredictionHorizon


@dataclass(frozen=True)
class ActorSpec:
    """One actor: class, starting box and a velocity schedule.

    ``velocities`` holds (start_frame, vx, vy) segments; the first segment
    must start at frame 1 and starts must strictly increase. The actor
    translates by the active segment's velocity between consecutive
    frames.
    """

    class_id: int
    initial_box: BoundingBox
    velocities: tuple[tuple[int, float, float], ...] = ((1, 0.0, 0.0),)

    def __post_init__(self) -> None:
        if self.class_id < 0:
            raise ValueError(f"class id must be >= 0, got {self.class_id}")
        if not self.velocities or self.velocities[0][0] != 1:
            raise ValueError("velocity schedule must start at frame 1")
        starts = [s for s, _, _ in self.velocities]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError(f"velocity segment starts must increase, got {starts}")

    def velocity_at(self, frame: int) -> tuple[float, float]:
        # The first segment extends backwards past frame 1, the last forwards.
        _, vx, vy = self.velocities[0]
        for start, sx, sy in self.velocities:
            if frame >= start:
                vx, vy = sx, sy
        return vx, vy

    def box_at(self, frame: int) -> BoundingBox:
        """Unclipped true box at any frame; the schedule extends past both ends."""
        box = self.initial_box
        if frame >= 1:
            for f in range(1, frame):
                vx, vy = self.velocity_at(f)
                box = box.translated(vx, vy)
        else:
            for f in range(frame, 1):
                vx, vy = self.velocity_at(f)
                box = box.translated(-vx, -vy)
        return box


@dataclass(frozen=True)
class NoiseModel:
    """Detector noise knobs; all zero means detections equal ground truth."""

    center_sigma: float = 0.0
    size_sigma: float = 0.0
    score_temperature: float = 0.0
    false_positive_rate: float = 0.0
    miss_rate: float = 0.0
    prediction_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("center_sigma", "size_sigma", "score_temperature", "prediction_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("false_positive_rate", "miss_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class ScenarioSpec:
    """One synthetic video: actors, noise, horizon, determinism seed."""

    seed: int
    num_frames: int
    frame: FrameSize
    actors: tuple[ActorSpec, ...]
    noise: NoiseModel = NoiseModel()
    horizon: PredictionHorizon = PredictionHorizon(0, 5, 3)
    delta: int = 1
    score_margin: float = 8.0

    def __post_init__(self) -> None:
        if self.num_frames < 2:
            raise ValueError(f"need at least 2 frames, got {self.num_frames}")
        if self.delta < 1 or self.delta >= self.num_frames:
            raise ValueError(f"delta must lie in 1..{self.num_frames - 1}, got {self.delta}")
        if not self.actors:
            raise ValueError("scenario needs at least one actor")
        for k, actor in enumerate(self.actors):
            first = clip_box(actor.initial_box, self.frame)
            if first != actor.initial_box:
                raise ValueError(f"actor {k} starts outside the frame")
            for f in range(1, self.num_frames + 1):
                if clip_box(actor.box_at(f), self.frame).area <= 0.0:
                    raise ValueError(f"actor {k} leaves the frame entirely at frame {f}")


def _class_scores(rng: np.random.Generator, class_id: int, num_classes: int,
                  margin: float, temperature: float) -> tuple[float, ...]:
    # Background occupies the last slot; noise is drawn even at zero
    # temperature to keep the stream consumption fixed.
    logits = np.zeros(num_classes + 1)
    logits[class_id] = margin
    logits = logits - temperature * rng.standard_normal(num_classes + 1)
    exp = np.exp(logits - np.max(logits))
    scores = exp / np.sum(exp)
    return tuple(float(s) for s in scores)


def _jitter_box(rng: np.random.Generator, box: BoundingBox, center_sigma: float,
                size_sigma: float, frame: FrameSize) -> BoundingBox:
    # Additive form so that zero sigmas reproduce the input box exactly.
    dx, dy, dw, dh = rng.standard_normal(4)
    x_shift, y_shift = center_sigma * dx, center_sigma * dy
    w_half, h_half = 0.5 * size_sigma * dw, 0.5 * size_sigma * dh
    x0 = box.x_min + x_shift - w_half
    x1 = box.x_max + x_shift + w_half
    y0 = box.y_min + y_shift - h_half
    y1 = box.y_max + y_shift + h_half
    if x1 - x0 < 1.0:
        cx = 0.5 * (x0 + x1)
        x0, x1 = cx - 0.5, cx + 0.5
    if y1 - y0 < 1.0:
        cy = 0.5 * (y0 + y1)
        y0, y1 = cy - 0.5, cy + 0.5
    return clip_box(BoundingBox(x0, y0, x1, y1), frame)


def generate(
    spec: ScenarioSpec,
    num_classes: int,
    video_id: str = "video_000",
) -> tuple[VideoEntry, list[MicroTubeDetection]]:
    """Generate one video's ground truth and simulated detection stream.

    Ground-truth tubes follow the motion schedule exactly, clipped at the
    frame edges. One detection per actor is emitted for every frame pair
    (t, t+delta) unless dropped by the miss rate; payload boxes cover the
    horizon with the schedule continued past the video ends. False
    positives are static uniform random boxes with near-uniform scores.
    """
    if any(a.class_id >= num_classes for a in spec.actors):
        raise ValueError("actor class id outside the declared class count")
    rng = np.random.default_rng(spec.seed)
    noise = spec.noise
    horizon = spec.horizon

    truth = [
        {f: clip_box(actor.box_at(f), spec.frame) for f in range(1, spec.num_frames + 1)}
        for actor in spec.actors
    ]
    tubes = tuple(
        GroundTruthTube(video_id=video_id, class_id=actor.class_id, boxes=boxes)
        for actor, boxes in zip(spec.actors, truth)
    )
    entry = VideoEntry(video_id=video_id, num_frames=spec.num_frames,
                       frame=spec.frame, tubes=tubes)

    detections: list[MicroTubeDetection] = []
    # Consecutive micro-tube sets are delta apart: t = 1, 1+delta, 1+2*delta, ...
    for t in range(1, spec.num_frames - spec.delta + 1, spec.delta):
        for actor in spec.actors:
            missed = rng.random() < noise.miss_rate
            box_a = _jitter_box(rng, actor.box_at(t), noise.center_sigma,
                                noise.size_sigma, spec.frame)
            box_b = _jitter_box(rng, actor.box_at(t + spec.delta), noise.center_sigma,
                                noise.size_sigma, spec.frame)
            past = _jitter_box(rng, actor.box_at(t - horizon.delta_p),
                               noise.prediction_sigma, 0.0, spec.frame)
            future = tuple(
                _jitter_box(rng, actor.box_at(t + k * horizon.delta_f),
                            noise.prediction_sigma, 0.0, spec.frame)
                for k in range(1, horizon.n + 1)
            )
            scores = _class_scores(rng, actor.class_id, num_classes,
                                   spec.score_margin, noise.score_temperature)
            if missed:
                continue
            payload = None
            if horizon.n > 0 or horizon.delta_p > 0:
                payload = PredictionPayload(
                    future_boxes=future,
                    past_box=past if horizon.delta_p > 0 else None,
                )
            detections.append(MicroTubeDetection(
                t=t, delta=spec.delta, box_t=box_a, box_t_plus_delta=box_b,
                class_scores=scores, predictions=payload,
            ))

        emit_fp = rng.random() < noise.false_positive_rate
        fx = rng.uniform(0.0, spec.frame.width * 0.8)
        fy = rng.uniform(0.0, spec.frame.height * 0.8)
        fw = rng.uniform(0.05, 0.25) * spec.frame.width
        fh = rng.uniform(0.05, 0.25) * spec.frame.height
        fp_logits = rng.uniform(0.0, 1.0, num_classes + 1)
        if emit_fp:
            fp_box = clip_box(BoundingBox(fx, fy, fx + fw, fy + fh), spec.frame)
            exp = np.exp(fp_logits - np.max(fp_logits))
            fp_scores = tuple(float(s) for s in exp / np.sum(exp))
            payload = None
            if horizon.n > 0 or horizon.delta_p > 0:
                payload = PredictionPayload(
                    future_boxes=(fp_box,) * horizon.n,
                    past_box=fp_box if horizon.delta_p > 0 else None,
                )
            detections.append(MicroTubeDetection(
                t=t, delta=spec.delta, box_t=fp_box, box_t_plus_delta=fp_box,
                class_scores=fp_scores, predictions=payload,
            ))
    return entry, detections


def generate_dataset(
    specs: dict[str, ScenarioSpec],
    class_names: tuple[str, ...],
) -> tuple[DatasetManifest, dict[str, list[MicroTubeDetection]]]:
    """Generate a manifest and detection streams for many scenarios."""
    videos: dict[str, VideoEntry] = {}
    streams: dict[str, list[MicroTubeDetection]] = {}
    for video_id, spec in specs.items():
        entry, dets = generate(spec, len(class_names), video_id)
        videos[video_id] = entry
        streams[video_id] = dets
    return DatasetManifest(class_names=class_names, videos=videos), streams


def lane_scenario(
    seed: int,
    num_actors: int = 3,
    num_frames: int = 40,
    frame: FrameSize = FrameSize(320, 240),
    class_id: int = 0,
    noise: NoiseModel = NoiseModel(),
    horizon: PredictionHorizon = PredictionHorizon(0, 5, 3),
    delta: int = 1,
) -> ScenarioSpec:
    """A scenario with spatially separated actors on constant velocities.

    Actors start in disjoint vertical lanes. The velocity caps bound the
    drift over the video but do not keep a box inside its lane or the
    frame: a box may end up to 0.7 of its lane margin past the lane's
    left edge (the first lane's is the frame's edge) and up to 0.4 of the
    free height above the frame. Ground truth and zero-noise detections
    are clipped at the frame edges, so the zero-noise linker is exact, but
    constant-velocity extrapolation of a clipped track is not. About a
    quarter of the actors are clipped (80-85 of 300 on 100 videos of 3
    actors and 40 frames, seeds 1-3).
    """
    if num_actors < 1:
        raise ValueError("need at least one actor")
    rng = np.random.default_rng(seed)
    lane_w = frame.width / num_actors
    actors = []
    for k in range(num_actors):
        w = lane_w * 0.45
        h = frame.height * 0.3
        margin_x = (lane_w - w) / 2.0
        x0 = k * lane_w + margin_x * rng.uniform(0.2, 0.8)
        y_margin = frame.height - h
        y0 = y_margin * rng.uniform(0.1, 0.4)
        # Cap the drift over the video at 0.9 of the lane margin in x and half
        # the free height in y, never past the bottom edge. The left and top
        # edges can still be crossed; see the docstring.
        vx_cap = (margin_x * 0.9) / num_frames
        vy_cap = (y_margin * 0.5) / num_frames
        vx = rng.uniform(-vx_cap, vx_cap)
        vy = rng.uniform(-vy_cap, min(vy_cap, (y_margin - y0) * 0.9 / num_frames))
        actors.append(ActorSpec(
            class_id=class_id,
            initial_box=BoundingBox(x0, y0, x0 + w, y0 + h),
            velocities=((1, vx, vy),),
        ))
    return ScenarioSpec(
        seed=seed + 1,
        num_frames=num_frames,
        frame=frame,
        actors=tuple(actors),
        noise=noise,
        horizon=horizon,
        delta=delta,
    )


def lane_dataset(
    seed: int,
    num_videos: int,
    num_classes: int,
    num_actors: int = 3,
    num_frames: int = 40,
    frame: FrameSize = FrameSize(320, 240),
    noise: NoiseModel = NoiseModel(),
    horizon: PredictionHorizon = PredictionHorizon(0, 5, 3),
    delta: int = 1,
) -> tuple[DatasetManifest, dict[str, list[MicroTubeDetection]]]:
    """Dataset of lane scenarios; video i carries class ``i % num_classes``."""
    specs = {
        f"video_{i:03d}": lane_scenario(
            seed=seed + 1000 * i,
            num_actors=num_actors,
            num_frames=num_frames,
            frame=frame,
            class_id=i % num_classes,
            noise=noise,
            horizon=horizon,
            delta=delta,
        )
        for i in range(num_videos)
    }
    class_names = tuple(f"class_{c:02d}" for c in range(num_classes))
    return generate_dataset(specs, class_names)
