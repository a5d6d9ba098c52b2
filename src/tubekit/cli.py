"""Command-line pipeline: synth, link, predict, eval, sweep, check-loss.

All tunables come from one JSON config document (see ``dataio``) and can
be overridden by flags; flags win. Every command is deterministic given
config plus seed and exits non-zero on any error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields

from . import dataio, synth
from .geometry import FrameSize
from .linking import LinkParams, build_tubes
from .losses import run_grad_check
from .metrics import AVG_DELTA, evaluate_sweep
from .prediction import PredictionHorizon, predict_full_tube

DEFAULT_DELTA_LIST = tuple(sorted({0.2, 0.75} | {round(0.5 + 0.05 * k, 2) for k in range(10)}))
DEFAULT_PCT_LIST = tuple(range(10, 101, 10))
SWEEP_METRICS = ("accuracy", "online_map", "p_map", "c_map")
SWEEP_DELTAS = (0.2, 0.5, 0.75, AVG_DELTA)


@dataclass
class RunConfig:
    """Effective settings after merging defaults, config file and flags."""

    detections: str | None = None
    manifest: str | None = None
    out: str | None = None
    out_dir: str | None = None
    seed: int = 0
    nms: float = 0.45
    link_lambda: float = 1.0
    iou_gate: float = 0.1
    score_threshold: float = 0.01
    patience: int = 1
    delta: int = 1
    horizon: tuple[int, int, int] = (0, 5, 3)
    delta_list: tuple[float, ...] = DEFAULT_DELTA_LIST
    pct_list: tuple[int, ...] = DEFAULT_PCT_LIST
    observed_pct: int = 100
    aggregate: str = "latest"
    videos: int = 10
    actors: int = 3
    classes: int = 3
    frames: int = 40
    width: int = 320
    height: int = 240
    center_sigma: float = 0.0
    size_sigma: float = 0.0
    score_temperature: float = 0.0
    fp_rate: float = 0.0
    miss_rate: float = 0.0
    prediction_sigma: float = 0.0
    trials: int = 200
    epsilon: float = 1e-6
    tolerance: float = 1e-4
    tag: str | None = None

    def link_params(self) -> LinkParams:
        return LinkParams(
            nms_threshold=self.nms,
            link_lambda=self.link_lambda,
            iou_gate=self.iou_gate,
            score_threshold=self.score_threshold,
            patience=self.patience,
        )

    def prediction_horizon(self) -> PredictionHorizon:
        return PredictionHorizon(*self.horizon)


def _parse_horizon(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"horizon must be 'delta_p,delta_f,n', got {text!r}"
        )
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubekit",
        description="Action-tube linking, future-tube completion and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config document; flags override its keys")
        p.add_argument("--seed", type=int, help="random seed")

    def link_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--nms", type=float, help="NMS suppression threshold")
        p.add_argument("--link-lambda", dest="link_lambda", type=float,
                       help="weight of IoU in the link score")
        p.add_argument("--iou-gate", dest="iou_gate", type=float,
                       help="minimum tail IoU for a link")
        p.add_argument("--score-threshold", dest="score_threshold", type=float,
                       help="drop micro-tubes scoring below this before NMS")
        p.add_argument("--patience", type=int, help="missed steps before a tube closes (1 or 2)")

    def io_flags(p: argparse.ArgumentParser, out_help: str) -> None:
        p.add_argument("--detections", help="detection stream (JSON lines)")
        p.add_argument("--manifest", help="dataset manifest (JSON)")
        p.add_argument("--out", help=out_help)

    p = sub.add_parser("synth", help="generate a synthetic dataset and detections")
    common(p)
    p.add_argument("--out-dir", dest="out_dir", help="directory for manifest and detections")
    p.add_argument("--videos", type=int, help="number of videos")
    p.add_argument("--actors", type=int, help="actors per video")
    p.add_argument("--classes", type=int, help="number of real classes")
    p.add_argument("--frames", type=int, help="frames per video")
    p.add_argument("--width", type=int, help="frame width")
    p.add_argument("--height", type=int, help="frame height")
    p.add_argument("--delta", type=int, help="micro-tube frame gap")
    p.add_argument("--horizon", type=_parse_horizon, help="delta_p,delta_f,n")
    p.add_argument("--center-sigma", dest="center_sigma", type=float, help="center jitter in px")
    p.add_argument("--size-sigma", dest="size_sigma", type=float, help="size jitter in px")
    p.add_argument("--score-temperature", dest="score_temperature", type=float,
                   help="class-score confusability")
    p.add_argument("--fp-rate", dest="fp_rate", type=float, help="false positives per frame pair")
    p.add_argument("--miss-rate", dest="miss_rate", type=float, help="detection miss rate")
    p.add_argument("--prediction-sigma", dest="prediction_sigma", type=float,
                   help="payload box jitter in px")

    p = sub.add_parser("link", help="build detected action tubes")
    common(p)
    io_flags(p, "output tubes document (JSON)")
    link_flags(p)
    p.add_argument("--observed-pct", dest="observed_pct", type=int,
                   help="observe only this percent of each video (default 100)")

    p = sub.add_parser("predict", help="build tubes and complete them to the video end")
    common(p)
    io_flags(p, "output tubes document (JSON)")
    link_flags(p)
    p.add_argument("--horizon", type=_parse_horizon, help="delta_p,delta_f,n")
    p.add_argument("--observed-pct", dest="observed_pct", type=int,
                   help="observe this percent of each video (default 100)")
    p.add_argument("--aggregate", choices=("latest", "mean"),
                   help="conflict rule for overlapping payload predictions")

    p = sub.add_parser("eval", help="evaluate over configured thresholds and percentages")
    common(p)
    io_flags(p, "output report (CSV)")
    link_flags(p)
    p.add_argument("--horizon", type=_parse_horizon, help="delta_p,delta_f,n")
    p.add_argument("--delta-list", dest="delta_list", type=_parse_float_list,
                   help="comma-separated detection thresholds")
    p.add_argument("--pct-list", dest="pct_list", type=_parse_int_list,
                   help="comma-separated observation percentages")
    p.add_argument("--aggregate", choices=("latest", "mean"))
    p.add_argument("--tag", help="optional run tag appended as a CSV column")

    p = sub.add_parser("sweep", help="canonical observation-percentage sweep table")
    common(p)
    io_flags(p, "output sweep table (CSV)")
    link_flags(p)
    p.add_argument("--horizon", type=_parse_horizon, help="delta_p,delta_f,n")
    p.add_argument("--aggregate", choices=("latest", "mean"))
    p.add_argument("--tag", help="optional run tag appended as a CSV column")

    p = sub.add_parser("check-loss", help="gradient-check the loss functions")
    common(p)
    p.add_argument("--trials", type=int, help="number of random check points")
    p.add_argument("--epsilon", type=float, help="finite-difference step")
    p.add_argument("--tolerance", type=float, help="maximum allowed relative error")

    return parser


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config-file keys, then explicit flags."""
    cfg = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    if getattr(args, "config", None):
        for key, value in dataio.read_config(args.config).items():
            if key == "horizon":
                value = tuple(int(v) for v in value)
            elif key == "delta_list":
                value = tuple(float(v) for v in value)
            elif key == "pct_list":
                value = tuple(int(v) for v in value)
            setattr(cfg, key, value)
    for key, value in vars(args).items():
        if key in known and value is not None:
            setattr(cfg, key, value)
    return cfg


def _require(cfg: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise ValueError(f"missing required settings: {', '.join(missing)}")


def _load_inputs(cfg: RunConfig):
    manifest = dataio.read_manifest(cfg.manifest)
    streams = dataio.read_detections(cfg.detections)
    dataio.detections_to_streams(streams, manifest, cfg.detections)
    return manifest, streams


def _linked_tubes(cfg: RunConfig, manifest, streams, observed_pct: int):
    from .metrics import observed_frames

    out = {}
    for video_id, entry in manifest.videos.items():
        f_obs = observed_frames(entry.num_frames, observed_pct)
        stream = [d for d in streams.get(video_id, []) if d.t + d.delta <= f_obs]
        out[video_id] = (f_obs, build_tubes(stream, manifest.num_classes, cfg.link_params()))
    return out


def cmd_synth(cfg: RunConfig) -> int:
    import os

    _require(cfg, "out_dir")
    manifest, streams = synth.lane_dataset(
        seed=cfg.seed,
        num_videos=cfg.videos,
        num_classes=cfg.classes,
        num_actors=cfg.actors,
        num_frames=cfg.frames,
        frame=FrameSize(cfg.width, cfg.height),
        noise=synth.NoiseModel(
            center_sigma=cfg.center_sigma,
            size_sigma=cfg.size_sigma,
            score_temperature=cfg.score_temperature,
            false_positive_rate=cfg.fp_rate,
            miss_rate=cfg.miss_rate,
            prediction_sigma=cfg.prediction_sigma,
        ),
        horizon=cfg.prediction_horizon(),
        delta=cfg.delta,
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest_path = os.path.join(cfg.out_dir, "manifest.json")
    detections_path = os.path.join(cfg.out_dir, "detections.jsonl")
    dataio.write_manifest(manifest, manifest_path)
    dataio.write_detections(streams, cfg.prediction_horizon(), detections_path)
    n_det = sum(len(v) for v in streams.values())
    print(f"wrote {manifest_path} ({len(manifest.videos)} videos) and "
          f"{detections_path} ({n_det} detections)")
    return 0


def cmd_link(cfg: RunConfig) -> int:
    _require(cfg, "detections", "manifest", "out")
    manifest, streams = _load_inputs(cfg)
    linked = _linked_tubes(cfg, manifest, streams, cfg.observed_pct)
    tubes_by_video = {v: tubes for v, (_, tubes) in linked.items()}
    dataio.write_tubes(tubes_by_video, cfg.out)
    n = sum(len(t) for t in tubes_by_video.values())
    print(f"wrote {cfg.out} ({n} tubes over {len(tubes_by_video)} videos)")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    _require(cfg, "detections", "manifest", "out")
    manifest, streams = _load_inputs(cfg)
    linked = _linked_tubes(cfg, manifest, streams, cfg.observed_pct)
    horizon = cfg.prediction_horizon()
    tubes_by_video = {}
    for video_id, (f_obs, tubes) in linked.items():
        entry = manifest.videos[video_id]
        tubes_by_video[video_id] = [
            predict_full_tube(t, f_obs, entry.num_frames, horizon, entry.frame, cfg.aggregate)
            for t in tubes
        ]
    dataio.write_tubes(tubes_by_video, cfg.out)
    n = sum(len(t) for t in tubes_by_video.values())
    print(f"wrote {cfg.out} ({n} completed tubes at {cfg.observed_pct}% observation)")
    return 0


def _run_eval(cfg: RunConfig, deltas, percentages):
    manifest, streams = _load_inputs(cfg)
    return evaluate_sweep(
        detections_by_video=streams,
        video_meta=manifest.video_meta(),
        gt_tubes=manifest.all_tubes(),
        num_classes=manifest.num_classes,
        horizon=cfg.prediction_horizon(),
        deltas=deltas,
        percentages=percentages,
        link_params=cfg.link_params(),
        aggregate=cfg.aggregate,
    )


def cmd_eval(cfg: RunConfig) -> int:
    _require(cfg, "detections", "manifest", "out")
    report = _run_eval(cfg, cfg.delta_list, cfg.pct_list)
    dataio.write_report(report, cfg.out, cfg.tag)
    print(f"wrote {cfg.out} ({len(report.cells)} cells)")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    """Emit the canonical sweep table: 4 metric kinds, figure thresholds,
    percentages 10 to 100."""
    _require(cfg, "detections", "manifest", "out")
    deltas = sorted(set(DEFAULT_DELTA_LIST) | {0.2, 0.5, 0.75})
    report = _run_eval(cfg, deltas, DEFAULT_PCT_LIST)
    table = report.select(metrics=SWEEP_METRICS, deltas=SWEEP_DELTAS)
    dataio.write_report(table, cfg.out, cfg.tag)
    print(f"wrote {cfg.out} ({len(table.cells)} cells)")
    return 0


def cmd_check_loss(cfg: RunConfig) -> int:
    report = run_grad_check(seed=cfg.seed, trials=cfg.trials, epsilon=cfg.epsilon)
    print(f"smooth L1 max relative gradient error:      {report.smooth_l1_error:.3e}")
    print(f"cross-entropy max relative gradient error:  {report.cross_entropy_error:.3e}")
    print(f"trials: {report.trials}, epsilon: {report.epsilon:g}, "
          f"tolerance: {cfg.tolerance:g}")
    if report.passed(cfg.tolerance):
        print("gradient check passed")
        return 0
    print("gradient check FAILED", file=sys.stderr)
    return 1


COMMANDS = {
    "synth": cmd_synth,
    "link": cmd_link,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "check-loss": cmd_check_loss,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args)
        return COMMANDS[args.command](cfg)
    except (dataio.DataFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
