"""Evaluation protocol: tube IoU, AP/mAP, and observation-percentage sweeps.

Spatio-temporal tube IoU is the mean per-frame box IoU over the union of
the two tubes' frame sets, with frames absent from either side scoring 0.
Average precision uses every-point (area-exact) PR interpolation, the
greedy TP rule claims the best-IoU unclaimed ground truth of the same
video, and classes without ground truth are excluded from means.

The sweep evaluates, at each observed percentage q of every video:
label accuracy, online mAP of the detected segments, prediction mAP
(p-mAP) of the future segments, and completion mAP (c-mAP) of the full
detected-plus-predicted tubes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Mapping, Sequence

from .geometry import BoundingBox, FrameSize, iou
from .linking import ActionTube, LinkParams, MicroTubeDetection, OnlineLinker
from .prediction import PredictionHorizon, early_label, predict_full_tube

AVG_DELTA = "avg"
AVG_MAP_GRID = tuple(round(0.5 + 0.05 * k, 2) for k in range(10))
METRIC_ORDER = ("accuracy", "detection_map", "online_map", "p_map", "c_map")

FrameBoxes = Mapping[int, BoundingBox]
# One scored tube detection ready for AP: (video id, score, frame-indexed boxes).
TubeEntry = tuple[str, float, FrameBoxes]


@dataclass(frozen=True)
class GroundTruthTube:
    """A ground-truth tube spanning every frame of its (trimmed) video."""

    video_id: str
    class_id: int
    boxes: Mapping[int, BoundingBox]

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("ground-truth tube without boxes")
        frames = sorted(self.boxes)
        if frames != list(range(frames[0], frames[-1] + 1)):
            raise ValueError("ground-truth tube frames must be contiguous")


def tube_iou(a: FrameBoxes, b: FrameBoxes) -> float:
    """Mean per-frame IoU over the union of both tubes' frames.

    Frames present on only one side score 0; two empty tubes score 0.
    """
    frames = set(a) | set(b)
    if not frames:
        return 0.0
    total = sum(iou(a[f], b[f]) for f in frames if f in a and f in b)
    return total / len(frames)


def _every_point_ap(tp: Sequence[int], fp: Sequence[int], n_gt: int) -> float:
    """Area under the PR curve with precision monotonized from the right."""
    mrec = [0.0]
    mpre = [0.0]
    cum_tp = 0
    cum_fp = 0
    for t, f in zip(tp, fp):
        cum_tp += t
        cum_fp += f
        mrec.append(cum_tp / n_gt)
        mpre.append(cum_tp / (cum_tp + cum_fp))
    mrec.append(1.0)
    mpre.append(0.0)
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    ap = 0.0
    for i in range(1, len(mrec)):
        if mrec[i] != mrec[i - 1]:
            ap += (mrec[i] - mrec[i - 1]) * mpre[i]
    return ap


def _class_ap(
    detections: Sequence[TubeEntry],
    gts: Mapping[str, Sequence[FrameBoxes]],
    deltas: Sequence[float],
) -> dict[float, float | None]:
    """AP of one class at several thresholds, sharing one IoU matrix."""
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0:
        return {d: None for d in deltas}

    order = sorted(range(len(detections)), key=lambda i: (-detections[i][1], i))
    overlaps = []
    for i in order:
        video_id, _, boxes = detections[i]
        overlaps.append([tube_iou(boxes, g) for g in gts.get(video_id, ())])

    out = {}
    for delta in deltas:
        claimed: dict[str, set[int]] = {}
        tp = []
        fp = []
        for rank, i in enumerate(order):
            video_id = detections[i][0]
            used = claimed.setdefault(video_id, set())
            row = overlaps[rank]
            best_j = -1
            best_ov = 0.0
            for j, ov in enumerate(row):
                if j not in used and ov > best_ov:
                    best_ov = ov
                    best_j = j
            if best_j >= 0 and best_ov >= delta:
                used.add(best_j)
                tp.append(1)
                fp.append(0)
            else:
                tp.append(0)
                fp.append(1)
        out[delta] = _every_point_ap(tp, fp, n_gt)
    return out


def average_precision(
    detections: Sequence[TubeEntry],
    gts: Mapping[str, Sequence[FrameBoxes]],
    delta: float,
) -> float | None:
    """Average precision of one class of scored tube detections.

    Detections are ranked by descending score (ties keep input order). A
    detection is a true positive if its tube IoU with the best still
    unclaimed same-video ground truth reaches ``delta``; each ground truth
    is claimed at most once. Returns None when there is no ground truth
    (the class is then excluded from any mean).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"detection threshold must lie in (0, 1), got {delta}")
    return _class_ap(detections, gts, [delta])[delta]


def map_at(class_aps: Mapping[int, float | None]) -> float | None:
    """Mean AP over classes that have ground truth (AP not None)."""
    values = [v for v in class_aps.values() if v is not None]
    if not values:
        return None
    return sum(values) / len(values)


def avg_map(aps_by_delta: Mapping[float, Mapping[int, float | None]]) -> float | None:
    """Mean of mAP over the threshold grid 0.50, 0.55, ..., 0.95."""
    missing = [d for d in AVG_MAP_GRID if d not in aps_by_delta]
    if missing:
        raise ValueError(f"avg-mAP needs thresholds {missing} which were not computed")
    maps = [map_at(aps_by_delta[d]) for d in AVG_MAP_GRID]
    values = [m for m in maps if m is not None]
    if not values:
        return None
    return sum(values) / len(values)


@dataclass(frozen=True)
class EvalCell:
    """One report value: a metric at a threshold and observed percentage.

    ``delta`` is a float threshold, the string ``"avg"`` for the averaged
    0.5:0.05:0.95 grid, or None for threshold-free metrics (accuracy).
    ``per_class`` holds the per-class AP breakdown where applicable.
    """

    metric: str
    delta: float | str | None
    observed_pct: int
    value: float
    per_class: tuple[tuple[int, float], ...] = ()

    def class_ap(self, class_id: int) -> float:
        for c, v in self.per_class:
            if c == class_id:
                return v
        raise KeyError(class_id)


@dataclass
class EvalReport:
    """All sweep results, addressable by (metric, delta, observed pct)."""

    class_ids: tuple[int, ...]
    cells: list[EvalCell] = field(default_factory=list)

    def find(self, metric: str, delta: float | str | None, observed_pct: int) -> EvalCell | None:
        for cell in self.cells:
            if cell.metric == metric and cell.delta == delta and cell.observed_pct == observed_pct:
                return cell
        return None

    def value(self, metric: str, delta: float | str | None, observed_pct: int) -> float:
        cell = self.find(metric, delta, observed_pct)
        if cell is None:
            raise KeyError((metric, delta, observed_pct))
        return cell.value

    def select(
        self,
        metrics: Sequence[str] | None = None,
        deltas: Sequence[float | str | None] | None = None,
    ) -> "EvalReport":
        kept = [
            c for c in self.cells
            if (metrics is None or c.metric in metrics)
            and (deltas is None or c.delta is None or c.delta in deltas)
        ]
        return EvalReport(class_ids=self.class_ids, cells=kept)

    @staticmethod
    def _delta_key(delta: float | str | None) -> tuple[int, float]:
        if delta is None:
            return (0, 0.0)
        if delta == AVG_DELTA:
            return (2, 0.0)
        return (1, float(delta))

    def sorted_cells(self) -> list[EvalCell]:
        return sorted(
            self.cells,
            key=lambda c: (METRIC_ORDER.index(c.metric), self._delta_key(c.delta), c.observed_pct),
        )


def observed_frames(num_frames: int, percentage: int) -> int:
    """Last observed frame index when ``percentage`` percent is revealed."""
    if not 0 < percentage <= 100:
        raise ValueError(f"observation percentage must lie in 1..100, got {percentage}")
    return math.ceil(num_frames * percentage / 100)


def _truncate(boxes: FrameBoxes, first: int, last: int) -> dict[int, BoundingBox]:
    return {f: b for f, b in boxes.items() if first <= f <= last}


def evaluate_sweep(
    detections_by_video: Mapping[str, Sequence[MicroTubeDetection]],
    video_meta: Mapping[str, tuple[int, FrameSize]],
    gt_tubes: Sequence[GroundTruthTube],
    num_classes: int,
    horizon: PredictionHorizon,
    deltas: Sequence[float],
    percentages: Sequence[int],
    link_params: LinkParams = LinkParams(),
    aggregate: str = "latest",
) -> EvalReport:
    """Run the full protocol over a grid of observation percentages.

    Linking is one causal pass per video, snapshotted at each frontier:
    for percentage q the video's :class:`OnlineLinker` is pushed the
    micro-tubes fully inside the observed prefix that it has not seen yet,
    and its snapshot is completed to the video end. Label accuracy, online
    mAP (against ground truth truncated to the observed prefix), p-mAP
    (future segments only) and c-mAP (full tubes) are then aggregated per
    class and averaged. Detection mAP rows are emitted when 100 percent
    observation is requested; there they equal the online and c-mAP rows,
    whose APs are computed once. Every ground-truth tube must span frames
    1..T of its video. The "avg" threshold rows appear whenever the
    0.5:0.05:0.95 grid is fully contained in ``deltas``. p-mAP cells are
    absent when no video has unobserved frames left (notably at q = 100).
    """
    percentages = sorted(set(percentages))
    for q in percentages:
        if not 0 < q <= 100:
            raise ValueError(f"observation percentage must lie in 1..100, got {q}")
    deltas = sorted(set(float(d) for d in deltas))
    for d in deltas:
        if not 0.0 < d < 1.0:
            raise ValueError(f"detection threshold must lie in (0, 1), got {d}")
    with_avg = all(d in deltas for d in AVG_MAP_GRID)

    class_ids = tuple(sorted({g.class_id for g in gt_tubes}))
    gt_by_class: dict[int, dict[str, list[FrameBoxes]]] = {c: {} for c in class_ids}
    gt_classes_by_video: dict[str, set[int]] = {v: set() for v in video_meta}
    for g in gt_tubes:
        if g.video_id not in video_meta:
            raise ValueError(f"ground-truth tube references unknown video {g.video_id!r}")
        num_frames = video_meta[g.video_id][0]
        if min(g.boxes) != 1 or max(g.boxes) != num_frames:
            raise ValueError(f"ground-truth tube of video {g.video_id!r} spans frames "
                             f"{min(g.boxes)}..{max(g.boxes)}, not 1..{num_frames}")
        gt_by_class[g.class_id].setdefault(g.video_id, []).append(g.boxes)
        gt_classes_by_video[g.video_id].add(g.class_id)
    without_gt = [v for v, classes in gt_classes_by_video.items() if not classes]
    if without_gt:
        raise ValueError(f"videos without ground-truth tubes: {sorted(without_gt)[:5]}")

    report = EvalReport(class_ids=class_ids)

    def class_aps(pools: Mapping[int, tuple[list[TubeEntry], dict]]) -> dict[float, dict]:
        """Per-threshold, per-class APs of one pool kind (None: no ground truth)."""
        aps_by_delta: dict[float, dict[int, float | None]] = {d: {} for d in deltas}
        for c in class_ids:
            dets, gts = pools[c]
            for d, ap in _class_ap(dets, gts, deltas).items():
                aps_by_delta[d][c] = ap
        return aps_by_delta

    def add_map_cells(metric: str, q: int, aps_by_delta: Mapping[float, dict]) -> None:
        if all(ap is None for aps in aps_by_delta.values() for ap in aps.values()):
            return
        for d in deltas:
            mean = map_at(aps_by_delta[d])
            per_class = tuple(
                (c, aps_by_delta[d][c]) for c in class_ids if aps_by_delta[d][c] is not None
            )
            report.cells.append(EvalCell(metric, d, q, mean, per_class))
        if with_avg:
            mean = avg_map(aps_by_delta)
            per_class = []
            for c in class_ids:
                vals = [aps_by_delta[d][c] for d in AVG_MAP_GRID]
                if all(v is not None for v in vals):
                    per_class.append((c, sum(vals) / len(vals)))
            report.cells.append(EvalCell(metric, AVG_DELTA, q, mean, tuple(per_class)))

    linkers = {video_id: OnlineLinker(num_classes, link_params) for video_id in video_meta}
    pushed = dict.fromkeys(video_meta, 0)
    for q in percentages:
        full_tubes: dict[str, tuple[int, list[ActionTube]]] = {}
        for video_id, (num_frames, frame) in video_meta.items():
            f_obs = observed_frames(num_frames, q)
            stream = [
                d for d in detections_by_video.get(video_id, [])
                if d.t + d.delta <= f_obs
            ]
            linker = linkers[video_id]
            # Percentages ascend, so each observed stream extends the last one.
            for _, step in groupby(stream[pushed[video_id]:], key=lambda d: d.t):
                linker.push(list(step))
            pushed[video_id] = len(stream)
            completed = [
                predict_full_tube(t, f_obs, num_frames, horizon, frame, aggregate)
                for t in linker.snapshot()
            ]
            full_tubes[video_id] = (f_obs, completed)

        correct = 0
        for video_id, (f_obs, tubes) in full_tubes.items():
            if tubes and early_label(tubes) in gt_classes_by_video[video_id]:
                correct += 1
        report.cells.append(
            EvalCell("accuracy", None, q, correct / len(video_meta) if video_meta else 0.0)
        )

        pools = {
            kind: {c: ([], {}) for c in class_ids}
            for kind in ("online_map", "p_map", "c_map")
        }
        for video_id, (f_obs, tubes) in full_tubes.items():
            for tube in tubes:
                if tube.class_id not in pools["online_map"]:
                    continue
                entry_base = (video_id, tube.tube_score)
                pools["online_map"][tube.class_id][0].append((*entry_base, tube.detected))
                if tube.predicted:
                    pools["p_map"][tube.class_id][0].append((*entry_base, tube.predicted))
                pools["c_map"][tube.class_id][0].append((*entry_base, tube.full_segment()))
        for c in class_ids:
            for video_id, tubes in gt_by_class[c].items():
                f_obs = full_tubes[video_id][0]
                num_frames = video_meta[video_id][0]
                online = [_truncate(g, 1, f_obs) for g in tubes]
                future = [m for m in (_truncate(g, f_obs + 1, num_frames) for g in tubes) if m]
                pools["online_map"][c][1][video_id] = online
                if future:
                    pools["p_map"][c][1][video_id] = future
                pools["c_map"][c][1][video_id] = [dict(g) for g in tubes]

        online_aps = class_aps(pools["online_map"])
        add_map_cells("online_map", q, online_aps)
        add_map_cells("p_map", q, class_aps(pools["p_map"]))
        if q == 100:
            # Fully observed, tubes have no predicted frames and ground truth
            # spans 1..T, so the online and c-mAP pools both hold the detected
            # segments against whole ground-truth tubes: detection mAP.
            add_map_cells("c_map", q, online_aps)
            add_map_cells("detection_map", q, online_aps)
        else:
            add_map_cells("c_map", q, class_aps(pools["c_map"]))

    report.cells.sort(
        key=lambda c: (METRIC_ORDER.index(c.metric), EvalReport._delta_key(c.delta), c.observed_pct)
    )
    return report
