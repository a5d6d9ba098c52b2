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
from typing import Mapping, Sequence

import numpy as np

from .geometry import BoundingBox, FrameSize, Segment, box_iou
from .linking import ActionTube, LinkParams, MicroTubeStream, OnlineLinker
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


def _video_overlaps(dets: Sequence[Sequence[Segment]],
                    gts: Sequence[Sequence[Segment]]) -> np.ndarray:
    """Tube IoU of every detection with every ground truth of its video.

    ``dets[v]`` and ``gts[v]`` hold the segments of video v. Returns a
    ``(V, D_max, G_max)`` array; padded slots score 0. All segments are
    scattered onto one dense frame axis, absent frames and padding as zero
    boxes (IoU 0), and one broadcast kernel scores every frame of every
    same-video pair.
    """
    d_max = max(map(len, dets), default=0)
    g_max = max(map(len, gts), default=0)
    videos, slots, segments = [], [], []  # detections in slots 0.., ground truth d_max..
    for v, (video_dets, video_gts) in enumerate(zip(dets, gts)):
        for start, group in ((0, video_dets), (d_max, video_gts)):
            videos += [v] * len(group)
            slots += range(start, start + len(group))
            segments += group
    lengths = [len(s) for s in segments]
    if not sum(lengths):
        return np.zeros((len(dets), d_max, g_max))
    frames = np.concatenate([s.frames for s in segments])
    first = frames.min()
    at = (np.repeat(videos, lengths), np.repeat(slots, lengths), frames - first)
    dense = np.zeros((len(dets), d_max + g_max, frames.max() - first + 1, 4))
    present = np.zeros(dense.shape[:3], dtype=bool)
    dense[at] = np.concatenate([s.boxes for s in segments])
    present[at] = True
    per_frame = box_iou(dense[:, :d_max, None], dense[:, None, d_max:])
    # cumsum adds frame by frame in ascending order, as the scalar sum over
    # a small-int frame set did; np.sum would add pairwise. Frames outside
    # a pair's segments add exact zeros.
    total = np.cumsum(per_frame, axis=-1)[..., -1]
    union = np.count_nonzero(present[:, :d_max, None] | present[:, None, d_max:], axis=-1)
    return np.divide(total, union, out=np.zeros_like(total), where=union > 0)


def tube_iou(a: FrameBoxes, b: FrameBoxes) -> float:
    """Mean per-frame IoU over the union of both tubes' frames.

    Frames present on only one side score 0; two empty tubes score 0.
    """
    return float(_video_overlaps([[Segment.of(a)]], [[Segment.of(b)]])[0, 0, 0])


def _class_ap(
    detections: Sequence[TubeEntry],
    gts: Mapping[str, Sequence[FrameBoxes]],
    deltas: Sequence[float],
) -> dict[float, float | None]:
    """AP of one class at several thresholds, in one pass over the pool.

    Detections are ranked by score, ties by pool order. Each one claims the
    best-IoU unclaimed ground truth of its video when that IoU reaches the
    threshold (a true positive), and is a false positive otherwise. Claims
    only compete within a video, so the rule runs for all videos and
    thresholds at once, one within-video rank at a time.
    """
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0 or not len(deltas):
        return dict.fromkeys(deltas)
    # The strict best-IoU rule never picks an overlap of 0, so a true
    # positive needs at least the smallest positive float.
    thresholds = np.maximum(np.asarray(deltas, dtype=float), np.nextafter(0.0, 1.0))
    scores = np.array([score for _, score, _ in detections], dtype=float)
    order = np.argsort(-scores, kind="stable")
    ranked: dict[str, list[int]] = {}  # global ranks of each video's detections
    for rank, i in enumerate(order.tolist()):
        video_id = detections[i][0]
        if gts.get(video_id):
            ranked.setdefault(video_id, []).append(rank)
    tp = np.zeros((len(thresholds), len(detections)), dtype=bool)
    if ranked:
        videos = list(ranked)
        overlaps = _video_overlaps(
            [[Segment.of(detections[order[r]][2]) for r in ranked[v]] for v in videos],
            [[Segment.of(g) for g in gts[v]] for v in videos])
        real = np.arange(overlaps.shape[1]) < np.array([len(ranked[v]) for v in videos])[:, None]
        ranks = np.zeros(overlaps.shape[:2], dtype=np.int64)
        ranks[real] = [r for v in videos for r in ranked[v]]
        # A detection whose best overlap misses the smallest threshold is a
        # false positive at every threshold and claims nothing: skip it.
        reach = overlaps.max(axis=2)
        live = real & (reach >= thresholds.min())
        # Until a live detection's best ground truth is also the best of an
        # earlier one of its video, nothing it could pick is claimed: these
        # detections take their best where it reaches the threshold, at once.
        best = overlaps.argmax(axis=2)
        picks = (best[..., None] == np.arange(overlaps.shape[2])) & live[..., None]
        repeats = (picks & (np.cumsum(picks, axis=1) > 1)).any(axis=2)
        first_repeat = np.where(repeats.any(axis=1), repeats.argmax(axis=1), overlaps.shape[1])
        direct = live & (np.arange(overlaps.shape[1]) < first_repeat[:, None])
        hits = direct & (reach >= thresholds[:, None, None])
        claimed = (picks & hits[..., None]).any(axis=2)
        # The rest run rank by rank, all videos and thresholds at once.
        later = live & ~direct
        n_later = later.sum(axis=1)
        slots = np.argsort(~later, axis=1, kind="stable")[:, :n_later.max()]
        steps = np.take_along_axis(overlaps, slots[..., None], axis=1)
        k, v = np.ix_(range(len(thresholds)), range(len(videos)))
        for step in range(slots.shape[1]):
            # Claimed ground truth scores 0, which the rule never picks. A
            # video out of later slots revisits the others: they add no new
            # hit, and its claims no longer matter.
            free = np.where(claimed, 0.0, steps[:, step])
            hit = free.max(axis=2) >= thresholds[:, None]
            claimed[k, v, free.argmax(axis=2)] |= hit
            hits[k, v, slots[:, step]] |= hit
        tp[:, ranks[real]] = hits[:, real]
    return dict(zip(deltas, _every_point_aps(tp, n_gt).tolist()))


def _every_point_aps(tp: np.ndarray, n_gt: int) -> np.ndarray:
    """Area under the PR curve, precision monotonized from the right, for
    each row of ranked true-positive flags ``(K, N)``.

    Adds and compares in the scalar order: ``cumsum`` adds the areas left
    to right, terms where recall does not move add exact zeros, and
    ``maximum.accumulate`` runs right to left.
    """
    cum_tp = np.cumsum(tp, axis=1)
    k = len(tp)
    recall = np.hstack((np.zeros((k, 1)), cum_tp / n_gt, np.ones((k, 1))))
    precision = np.hstack((np.zeros((k, 1)), cum_tp / np.arange(1, tp.shape[1] + 1),
                           np.zeros((k, 1))))
    precision = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    return np.cumsum(np.diff(recall, axis=1) * precision[:, 1:], axis=1)[:, -1]


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


def evaluate_sweep(
    detections_by_video: Mapping[str, MicroTubeStream],
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

    ``detections_by_video`` holds one stream per video of ``video_meta``;
    a video without one has no detections. Linking is one causal pass per
    video, snapshotted at each frontier: for percentage q the video's
    :class:`OnlineLinker` is pushed, as one chunk, the micro-tubes fully
    inside the observed prefix that it has not seen yet,
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
    gt_by_class: dict[int, dict[str, list[Segment]]] = {c: {} for c in class_ids}
    gt_classes_by_video: dict[str, set[int]] = {v: set() for v in video_meta}
    for g in gt_tubes:
        if g.video_id not in video_meta:
            raise ValueError(f"ground-truth tube references unknown video {g.video_id!r}")
        num_frames = video_meta[g.video_id][0]
        boxes = Segment.of(g.boxes)
        first, last = boxes.frames[0], boxes.frames[-1]
        if first != 1 or last != num_frames:
            raise ValueError(f"ground-truth tube of video {g.video_id!r} spans frames "
                             f"{first}..{last}, not 1..{num_frames}")
        gt_by_class[g.class_id].setdefault(g.video_id, []).append(boxes)
        gt_classes_by_video[g.video_id].add(g.class_id)
    without_gt = [v for v, classes in gt_classes_by_video.items() if not classes]
    if without_gt:
        raise ValueError(f"videos without ground-truth tubes: {sorted(without_gt)[:5]}")
    unknown = detections_by_video.keys() - video_meta.keys()
    if unknown:
        raise ValueError(f"detections for videos missing from video_meta: {sorted(unknown)[:5]}")

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

    streams = {video_id: detections_by_video.get(video_id, MicroTubeStream.EMPTY)
               for video_id in video_meta}
    linkers = {video_id: OnlineLinker(num_classes, link_params) for video_id in video_meta}
    pushed = dict.fromkeys(video_meta, 0)
    for q in percentages:
        full_tubes: dict[str, tuple[int, list[ActionTube]]] = {}
        for video_id, (num_frames, frame) in video_meta.items():
            f_obs = observed_frames(num_frames, q)
            observed = streams[video_id].observed(f_obs)
            linker = linkers[video_id]
            # Percentages ascend, so each observed stream extends the last one.
            linker.push(observed[pushed[video_id]:])
            pushed[video_id] = len(observed)
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
                pools["online_map"][c][1][video_id] = [g.between(1, f_obs) for g in tubes]
                if f_obs < num_frames:
                    pools["p_map"][c][1][video_id] = [g.between(f_obs + 1, num_frames)
                                                      for g in tubes]
                pools["c_map"][c][1][video_id] = tubes

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

    report.cells = report.sorted_cells()
    return report
