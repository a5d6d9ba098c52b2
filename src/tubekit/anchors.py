"""Prior (anchor) box generation and prior-to-ground-truth matching.

Priors are laid out on feature-map grids in the pixel coordinates of a
declared frame, so matching and box geometry share one coordinate system.
Matching assigns ground-truth micro-tubes to priors in two passes: a
forced bipartite pass that guarantees every ground truth at least one
prior, then a threshold pass that adds every remaining prior whose best
overlap reaches the match threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import DEFAULT_VARIANCES, BoundingBox, FrameSize, pairwise_iou

DEFAULT_MATCH_THRESHOLD = 0.5


@dataclass(frozen=True)
class PriorBoxSpec:
    """Layout of a prior-box pyramid.

    ``grids`` lists feature-map sizes as (rows, cols); ``scales`` gives one
    scale per grid as a fraction of the image side; every grid cell emits
    one box per aspect ratio.
    """

    grids: tuple[tuple[int, int], ...]
    scales: tuple[float, ...]
    aspect_ratios: tuple[float, ...]
    frame: FrameSize

    def __post_init__(self) -> None:
        if not self.grids:
            raise ValueError("at least one grid required")
        if len(self.grids) != len(self.scales):
            raise ValueError(f"{len(self.grids)} grids but {len(self.scales)} scales")
        if any(r < 1 or c < 1 for r, c in self.grids):
            raise ValueError(f"grid sizes must be >= 1, got {self.grids}")
        if any(not 0.0 < s <= 1.0 for s in self.scales):
            raise ValueError(f"scales must lie in (0, 1], got {self.scales}")
        if not self.aspect_ratios or any(a <= 0.0 for a in self.aspect_ratios):
            raise ValueError(f"aspect ratios must be positive, got {self.aspect_ratios}")


@dataclass(frozen=True)
class PriorBoxSet:
    """The generated prior boxes plus the offset-encoding variances.

    ``array`` holds the same boxes as a read-only (P, 4) corner array,
    built once so that matching does not rebuild it per sample.
    """

    boxes: tuple[BoundingBox, ...]
    variances: tuple[float, float] = DEFAULT_VARIANCES
    array: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("empty prior set")
        array = np.array([b.as_tuple() for b in self.boxes], dtype=float)
        array.flags.writeable = False
        if np.any((array[:, 2] - array[:, 0]) * (array[:, 3] - array[:, 1]) <= 0.0):
            raise ValueError("priors must have positive area")
        object.__setattr__(self, "array", array)

    def __len__(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class MicroTubeTarget:
    """A ground-truth micro-tube: its per-frame boxes and its class."""

    boxes: tuple[BoundingBox, ...]
    class_id: int

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("empty micro-tube")
        if self.class_id < 0:
            raise ValueError(f"class id must be >= 0, got {self.class_id}")


@dataclass(frozen=True)
class MatchAssignment:
    """Result of matching ground-truth micro-tubes to priors.

    Per prior: the matched ground-truth index (-1 if unmatched), its class
    and the mean IoU of the match. Per ground truth: the prior claimed in
    the forced bipartite pass.
    """

    gt_index: tuple[int, ...]
    gt_class: tuple[int, ...]
    match_iou: tuple[float, ...]
    forced_prior: tuple[int, ...]

    @property
    def n_matched(self) -> int:
        return sum(1 for g in self.gt_index if g >= 0)

    def matched_priors(self) -> list[int]:
        return [i for i, g in enumerate(self.gt_index) if g >= 0]


def generate_priors(
    spec: PriorBoxSpec,
    variances: tuple[float, float] = DEFAULT_VARIANCES,
) -> PriorBoxSet:
    """Deterministically lay out prior boxes for a pyramid spec.

    For each grid cell one box per aspect ratio is centered on the cell;
    a box at scale s and ratio r has area s^2 * W * H and width/height
    ratio exactly r. Ordering is grid-major, row-major within a grid,
    ratio-minor. Boxes may extend past the frame edge.
    """
    width, height = float(spec.frame.width), float(spec.frame.height)
    side = math.sqrt(width * height)
    boxes = []
    for (rows, cols), scale in zip(spec.grids, spec.scales):
        for row in range(rows):
            cy = (row + 0.5) * height / rows
            for col in range(cols):
                cx = (col + 0.5) * width / cols
                for ratio in spec.aspect_ratios:
                    w = scale * side * math.sqrt(ratio)
                    h = scale * side / math.sqrt(ratio)
                    boxes.append(BoundingBox.from_center_size(cx, cy, w, h))
    return PriorBoxSet(tuple(boxes), variances)


def default_prior_spec(frame: FrameSize) -> PriorBoxSpec:
    """A small SSD-style pyramid; any other spec is equally acceptable."""
    return PriorBoxSpec(
        grids=((38, 38), (19, 19), (10, 10), (5, 5), (3, 3), (1, 1)),
        scales=(0.1, 0.2, 0.375, 0.55, 0.725, 0.9),
        aspect_ratios=(1.0, 2.0, 0.5),
        frame=frame,
    )


def match_priors(
    priors: PriorBoxSet,
    gts: Sequence[MicroTubeTarget],
    threshold: float = DEFAULT_MATCH_THRESHOLD,
) -> MatchAssignment:
    """Match ground-truth micro-tubes to prior boxes.

    The overlap of a prior and a ground truth is the mean of the prior's
    IoU with each ground-truth box, computed for all pairs at once with
    :func:`~tubekit.geometry.pairwise_iou`. Pass 1 (forced
    bipartite): one round per ground truth takes the highest-overlap pair
    among still-free priors and still-unmatched ground truths, so every
    ground truth ends up matched even when all overlaps are below the
    threshold. Pass 2: every remaining prior whose best ground truth
    reaches ``threshold`` is matched to that ground truth. Ties break on
    lowest prior index, then lowest ground-truth index.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    n_priors = len(priors.boxes)
    n_gts = len(gts)
    if n_gts > n_priors:
        raise ValueError(f"insufficient priors: {n_priors} priors for {n_gts} ground truths")

    if n_gts == 0:
        empty = (-1,) * n_priors
        return MatchAssignment(empty, empty, (0.0,) * n_priors, ())

    # overlap[i, j] == sum(iou(priors.boxes[i], g) for g in gts[j].boxes) / K:
    # the box columns are summed in order, then divided by the box count K.
    overlap = np.empty((n_priors, n_gts))
    for j, gt in enumerate(gts):
        ious = pairwise_iou(priors.array, np.array([b.as_tuple() for b in gt.boxes]))
        total = ious[:, 0].copy()
        for k in range(1, ious.shape[1]):
            total += ious[:, k]
        overlap[:, j] = total / ious.shape[1]

    gt_index = np.full(n_priors, -1)
    match_iou = np.zeros(n_priors)
    forced_prior = [-1] * n_gts
    # Each round takes the best pair among free priors and unmatched ground
    # truths; argmax returns the row-major first maximum, so ties go to the
    # lowest prior, then the lowest ground truth. Overlaps are >= 0, so -1
    # marks taken rows and columns.
    free = overlap.copy()
    for _ in range(n_gts):
        i, j = divmod(int(np.argmax(free)), n_gts)
        forced_prior[j] = i
        gt_index[i] = j
        match_iou[i] = overlap[i, j]
        free[i, :] = -1.0
        free[:, j] = -1.0

    best = np.argmax(overlap, axis=1)
    best_iou = overlap[np.arange(n_priors), best]
    extra = (gt_index < 0) & (best_iou >= threshold)
    gt_index[extra] = best[extra]
    match_iou[extra] = best_iou[extra]
    classes = np.array([gt.class_id for gt in gts])
    gt_class = np.where(gt_index >= 0, classes[gt_index], -1)

    return MatchAssignment(
        tuple(gt_index.tolist()), tuple(gt_class.tolist()), tuple(match_iou.tolist()),
        tuple(forced_prior),
    )
