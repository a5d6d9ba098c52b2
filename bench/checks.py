"""Correctness checks computed apart from tubekit.

Every check reads the files the CLI wrote (or the arrays the training
path returned) with its own parser and recomputes the expected answer
with its own numpy code, or tests a property the method must have. None
compares against a stored copy of an earlier output. Each check returns
a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

AVG_GRID = tuple(round(0.5 + 0.05 * k, 2) for k in range(10))
SWEEP_DELTAS = (0.2, 0.5, 0.75)
FRONTIER_METRICS = ("online_map", "p_map", "c_map")
MAX_REPORTED = 10


# -- file readers ------------------------------------------------------------

def read_manifest(path: str) -> dict:
    """Manifest as plain arrays: per video its size and (class, (T, 4) boxes) tubes."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    videos = []
    for v in obj["videos"]:
        videos.append({
            "id": v["id"],
            "frames": v["frames"],
            "width": v["width"],
            "height": v["height"],
            "tubes": [(t["class"], np.array(t["boxes"], dtype=float)) for t in v["tubes"]],
        })
    return {"classes": obj["classes"], "videos": videos}


def read_tubes(path: str) -> dict[str, list[dict]]:
    """Tubes document as per-video lists of frame and box arrays."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    out = {}
    for v in obj["videos"]:
        tubes = []
        for t in v["tubes"]:
            det = np.array(t["detected"], dtype=float).reshape(-1, 5)
            pred = np.array(t["predicted"], dtype=float).reshape(-1, 5)
            tubes.append({
                "class": t["class"],
                "score": t["score"],
                "det_frames": det[:, 0].astype(int),
                "det_boxes": det[:, 1:],
                "pred_frames": pred[:, 0].astype(int),
                "pred_boxes": pred[:, 1:],
            })
        out[v["id"]] = tubes
    return out


def read_report(path: str) -> dict[tuple[str, str, int, str], float]:
    """Report CSV keyed by (metric, delta, observed_pct, class)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0][:5] != ["metric", "delta", "observed_pct", "class", "value"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return {(r[0], r[1], int(r[2]), r[3]): float(r[4]) for r in rows[1:]}


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def observed_frames(num_frames: int, pct: int) -> int:
    return -(-num_frames * pct // 100)


# -- box algebra ---------------------------------------------------------------

def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise IoU of broadcastable (..., 4) box arrays; 0 for empty boxes."""
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    valid = (area_a > 0) & (area_b > 0) & (iw > 0) & (ih > 0)
    inter = np.where(valid, iw * ih, 0.0)
    union = np.where(valid, area_a + area_b - inter, 1.0)
    return inter / union


def tube_ious(frames: np.ndarray, boxes: np.ndarray, gts: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Tube IoU of one detection against ground truths given as (first frame, boxes).

    The per-frame IoU is averaged over the union of the two frame sets.
    """
    out = np.zeros(len(gts))
    for j, (first, gt_boxes) in enumerate(gts):
        inside = (frames >= first) & (frames < first + len(gt_boxes))
        overlap = box_iou(boxes[inside], gt_boxes[frames[inside] - first])
        union = len(frames) + len(gt_boxes) - int(inside.sum())
        out[j] = overlap.sum() / union if union else 0.0
    return out


# -- average precision --------------------------------------------------------

def every_point_ap(tp: np.ndarray, n_gt: int) -> float:
    """Area under the PR curve with precision made monotone from the right."""
    ctp = np.cumsum(tp)
    cfp = np.cumsum(1 - tp)
    rec = np.concatenate(([0.0], ctp / n_gt, [1.0]))
    prec = np.concatenate(([0.0], ctp / np.maximum(ctp + cfp, 1), [0.0]))
    prec = np.maximum.accumulate(prec[::-1])[::-1]
    step = np.nonzero(rec[1:] != rec[:-1])[0] + 1
    return float(np.sum((rec[step] - rec[step - 1]) * prec[step]))


def class_aps(dets: list[tuple[str, float, np.ndarray, np.ndarray]],
              gts: dict[str, list[tuple[int, np.ndarray]]],
              deltas) -> dict[float, float] | None:
    """AP per threshold: rank by score (ties keep pool order), greedily claim
    the best-overlapping unclaimed ground truth of the same video."""
    n_gt = sum(len(v) for v in gts.values())
    if n_gt == 0:
        return None
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    overlaps = [tube_ious(dets[i][2], dets[i][3], gts.get(dets[i][0], [])) for i in order]
    out = {}
    for delta in deltas:
        claimed = {v: np.zeros(len(g), dtype=bool) for v, g in gts.items()}
        tp = np.zeros(len(order))
        for rank, i in enumerate(order):
            row = overlaps[rank]
            if not len(row):
                continue
            free = np.where(claimed[dets[i][0]], -1.0, row)
            j = int(np.argmax(free))
            if free[j] > 0.0 and free[j] >= delta:
                claimed[dets[i][0]][j] = True
                tp[rank] = 1.0
        out[delta] = every_point_ap(tp, n_gt)
    return out


def _segment(tube: dict, kind: str) -> tuple[np.ndarray, np.ndarray]:
    if kind == "online_map":
        return tube["det_frames"], tube["det_boxes"]
    if kind == "p_map":
        return tube["pred_frames"], tube["pred_boxes"]
    return (np.concatenate((tube["det_frames"], tube["pred_frames"])),
            np.concatenate((tube["det_boxes"], tube["pred_boxes"])))


def frontier_table(completed: dict[str, list[dict]], manifest: dict, pct: int) -> dict:
    """Accuracy and online/p-/c-mAP rows at one observation percentage.

    Keys are (metric, delta, class) as in the report CSV; ``completed``
    holds the tubes of ``tubekit predict`` at ``pct``.
    """
    class_ids = sorted({c for v in manifest["videos"] for c, _ in v["tubes"]})
    table = {}
    correct = 0
    for v in manifest["videos"]:
        tubes = completed.get(v["id"], [])
        if tubes:
            best = min(tubes, key=lambda t: (-t["score"], t["class"]))
            correct += best["class"] in {c for c, _ in v["tubes"]}
    table[("accuracy", "", "mean")] = correct / len(manifest["videos"])

    deltas = sorted(set(SWEEP_DELTAS) | set(AVG_GRID))
    for kind in FRONTIER_METRICS:
        aps = {}
        for c in class_ids:
            dets, gts = [], {}
            for v in manifest["videos"]:
                f_obs = observed_frames(v["frames"], pct)
                for t in completed.get(v["id"], []):
                    if t["class"] == c and (kind != "p_map" or len(t["pred_frames"])):
                        dets.append((v["id"], t["score"], *_segment(t, kind)))
                own = [boxes for cls, boxes in v["tubes"] if cls == c]
                if not own:
                    continue
                if kind == "online_map":
                    gts[v["id"]] = [(1, b[:f_obs]) for b in own]
                elif kind == "p_map":
                    if f_obs < v["frames"]:
                        gts[v["id"]] = [(f_obs + 1, b[f_obs:]) for b in own]
                else:
                    gts[v["id"]] = [(1, b) for b in own]
            aps[c] = class_aps(dets, gts, deltas)
        present = [c for c in class_ids if aps[c] is not None]
        if not present:
            continue
        for d in SWEEP_DELTAS:
            for c in present:
                table[(kind, format(d, "g"), str(c))] = aps[c][d]
            table[(kind, format(d, "g"), "mean")] = sum(aps[c][d] for c in present) / len(present)
        maps = [sum(aps[c][d] for c in present) / len(present) for d in AVG_GRID]
        for c in present:
            table[(kind, "avg", str(c))] = sum(aps[c][d] for d in AVG_GRID) / len(AVG_GRID)
        table[(kind, "avg", "mean")] = sum(maps) / len(maps)
    return table


def check_frontier(report: dict, completed: dict, manifest: dict, pct: int,
                   tol: float = 1e-12) -> list[str]:
    """The sweep CSV at ``pct`` must equal the table recomputed from ``predict``."""
    expected = frontier_table(completed, manifest, pct)
    got = {(m, d, c): v for (m, d, q, c), v in report.items()
           if q == pct and (m == "accuracy" or m in FRONTIER_METRICS)}
    problems = []
    if set(got) != set(expected):
        problems.append(f"sweep rows at {pct}% differ: only in CSV {sorted(set(got) - set(expected))[:5]}, "
                        f"only recomputed {sorted(set(expected) - set(got))[:5]}")
    for key in sorted(set(got) & set(expected)):
        if not abs(got[key] - expected[key]) <= tol:
            problems.append(f"sweep {key} at {pct}%: CSV {got[key]!r}, recomputed {expected[key]!r}")
    return problems[:MAX_REPORTED]


# -- structure of the CLI outputs ----------------------------------------------

def check_ground_truth_motion(manifest: dict, tol: float = 1e-9) -> list[str]:
    """Lane actors move at constant velocity, clipped at the frame edges.

    Per coordinate, the frames strictly inside the frame lie on one line
    (second differences vanish there), and clipping that line to the
    frame gives the coordinate at every frame.
    """
    problems = []
    for v in manifest["videos"]:
        limits = (v["width"], v["height"], v["width"], v["height"])
        frames = np.arange(v["frames"])
        for k, (_, boxes) in enumerate(v["tubes"]):
            worst = 0.0
            for c, limit in zip(boxes.T, limits):
                inside = np.nonzero((c > 0) & (c < limit))[0]
                if len(inside) < 2:
                    at_edge = (c == 0) | (c == limit)
                    at_edge[inside] = True
                    worst = max(worst, 0.0 if at_edge.all() else np.inf)
                    continue
                first, last = inside[0], inside[-1]
                line = c[first] + (c[last] - c[first]) / (last - first) * (frames - first)
                worst = max(worst, float(np.max(np.abs(np.clip(line, 0, limit) - c))))
            if worst > tol:
                problems.append(f"{v['id']} tube {k}: {worst:.3g} px off a clipped "
                                f"constant-velocity track")
    return problems[:MAX_REPORTED]


def check_detection_count(detections_path: str, manifest: dict, delta: int = 1) -> list[str]:
    """Zero noise: one detection per actor and frame pair, nothing else."""
    expected = sum(len(v["tubes"]) * (v["frames"] - delta) for v in manifest["videos"])
    got = count_lines(detections_path)
    return [] if got == expected else [f"{got} detections, expected {expected}"]


def _inside_frame(boxes: np.ndarray, width: int, height: int) -> bool:
    return bool(np.all((boxes[:, 0] >= 0) & (boxes[:, 1] >= 0)
                       & (boxes[:, 0] <= boxes[:, 2]) & (boxes[:, 1] <= boxes[:, 3])
                       & (boxes[:, 2] <= width) & (boxes[:, 3] <= height)))


def check_tube_document(tubes: dict, manifest: dict, pct: int) -> list[str]:
    """Detected frames are contiguous within [1, f_obs]; predicted frames are
    exactly (f_obs, T]; every box lies inside the frame."""
    problems = []
    videos = {v["id"]: v for v in manifest["videos"]}
    if set(tubes) != set(videos):
        problems.append(f"tube document covers {len(tubes)} videos, manifest {len(videos)}")
    for vid, items in tubes.items():
        v = videos.get(vid)
        if v is None:
            continue
        f_obs = observed_frames(v["frames"], pct)
        for k, t in enumerate(items):
            det, pred = t["det_frames"], t["pred_frames"]
            where = f"{vid} tube {k}"
            if not len(det) or np.any(np.diff(det) != 1) or det[0] < 1 or det[-1] > f_obs:
                problems.append(f"{where}: detected frames {det.tolist()} not contiguous in [1, {f_obs}]")
            if not np.array_equal(pred, np.arange(f_obs + 1, v["frames"] + 1)):
                problems.append(f"{where}: predicted frames are not ({f_obs}, {v['frames']}]")
            for boxes in (t["det_boxes"], t["pred_boxes"]):
                if not _inside_frame(boxes, v["width"], v["height"]):
                    problems.append(f"{where}: box outside the {v['width']}x{v['height']} frame")
    return problems[:MAX_REPORTED]


def check_tubes_equal_ground_truth(tubes: dict, manifest: dict, tol: float = 1e-9) -> list[str]:
    """Zero noise, full observation: one tube per actor, equal to its ground truth."""
    problems = []
    for v in manifest["videos"]:
        items = tubes.get(v["id"], [])
        if len(items) != len(v["tubes"]):
            problems.append(f"{v['id']}: {len(items)} tubes for {len(v['tubes'])} actors")
            continue
        for t in items:
            full = np.array_equal(t["det_frames"], np.arange(1, v["frames"] + 1))
            if not full or not any(
                cls == t["class"] and np.max(np.abs(b - t["det_boxes"])) <= tol
                for cls, b in v["tubes"]
            ):
                problems.append(f"{v['id']}: a class-{t['class']} tube matches no ground truth")
    return problems[:MAX_REPORTED]


def check_perfect_cells(report: dict, pcts) -> list[str]:
    """Cells perfect information forces to 1.0: accuracy at every percentage,
    online/p-/c-mAP at 0.5 for 20..90 percent."""
    problems = []
    for q in pcts:
        if report.get(("accuracy", "", q, "mean")) != 1.0:
            problems.append(f"accuracy at {q}% is {report.get(('accuracy', '', q, 'mean'))}")
    for (m, d, q, c), value in report.items():
        if m in FRONTIER_METRICS and d == "0.5" and 20 <= q <= 90 and value != 1.0:
            problems.append(f"{m}@0.5 at {q}% class {c} is {value}")
    for m in FRONTIER_METRICS:
        for q in range(20, 91, 10):
            if (m, "0.5", q, "mean") not in report:
                problems.append(f"{m}@0.5 at {q}% missing")
    return problems[:MAX_REPORTED]


# -- training targets ----------------------------------------------------------

def mean_iou_matrix(priors: np.ndarray, gt_boxes: np.ndarray) -> np.ndarray:
    """(P, G) mean IoU of each prior against the boxes of each micro-tube."""
    return box_iou(priors[:, None, None, :], gt_boxes[None, :, :, :]).mean(axis=2)


def check_assignment(priors: np.ndarray, gt_boxes: np.ndarray, gt_classes: np.ndarray,
                     gt_index: np.ndarray, gt_class: np.ndarray, match_iou: np.ndarray,
                     forced: np.ndarray, threshold: float = 0.5, tol: float = 1e-12) -> list[str]:
    """Forced pass: one distinct prior per ground truth. Threshold pass: the
    remaining matches reach the threshold at their best ground truth, and
    unmatched priors stay below it."""
    problems = []
    ov = mean_iou_matrix(priors, gt_boxes)
    n_gt = len(gt_boxes)
    if len(forced) != n_gt or len(set(forced.tolist())) != n_gt or np.any(forced < 0):
        return [f"forced priors {forced.tolist()} are not one distinct prior per ground truth"]
    if not np.array_equal(gt_index[forced], np.arange(n_gt)):
        problems.append("a forced prior is not assigned to its ground truth")
    matched = np.nonzero(gt_index >= 0)[0]
    own = ov[matched, gt_index[matched]]
    if not np.all(np.abs(match_iou[matched] - own) <= tol):
        problems.append(f"match_iou differs from the mean IoU by {np.max(np.abs(match_iou[matched] - own)):.3g}")
    if not np.array_equal(gt_class[matched], gt_classes[gt_index[matched]]):
        problems.append("a matched prior carries the wrong class")
    extra = np.setdiff1d(matched, forced)
    if np.any(ov[extra, gt_index[extra]] < threshold - tol):
        problems.append("a threshold-pass match is below the threshold")
    if np.any(ov[extra, gt_index[extra]] < ov[extra].max(axis=1) - tol):
        problems.append("a threshold-pass match is not the prior's best ground truth")
    unmatched = gt_index < 0
    if np.any(ov[unmatched].max(axis=1, initial=0.0) >= threshold + tol):
        problems.append("an unmatched prior reaches the threshold")
    if np.any(match_iou[unmatched] != 0.0) or np.any(gt_class[unmatched] != -1):
        problems.append("an unmatched prior carries a match")
    return problems


def smooth_l1(d: np.ndarray) -> np.ndarray:
    a = np.abs(d)
    return np.where(a < 1.0, 0.5 * d * d, a - 0.5)


def expected_loss(logits, mt_out, pred_out, mt_tgt, pred_tgt, mask, gt_index, gt_class,
                  alpha=1.0, beta=1.0, neg_pos_ratio=3.0) -> dict[str, float]:
    """Log-softmax cross-entropy over matches plus the top floor(3N) hard
    negatives, masked smooth L1 on both heads, normalised by max(N, 1)."""
    matched = gt_index >= 0
    n = int(matched.sum())
    background = logits.shape[1] - 1
    top = logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(logits - top).sum(axis=1)) + top[:, 0]
    labels = np.where(matched, gt_class, background)
    ce = log_norm - logits[np.arange(len(logits)), labels]
    negatives = np.sort(ce[~matched])[::-1]
    quota = min(math.floor(neg_pos_ratio * n) if n else 1, len(negatives))
    l_cls = float(ce[matched].sum() + negatives[:quota].sum())
    l_reg = float(smooth_l1(mt_out[matched] - mt_tgt[matched]).sum())
    slots = mask.shape[1]
    d = (pred_out[matched] - pred_tgt[matched]).reshape(n, slots, 4)
    l_pred = float((smooth_l1(d) * mask[matched][:, :, None]).sum())
    return {
        "total": (l_cls + alpha * l_reg + beta * l_pred) / max(n, 1),
        "l_cls": l_cls, "l_reg": l_reg, "l_pred": l_pred, "n_matched": n,
    }


def check_loss(expected: dict, got: dict, rel: float = 1e-9) -> list[str]:
    problems = []
    for key, want in expected.items():
        have = got[key]
        if not abs(have - want) <= rel * max(abs(want), 1e-300):
            problems.append(f"loss {key}: got {have!r}, recomputed {want!r}")
    return problems


def decode(codes: np.ndarray, priors: np.ndarray, variances=(0.1, 0.2)) -> np.ndarray:
    """Invert centre-size offsets: codes (P, k*4) against priors (P, 4) -> (P, k, 4)."""
    d = codes.reshape(len(codes), -1, 4)
    pw = (priors[:, 2] - priors[:, 0])[:, None]
    ph = (priors[:, 3] - priors[:, 1])[:, None]
    pcx = (0.5 * (priors[:, 0] + priors[:, 2]))[:, None]
    pcy = (0.5 * (priors[:, 1] + priors[:, 3]))[:, None]
    cx = d[..., 0] * variances[0] * pw + pcx
    cy = d[..., 1] * variances[0] * ph + pcy
    w = pw * np.exp(d[..., 2] * variances[1])
    h = ph * np.exp(d[..., 3] * variances[1])
    return np.stack((cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h), axis=-1)


def check_decode(codes: np.ndarray, priors: np.ndarray, boxes: np.ndarray,
                 mask: np.ndarray, tol: float = 1e-9) -> list[str]:
    """Encoded targets of the masked slots decode back to their boxes."""
    err = np.abs(decode(codes, priors) - boxes)[mask]
    worst = float(err.max(initial=0.0))
    return [] if worst <= tol else [f"encoded targets decode {worst:.3g} px away from their boxes"]
