"""The training-target path: prior matching, target encoding and the loss.

A training sample is one frame pair (t, t+1) of a synthesized video: the
ground-truth micro-tubes of its actors, their past/future boxes for the
prediction head, and seeded stand-ins for the network's outputs. One
operation matches the sample to the prior pyramid, encodes the targets of
every matched prior and evaluates ``losses.total_loss``, the way a
training step would.

Library functions are looked up on their modules at call time, so the
traced run sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tubekit import anchors, losses
from tubekit.anchors import MicroTubeTarget
from tubekit.geometry import BoundingBox, FrameSize

import checks

HORIZON = (0, 5, 3)  # delta_p, delta_f, n: the CLI default


@dataclass
class Sample:
    gts: list[MicroTubeTarget]
    gt_boxes: np.ndarray        # (G, 2, 4) boxes at t and t+1
    gt_classes: np.ndarray      # (G,)
    slot_boxes: np.ndarray      # (G, 1+n, 4) past box, then future boxes
    slot_mask: np.ndarray       # (G, 1+n) slot has ground truth inside the video
    slot_objects: list[list[BoundingBox]]  # available slot boxes per ground truth
    logits: np.ndarray          # (P, C+1)
    microtube_noise: np.ndarray  # (P, 8)
    prediction_noise: np.ndarray  # (P, 4*(1+n))


def default_priors(width: int, height: int):
    """The default prior pyramid for a frame, and its boxes as a (P, 4) array."""
    priors = anchors.generate_priors(anchors.default_prior_spec(FrameSize(width, height)))
    return priors, np.array([b.as_tuple() for b in priors.boxes])


def build_samples(manifest: dict, num_priors: int, count: int, vary_actors: bool,
                  rng: np.random.Generator) -> list[Sample]:
    """``count`` samples; with ``vary_actors`` sample i keeps ``1 + i % A`` of
    its video's A actors, otherwise all of them."""
    delta_p, delta_f, n = HORIZON
    num_classes = len(manifest["classes"])
    videos = manifest["videos"]
    samples = []
    for i in range(count):
        video = videos[int(rng.integers(len(videos)))]
        t = int(rng.integers(1, video["frames"]))
        tubes = video["tubes"]
        keep = len(tubes)
        if vary_actors:
            keep = 1 + i % len(tubes)
        picked = sorted(rng.choice(len(tubes), size=keep, replace=False).tolist())
        slot_frames = [t - delta_p] + [t + k * delta_f for k in range(1, n + 1)]
        gt_boxes, classes, slot_boxes, slot_mask = [], [], [], []
        for j in picked:
            class_id, boxes = tubes[j]
            gt_boxes.append(boxes[t - 1:t + 1])
            classes.append(class_id)
            slot_mask.append([1 <= f <= video["frames"] for f in slot_frames])
            slot_boxes.append([boxes[min(max(f, 1), video["frames"]) - 1] for f in slot_frames])
        gt_boxes = np.array(gt_boxes)
        slot_boxes = np.array(slot_boxes)
        slot_mask = np.array(slot_mask)
        samples.append(Sample(
            gts=[MicroTubeTarget(boxes=tuple(BoundingBox(*b) for b in pair), class_id=c)
                 for pair, c in zip(gt_boxes.tolist(), classes)],
            gt_boxes=gt_boxes,
            gt_classes=np.array(classes),
            slot_boxes=slot_boxes,
            slot_mask=slot_mask,
            slot_objects=[[BoundingBox(*b) for b, ok in zip(boxes, mask) if ok]
                          for boxes, mask in zip(slot_boxes.tolist(), slot_mask)],
            logits=rng.normal(0.0, 1.0, (num_priors, num_classes + 1)),
            microtube_noise=rng.normal(0.0, 0.3, (num_priors, 8)),
            prediction_noise=rng.normal(0.0, 0.3, (num_priors, 4 * (1 + n))),
        ))
    return samples


def run_sample(priors, sample: Sample):
    """Match, encode and evaluate the loss of one sample."""
    assignment = anchors.match_priors(priors, sample.gts)
    num_priors = len(priors.boxes)
    slots = sample.slot_mask.shape[1]
    mt_targets = np.zeros((num_priors, 8))
    pred_targets = np.zeros((num_priors, 4 * slots))
    mask = np.zeros((num_priors, slots), dtype=bool)
    for i in assignment.matched_priors():
        g = assignment.gt_index[i]
        prior = priors.boxes[i]
        mt_targets[i] = losses.encode_box_sequence(sample.gts[g].boxes, prior, priors.variances)
        codes = losses.encode_box_sequence(sample.slot_objects[g], prior, priors.variances)
        pred_targets[i].reshape(slots, 4)[sample.slot_mask[g]] = codes.reshape(-1, 4)
        mask[i] = sample.slot_mask[g]
    inputs = losses.LossInputs(
        class_logits=sample.logits,
        microtube_outputs=mt_targets + sample.microtube_noise,
        prediction_outputs=pred_targets + sample.prediction_noise,
        assignment=assignment,
        microtube_targets=mt_targets,
        prediction_targets=pred_targets,
        prediction_mask=mask,
    )
    return inputs, losses.total_loss(inputs)


def check_sample(prior_array: np.ndarray, sample: Sample, inputs, result) -> list[str]:
    """Assignment, loss and target encoding, each against numpy recomputation."""
    a = inputs.assignment
    gt_index = np.array(a.gt_index)
    gt_class = np.array(a.gt_class)
    problems = checks.check_assignment(
        prior_array, sample.gt_boxes, sample.gt_classes, gt_index, gt_class,
        np.array(a.match_iou), np.array(a.forced_prior),
    )
    expected = checks.expected_loss(
        inputs.class_logits, inputs.microtube_outputs, inputs.prediction_outputs,
        inputs.microtube_targets, inputs.prediction_targets, inputs.prediction_mask,
        gt_index, gt_class,
    )
    got = {"total": result.total, "l_cls": result.l_cls, "l_reg": result.l_reg,
           "l_pred": result.l_pred, "n_matched": result.n_matched}
    problems += checks.check_loss(expected, got)
    matched = gt_index >= 0
    g = gt_index[matched]
    problems += checks.check_decode(inputs.microtube_targets[matched], prior_array[matched],
                                    sample.gt_boxes[g], np.ones((len(g), 2), dtype=bool))
    problems += checks.check_decode(inputs.prediction_targets[matched], prior_array[matched],
                                    sample.slot_boxes[g], inputs.prediction_mask[matched])
    if not np.array_equal(inputs.prediction_mask[matched], sample.slot_mask[g]):
        problems.append("prediction mask differs from the slots that have ground truth")
    return problems
