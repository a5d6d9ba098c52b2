"""tubekit: online action-tube linking, future-tube completion and metrics.

The package splits into box algebra (:mod:`tubekit.geometry`), prior-box
matching (:mod:`tubekit.anchors`), the training objective
(:mod:`tubekit.losses`), online linking (:mod:`tubekit.linking`),
future-tube assembly (:mod:`tubekit.prediction`), the evaluation protocol
(:mod:`tubekit.metrics`), file formats (:mod:`tubekit.dataio`), a seeded
synthetic oracle (:mod:`tubekit.synth`) and a CLI (:mod:`tubekit.cli`).
"""

from .anchors import (
    MatchAssignment,
    MicroTubeTarget,
    PriorBoxSet,
    PriorBoxSpec,
    default_prior_spec,
    generate_priors,
    match_priors,
)
from .geometry import (
    BoundingBox,
    FrameSize,
    OffsetCode,
    Segment,
    clip_box,
    decode_offsets,
    encode_offsets,
    extrapolate,
    iou,
)
from .linking import (
    ActionTube,
    LinkParams,
    MicroTubeDetection,
    MicroTubeStream,
    OnlineLinker,
    PredictionPayload,
    build_tubes,
    link_step,
    nms,
)
from .losses import (
    GradCheckReport,
    LossBreakdown,
    LossInputs,
    grad_check,
    hard_negative_mining,
    run_grad_check,
    smooth_l1,
    softmax_cross_entropy,
    total_loss,
)
from .metrics import (
    EvalCell,
    EvalReport,
    GroundTruthTube,
    average_precision,
    avg_map,
    evaluate_sweep,
    map_at,
    tube_iou,
)
from .prediction import (
    PredictionHorizon,
    assemble_future,
    early_label,
    predict_full_tube,
)

__version__ = "0.1.0"

__all__ = [
    "ActionTube",
    "BoundingBox",
    "EvalCell",
    "EvalReport",
    "FrameSize",
    "GradCheckReport",
    "GroundTruthTube",
    "LinkParams",
    "LossBreakdown",
    "LossInputs",
    "MatchAssignment",
    "MicroTubeDetection",
    "MicroTubeStream",
    "MicroTubeTarget",
    "OffsetCode",
    "OnlineLinker",
    "PredictionHorizon",
    "PredictionPayload",
    "PriorBoxSet",
    "PriorBoxSpec",
    "Segment",
    "assemble_future",
    "average_precision",
    "avg_map",
    "build_tubes",
    "clip_box",
    "decode_offsets",
    "default_prior_spec",
    "early_label",
    "encode_offsets",
    "evaluate_sweep",
    "extrapolate",
    "generate_priors",
    "grad_check",
    "hard_negative_mining",
    "iou",
    "link_step",
    "map_at",
    "match_priors",
    "nms",
    "predict_full_tube",
    "run_grad_check",
    "smooth_l1",
    "softmax_cross_entropy",
    "total_loss",
    "tube_iou",
]
