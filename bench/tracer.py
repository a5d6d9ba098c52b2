"""Per-layer spans and counters for the benchmark's traced run.

The library has no instrumentation of its own, so the traced run wraps
tubekit's public functions from outside. A wrapper replaces the function
on every ``tubekit`` module that binds it: ``linking`` and ``metrics``
import ``iou`` by name, and ``metrics`` and ``cli`` import
``build_tubes``, so patching only the defining module would undercount.

Spans are timed with ``perf_counter``; a span nested in itself (for
instance through recursion) is timed once, at its outermost call.
``geometry.iou`` is only counted, because it runs millions of times.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Trace:
    """Accumulated span seconds and counters of one process."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.link_step_us: list[float] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._video_length = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        seconds, counts, depth = self.seconds, self.counts, self._depth

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[name] -= 1
            if depth[name] == 0:
                seconds[name] += elapsed
            counts[name] += 1
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _inside(self, name: str) -> bool:
        return self._depth[name] > 0

    # -- hooks --------------------------------------------------------------

    def _after_read_detections(self, args, kwargs, result, elapsed):
        self.counts["dataio.records_read"] += sum(len(v) for v in result.values())

    def _after_build_tubes(self, args, kwargs, result, elapsed):
        self.counts["linking.tubes_built"] += len(result)
        if self._inside("metrics.evaluate_sweep"):
            self.seconds["metrics.inner_link_predict"] += elapsed

    def _after_nms(self, args, kwargs, result, elapsed):
        self.counts["linking.nms_candidates"] += len(args[0])
        self.counts["linking.nms_kept"] += len(result)

    def _after_link_step(self, args, kwargs, result, elapsed):
        active, detections = args[0], args[1]
        self.counts["linking.link_pairs"] += len(active) * len(detections)
        self.link_step_us.append(elapsed * 1e6)

    def _before_predict(self, args, kwargs):
        self._video_length = args[2] if len(args) > 2 else kwargs["video_length"]

    def _after_predict(self, args, kwargs, result, elapsed):
        if self._inside("metrics.evaluate_sweep"):
            self.seconds["metrics.inner_link_predict"] += elapsed

    def _after_assemble(self, args, kwargs, result, elapsed):
        if self._inside("prediction.predict_full_tube"):
            self.counts["prediction.payload_frames"] += sum(
                1 for f in result if f <= self._video_length
            )

    def _after_extrapolate(self, args, kwargs, result, elapsed):
        if self._inside("prediction.predict_full_tube"):
            self.counts["prediction.extrapolated_frames"] += len(result)

    def _after_match(self, args, kwargs, result, elapsed):
        priors, gts = args[0], args[1]
        self.counts["anchors.prior_gt_pairs"] += len(priors.boxes) * len(gts)
        self.counts["anchors.priors_matched"] += result.n_matched

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions of an imported tubekit package."""
        from tubekit import anchors, dataio, geometry, linking, losses, metrics, prediction, synth

        spans = [
            (synth, "lane_dataset", "synth.generate", None, None),
            (dataio, "read_detections", "dataio.read_detections", None,
             self._after_read_detections),
            (dataio, "read_manifest", "dataio.read_manifest", None, None),
            (dataio, "detections_to_streams", "dataio.to_streams", None, None),
            (dataio, "write_detections", "dataio.write_detections", None, None),
            (dataio, "write_manifest", "dataio.write_manifest", None, None),
            (dataio, "write_tubes", "dataio.write_tubes", None, None),
            (dataio, "write_report", "dataio.write_report", None, None),
            (linking, "build_tubes", "linking.build_tubes", None, self._after_build_tubes),
            (linking, "nms", "linking.nms", None, self._after_nms),
            (linking, "link_step", "linking.link_step", None, self._after_link_step),
            (prediction, "predict_full_tube", "prediction.predict_full_tube",
             self._before_predict, self._after_predict),
            (prediction, "assemble_future", "prediction.assemble_future", None,
             self._after_assemble),
            (geometry, "extrapolate", "geometry.extrapolate", None, self._after_extrapolate),
            (metrics, "evaluate_sweep", "metrics.evaluate_sweep", None, None),
            (metrics, "tube_iou", "metrics.tube_iou", None, None),
            (anchors, "generate_priors", "anchors.generate_priors", None, None),
            (anchors, "match_priors", "anchors.match_priors", None, self._after_match),
            (losses, "total_loss", "losses.total_loss", None, None),
            (losses, "encode_box_sequence", "losses.encode", None, None),
        ]
        for module, attr, name, before, after in spans:
            original = getattr(module, attr)
            _rebind(original, self._span(name, original, before, after))
        original = geometry.iou
        _rebind(original, self._counter("geometry.iou", original))
        synth.ActorSpec.box_at = self._counter("synth.box_at", synth.ActorSpec.box_at)

    def to_json(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "counts": dict(self.counts),
            "link_step_us": self.link_step_us,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` on every tubekit module binding it."""
    for name, module in list(sys.modules.items()):
        if name != "tubekit" and not name.startswith("tubekit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
