"""Per-class NMS and online micro-tube linking into action tubes.

A micro-tube is a pair of boxes at frames t and t+delta emitted jointly by
the detector and treated as implicitly linked, with C+1 class scores and
optional past and future payload boxes. One video's micro-tubes exist only
as the columns of a :class:`MicroTubeStream`, from synth or the detection
file to the finished tubes; no object is built per micro-tube. Linking runs
independently per class: at every step the surviving micro-tubes are
greedily associated with the open tubes whose tail box lives at the
micro-tube's first frame, scored by class score plus a weighted IoU term.
The linker computes every overlap a pushed chunk can ask for in two
broadcast IoU calls; the greedy NMS and association then run over plain
floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .geometry import BoundingBox, Segment, box_iou

DEFAULT_NMS_THRESHOLD = 0.45


class MicroTubeStream:
    """One video's micro-tubes as read-only columns, in time order.

    ``t`` (int, N) holds start frames and ``delta`` the frame gap all rows
    share; ``pairs`` (N x 2 x 4) the boxes at t and t+delta; ``scores``
    (N x C+1) the class scores, summing to 1 per row, background last.
    ``payload`` (bool, N) marks the rows that carry predictions, ``future``
    (N x n x 4) their future boxes (box k-1 at t + k*delta_f) and ``past``
    (N x 4) their past boxes at t - delta_p, or is None when the horizon
    has no past component. Values are trusted: they come from
    :func:`~tubekit.synth.generate` or from
    :func:`~tubekit.dataio.read_detections`. A slice is a stream of views.
    """

    __slots__ = ("t", "delta", "pairs", "scores", "payload", "future", "past")
    EMPTY: "MicroTubeStream"  # the stream without rows, shared

    def __init__(self, t, delta: int, pairs, scores, payload, future, past=None) -> None:
        self.t = np.asarray(t, dtype=np.int64)
        n = len(self.t)
        self.delta = int(delta)
        self.pairs = np.asarray(pairs, dtype=float).reshape(n, 2, 4)
        self.scores = np.asarray(scores, dtype=float)
        self.payload = np.asarray(payload, dtype=bool).reshape(n)
        self.future = np.asarray(future, dtype=float)
        self.past = None if past is None else np.asarray(past, dtype=float).reshape(n, 4)
        for column in (self.t, self.pairs, self.scores, self.payload, self.future, self.past):
            if column is not None:
                column.flags.writeable = False

    def take(self, rows) -> "MicroTubeStream":
        """The rows at ``rows`` (indices, a slice or a mask), in that order."""
        return MicroTubeStream(self.t[rows], self.delta, self.pairs[rows], self.scores[rows],
                               self.payload[rows], self.future[rows],
                               None if self.past is None else self.past[rows])

    def observed(self, frame: int) -> "MicroTubeStream":
        """The micro-tubes that end by ``frame`` (t + delta <= frame): a prefix."""
        return self[: int(np.searchsorted(self.t, frame - self.delta, side="right"))]

    def concat(self, other: "MicroTubeStream") -> "MicroTubeStream":
        """This stream followed by ``other``; both must share one payload layout."""
        if not len(self) or not len(other):
            return other if len(other) else self
        carried = [s for s in (self, other) if s.payload.any()]
        n = carried[0].future.shape[1] if carried else 0
        with_past = bool(carried) and carried[0].past is not None
        if any(s.future.shape[1] != n or (s.past is not None) != with_past for s in carried):
            raise ValueError("payloads of one stream must carry the same boxes")
        # A side without payload rows may have been built with another layout.
        future = [s.future if s.payload.any() else np.zeros((len(s), n, 4)) for s in (self, other)]
        past = None
        if with_past:
            past = np.concatenate([s.past if s.payload.any() else np.zeros((len(s), 4))
                                   for s in (self, other)])
        return MicroTubeStream(np.concatenate((self.t, other.t)), self.delta,
                               np.concatenate((self.pairs, other.pairs)),
                               np.concatenate((self.scores, other.scores)),
                               np.concatenate((self.payload, other.payload)),
                               np.concatenate(future), past)

    def __getitem__(self, rows: slice) -> "MicroTubeStream":
        """The rows in a slice, as views; views of read-only columns are read-only."""
        if not isinstance(rows, slice):
            raise TypeError(f"a stream is sliced, not indexed; got {rows!r}")
        view = object.__new__(MicroTubeStream)
        view.t, view.delta, view.pairs = self.t[rows], self.delta, self.pairs[rows]
        view.scores, view.payload, view.future = (
            self.scores[rows], self.payload[rows], self.future[rows])
        view.past = None if self.past is None else self.past[rows]
        return view

    def __len__(self) -> int:
        return len(self.t)


MicroTubeStream.EMPTY = MicroTubeStream([], 1, [], np.empty((0, 0)), [], np.empty((0, 0, 4)))


@dataclass(frozen=True)
class LinkParams:
    """Tunables of NMS and the association step."""

    nms_threshold: float = DEFAULT_NMS_THRESHOLD
    link_lambda: float = 1.0
    iou_gate: float = 0.1
    score_threshold: float = 0.01
    patience: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.nms_threshold <= 1.0:
            raise ValueError(f"nms threshold must lie in [0, 1], got {self.nms_threshold}")
        if self.patience not in (1, 2):
            # A tube that missed m steps links at last.t + (m + 1) * delta,
            # and its detected segment is contiguous only for m <= 1.
            raise ValueError(f"patience must be 1 or 2, got {self.patience}: bridging two or "
                             f"more missed steps would leave a gap in the detected segment")


@dataclass
class ActionTube:
    """A class-labeled, scored, frame-indexed box sequence.

    ``detected`` covers observed frames (contiguous at the micro-tube
    stride); ``predicted`` covers strictly later, unobserved frames. Both
    accept any frame -> box mapping and are stored as :class:`Segment`.
    The member micro-tubes are kept so their prediction payloads can seed
    the future segment; tubes compare equal on everything but them, as a
    tubes file does not record them.
    """

    class_id: int
    tube_score: float
    detected: Mapping[int, BoundingBox]
    predicted: Mapping[int, BoundingBox]
    members: MicroTubeStream = field(default=MicroTubeStream.EMPTY, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.detected = Segment.of(self.detected)
        self.predicted = Segment.of(self.predicted)
        frames = self.detected.frames
        if not len(frames):
            raise ValueError("tube without detected boxes")
        gaps = np.diff(frames) if len(frames) > 2 else ()
        if len(gaps) and (gaps != gaps[0]).any():
            raise ValueError(f"detected segment not contiguous, "
                             f"frame gaps {sorted(set(gaps.tolist()))}")
        if len(self.predicted) and self.predicted.frames[0] <= frames[-1]:
            raise ValueError("predicted frames must all follow the detected segment")

    @property
    def first_frame(self) -> int:
        return int(self.detected.frames[0])

    @property
    def last_detected_frame(self) -> int:
        return int(self.detected.frames[-1])

    def full_segment(self) -> Segment:
        """Detected then predicted boxes as one segment."""
        return Segment(np.concatenate((self.detected.frames, self.predicted.frames)),
                       np.concatenate((self.detected.boxes, self.predicted.boxes)))


def microtube_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean frame-aligned IoU of broadcastable ``(..., 2, 4)`` micro-tubes.

    Box at t is compared with box at t, box at t+delta with box at
    t+delta; each entry equals ``(iou(a0, b0) + iou(a1, b1)) / 2``.
    """
    overlaps = box_iou(a, b)
    return (overlaps[..., 0] + overlaps[..., 1]) / 2


def nms(
    overlaps: Sequence[Sequence[float]],
    scores: Sequence[float],
    threshold: float = DEFAULT_NMS_THRESHOLD,
) -> list[int]:
    """Greedy non-maximum suppression over micro-tubes.

    ``overlaps[i][j]`` is the :func:`microtube_iou` of micro-tubes i and j.
    Repeatedly keeps the highest-scoring remaining micro-tube and
    suppresses every other whose overlap with it exceeds ``threshold``.
    Score ties break on lower index.

    Returns kept indices in descending score order.
    """
    if len(overlaps) != len(scores):
        raise ValueError(f"{len(overlaps)} micro-tubes but {len(scores)} scores")
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    suppressed = [False] * len(scores)
    kept = []
    for i in order:
        if suppressed[i]:
            continue
        kept.append(i)
        row = overlaps[i]
        for j in order:
            if j != i and not suppressed[j] and row[j] > threshold:
                suppressed[j] = True
    return kept


@dataclass
class ActiveTube:
    """Mutable per-class linking state for one open tube.

    ``members`` are row indices into the linker's stream; ``missed`` counts
    the steps since the last link.
    """

    class_id: int
    members: list[int]
    missed: int = 0


def link_step(
    active: list[ActiveTube],
    rows: Sequence[int],
    class_id: int,
    scores: Sequence[float],
    overlaps: Sequence[Sequence[float]],
    params: LinkParams = LinkParams(),
) -> list[ActiveTube]:
    """Associate one step's micro-tubes with the open tubes of a class.

    ``rows`` are the step's micro-tubes, ``scores`` their class scores and
    ``overlaps[i][j]`` the IoU of open tube i's tail box with micro-tube
    j's first box. Pairs are scored ``score + link_lambda * overlap`` and
    resolved greedily in descending score (ties on lower tube index, then
    lower micro-tube index); pairs below ``iou_gate`` are never linked.
    Each tube extends by at most one micro-tube. Unmatched micro-tubes open
    new tubes; unmatched tubes are carried with their missed-step counter
    bumped.
    """
    if not rows:
        for tube in active:
            tube.missed += 1
        return list(active)
    gate, weight = params.iou_gate, params.link_lambda
    candidates = []
    for i, tail in enumerate(overlaps):
        for j, overlap in enumerate(tail):
            if overlap >= gate:
                candidates.append((scores[j] + weight * overlap, i, j))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

    tube_taken = [False] * len(active)
    det_taken = [False] * len(rows)
    for _, i, j in candidates:
        if not tube_taken[i] and not det_taken[j]:
            active[i].members.append(rows[j])
            active[i].missed = 0
            tube_taken[i] = True
            det_taken[j] = True
    for i, tube in enumerate(active):
        if not tube_taken[i]:
            tube.missed += 1

    out = list(active)
    for j, row in enumerate(rows):
        if not det_taken[j]:
            out.append(ActiveTube(class_id=class_id, members=[row]))
    return out


def _finalize(stream: MicroTubeStream, tubes: Sequence[ActiveTube]) -> list[ActionTube]:
    """Action tubes of linking states, built from one gather of their rows."""
    if not tubes:
        return []
    sizes = np.array([len(tube.members) for tube in tubes])
    owner = np.repeat(np.arange(len(tubes)), sizes)
    members = stream.take(np.fromiter(chain.from_iterable(t.members for t in tubes), np.int64,
                                      int(sizes.sum())))
    starts = members.t
    ends = starts + stream.delta
    # At a shared frame the newer micro-tube's first box overwrites the
    # older one's second box; a second box survives only before a gap and
    # at a tube's last member.
    before_gap = np.append((starts[1:] != ends[:-1]) | (owner[1:] != owner[:-1]), True)
    frames = np.concatenate((starts, ends[before_gap]))
    boxes = np.concatenate((members.pairs[:, 0], members.pairs[before_gap, 1]))
    order = np.lexsort((frames, np.concatenate((owner, owner[before_gap]))))
    frames, boxes = frames[order], boxes[order]
    class_ids = [tube.class_id for tube in tubes]
    scores = members.scores[np.arange(len(owner)), np.repeat(class_ids, sizes)].tolist()
    member_end = np.cumsum(sizes).tolist()
    frame_end = np.cumsum(sizes + np.bincount(owner[before_gap], minlength=len(tubes))).tolist()
    out = []
    for class_id, m0, m1, f0, f1 in zip(class_ids, [0, *member_end], member_end,
                                        [0, *frame_end], frame_end):
        out.append(ActionTube(class_id=class_id,
                              tube_score=sum(scores[m0:m1]) / (m1 - m0),
                              detected=Segment(frames[f0:f1], boxes[f0:f1]),
                              predicted=Segment.EMPTY,
                              members=members[m0:m1]))
    return out


def _block_cells(row_lo: np.ndarray, row_n: np.ndarray, col_lo: np.ndarray, col_n: np.ndarray):
    """Row and column indices of every cell of the blocks
    ``row_lo[b] + [0, row_n[b])`` x ``col_lo[b] + [0, col_n[b])``, block by
    block, each row-major."""
    sizes = row_n * col_n
    block = np.repeat(np.arange(len(sizes)), sizes)
    cell = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    width = col_n[block]
    return row_lo[block] + cell // width, col_lo[block] + cell % width


class OnlineLinker:
    """Causal linker over one video's micro-tube stream.

    :meth:`push` links a chunk of micro-tubes that follows every earlier
    chunk; :meth:`snapshot` returns the tubes that :func:`build_tubes`
    would build from the stream pushed so far. A tube is finalised once,
    when it closes.
    """

    def __init__(self, num_classes: int, params: LinkParams = LinkParams()) -> None:
        if num_classes < 1:
            raise ValueError(f"need at least one real class, got {num_classes}")
        self.num_classes = num_classes
        self.params = params
        self._stream: MicroTubeStream | None = None
        self._t_first = self._t_last = 0
        self._active: list[list[ActiveTube]] = [[] for _ in range(num_classes)]
        self._closed: list[list[ActionTube]] = [[] for _ in range(num_classes)]
        self._closing: list[ActiveTube] = []  # closed during the current push

    def _check(self, chunk: MicroTubeStream) -> None:
        if self._stream is None:  # the lattice starts at the first pushed frame
            self._t_first = int(chunk.t[0])
            self._t_last = self._t_first - chunk.delta
        elif chunk.delta != self._stream.delta:
            raise ValueError(f"mixed frame gaps in stream: {chunk.delta} vs {self._stream.delta}")
        if chunk.scores.shape[1] != self.num_classes + 1:
            raise ValueError(f"detection carries {chunk.scores.shape[1]} scores, "
                             f"expected {self.num_classes + 1}")
        t = chunk.t.tolist()
        if t[0] <= self._t_last:
            raise ValueError(f"unsorted stream: frame {t[0]} after {self._t_last}")
        back = np.flatnonzero(np.diff(chunk.t) < 0)
        if len(back):
            raise ValueError(f"unsorted stream: frame {t[back[0] + 1]} after {t[back[0]]}")
        off = np.flatnonzero((chunk.t - self._t_first) % chunk.delta)
        if len(off):
            raise ValueError(f"temporal discontinuity: step at frame {t[off[0]]} "
                             f"is off the stride {chunk.delta}")

    def push(self, chunk: MicroTubeStream) -> None:
        """Link a time-ordered chunk of micro-tubes whose frames follow every
        earlier push.

        Lattice steps without micro-tubes, up to the chunk's last frame, are
        advanced as empty steps, so the clock only runs up to the last frame
        that carried detections. Per class and step: drop micro-tubes scoring
        below ``score_threshold``, run :func:`nms`, :func:`link_step`, then
        close tubes that missed ``patience`` steps. An empty chunk is a no-op.
        """
        if not len(chunk):
            return
        self._check(chunk)
        base = 0 if self._stream is None else len(self._stream)
        stream = self._stream = chunk if self._stream is None else self._stream.concat(chunk)
        delta = stream.delta

        # The chunk's steps: frame, first row and row count. A step can
        # extend the tubes whose tails lie one lattice step back (they linked
        # at the last step) or two (they missed it; patience is at most 2).
        starts = np.flatnonzero(np.diff(chunk.t, prepend=chunk.t[0] - 1)) + base
        counts = np.diff(np.append(starts, len(stream)))
        frames = stream.t[starts]
        back = np.stack((frames - delta, frames - 2 * delta))
        tails_lo = np.searchsorted(stream.t, back)
        tails_n = np.searchsorted(stream.t, back, side="right") - tails_lo
        # Every overlap these steps can ask for, in two kernel calls.
        rows_a, rows_b = _block_cells(starts, counts, starts, counts)
        within = microtube_iou(stream.pairs[rows_a], stream.pairs[rows_b]).tolist()
        rows_a, rows_b = _block_cells(tails_lo.ravel(), tails_n.ravel(),
                                      np.tile(starts, 2), np.tile(counts, 2))
        across = box_iou(stream.pairs[rows_a, 1], stream.pairs[rows_b, 0]).tolist()
        within_at = np.cumsum(counts * counts) - counts * counts
        across_sizes = (tails_n * counts).ravel()
        across_at = (np.cumsum(across_sizes) - across_sizes).reshape(2, -1)
        scores = stream.scores[base:].tolist()

        steps = zip(frames.tolist(), starts.tolist(), counts.tolist(), within_at.tolist(),
                    tails_lo.T.tolist(), across_at.T.tolist())
        for t, start, k, at, tail_lo, tail_at in steps:
            for _ in range((t - self._t_last) // delta - 1):
                for class_id in range(self.num_classes):
                    self._close(class_id, link_step(self._active[class_id], (), class_id, (), (),
                                                    self.params))
            overlaps = [within[at + a * k: at + (a + 1) * k] for a in range(k)]
            self._link_step_rows(start, overlaps, scores[start - base: start - base + k],
                                 across, list(zip(tail_lo, tail_at)))
            self._t_last = t
        for tube in _finalize(stream, self._closing):
            self._closed[tube.class_id].append(tube)
        self._closing = []

    def _link_step_rows(self, start, overlaps, step_scores, across, tails) -> None:
        """NMS and association, per class, of one step's rows ``start..start+k``.

        ``tails[m]`` holds the first row of the tails of tubes that missed m
        steps and the offset of their overlaps with this step in ``across``.
        """
        params, k = self.params, len(step_scores)
        for class_id, column in zip(range(self.num_classes), zip(*step_scores)):
            kept = [j for j in range(k) if column[j] >= params.score_threshold]
            if kept:
                keep = nms([[overlaps[a][b] for b in kept] for a in kept],
                           [column[j] for j in kept], params.nms_threshold)
                kept = [kept[i] for i in keep]
            active = self._active[class_id]
            tail_overlaps = []
            for tube in active:
                lo, at = tails[tube.missed]
                at += (tube.members[-1] - lo) * k
                tail_overlaps.append([across[at + j] for j in kept])
            self._close(class_id, link_step(active, [start + j for j in kept], class_id,
                                            [column[j] for j in kept], tail_overlaps, params))

    def _close(self, class_id: int, active: list[ActiveTube]) -> None:
        still = []
        for tube in active:
            if tube.missed >= self.params.patience:
                self._closing.append(tube)
            else:
                still.append(tube)
        self._active[class_id] = still

    def snapshot(self) -> list[ActionTube]:
        """Closed then open tubes of each class, sorted by descending tube
        score (mean member class score), ties by class then creation order.

        Closed tubes are the objects finalised when they closed; open tubes
        are finalised anew at every call.
        """
        open_tubes = iter(_finalize(self._stream, [a for active in self._active for a in active]))
        finished = [tube for closed, active in zip(self._closed, self._active)
                    for tube in (*closed, *(next(open_tubes) for _ in active))]
        order = sorted(range(len(finished)),
                       key=lambda i: (-finished[i].tube_score, finished[i].class_id, i))
        return [finished[i] for i in order]


def build_tubes(
    stream: MicroTubeStream,
    num_classes: int,
    params: LinkParams = LinkParams(),
) -> list[ActionTube]:
    """Turn a time-ordered micro-tube stream into per-class action tubes.

    Per class and per step: drop micro-tubes scoring below
    ``score_threshold``, run NMS, then :func:`link_step`. Tubes that miss
    ``patience`` consecutive steps are closed. Steps with no surviving
    detections still advance the clock, so noisy streams with dropped
    frame pairs stay aligned.

    This is one :class:`OnlineLinker` push of the whole stream. The result
    is deterministic for a given stream; tubes are sorted by descending
    tube score (mean member class score), ties by class then creation
    order.
    """
    linker = OnlineLinker(num_classes, params)
    linker.push(stream)
    return linker.snapshot()
