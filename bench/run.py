"""tubekit benchmark: the CLI and the training-target path, timed and checked.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tubekit checkout; ``tubekit`` is imported from its
``src`` directory. Set-up runs ``tubekit synth`` on the workload's
parameters and builds the training samples. Then whole rounds run until
S seconds have passed: ``tubekit link`` (100 % observed), ``tubekit
predict`` (50 % observed), ``tubekit sweep``, each as its own process
the way a user runs it, and the training-target path in this process.
Every output is checked against numpy code in ``checks.py``. The last
line of standard output is one JSON object with the metrics: end-to-end
ones with ``--trace 0``, per-layer ones with ``--trace 1``, where every
process wraps tubekit's functions with ``tracer.py``. A time is the
fastest of the run's rounds (see README.md for why).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 170
PREDICT_PCT = 50
SWEEP_PCTS = range(10, 101, 10)
CPUS = sorted(os.sched_getaffinity(0))
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402


@dataclass(frozen=True)
class Workload:
    synth: tuple[str, ...]   # flags of ``tubekit synth``
    clean: bool              # zero noise: perfect-information checks apply
    samples: int             # training samples per round
    vary_actors: bool        # sample i keeps 1 + i % A actors instead of all A


WORKLOADS = {
    # The acceptance criterion-6 set: tiny per-step batches, exact answers.
    "clean_short": Workload(
        synth=("--videos", "100", "--frames", "40", "--actors", "3", "--classes", "3"),
        clean=True, samples=4, vary_actors=False),
    # Long crowded videos: dozens of link candidates per step, fragmented
    # tubes with long extrapolated tails, large AP pools.
    "crowded_long": Workload(
        synth=("--videos", "4", "--frames", "80", "--actors", "8", "--classes", "3",
               "--center-sigma", "2", "--size-sigma", "2", "--score-temperature", "1",
               "--fp-rate", "1", "--miss-rate", "0.1"),
        clean=False, samples=4, vary_actors=False),
    # Prior matching and the loss on 1..12 actors per frame pair; the CLI
    # commands run on a small clean set, so they stay a near-fixed cost.
    "train_targets": Workload(
        synth=("--videos", "4", "--frames", "24", "--actors", "12", "--classes", "3"),
        clean=True, samples=12, vary_actors=True),
}

SETUP_LAYERS = [
    ("synth.generate_s", "s"), ("synth.box_at_calls", "count"),
    ("dataio.write_detections_s", "s"), ("dataio.write_manifest_s", "s"),
    ("anchors.generate_priors_s", "s"),
]
ROUND_LAYERS = [
    ("dataio.read_detections_s", "s"), ("dataio.records_read", "count"),
    ("dataio.read_manifest_s", "s"), ("dataio.to_streams_s", "s"),
    ("dataio.write_tubes_s", "s"), ("dataio.write_report_s", "s"),
    ("linking.build_tubes_calls", "count"), ("linking.build_tubes_s", "s"),
    ("linking.nms_calls", "count"), ("linking.nms_s", "s"),
    ("linking.nms_candidates", "count"), ("linking.nms_kept", "count"),
    ("linking.nms_keep_ratio", "ratio"),
    ("linking.link_step_calls", "count"), ("linking.link_step_s", "s"),
    ("linking.link_pairs", "count"),
    ("linking.link_step_us_p50", "us"), ("linking.link_step_us_p99", "us"),
    ("linking.tubes_built", "count"),
    ("prediction.predict_full_tube_calls", "count"), ("prediction.predict_full_tube_s", "s"),
    ("prediction.assemble_future_s", "s"),
    ("prediction.payload_frames", "count"), ("prediction.extrapolated_frames", "count"),
    ("geometry.extrapolate_calls", "count"), ("geometry.extrapolate_s", "s"),
    ("geometry.iou_calls", "count"),
    ("metrics.evaluate_sweep_s", "s"), ("metrics.self_s", "s"),
    ("metrics.tube_iou_calls", "count"), ("metrics.tube_iou_s", "s"),
    ("anchors.match_priors_calls", "count"), ("anchors.match_priors_s", "s"),
    ("anchors.prior_gt_pairs", "count"), ("anchors.priors_matched", "count"),
    ("losses.total_loss_s", "s"), ("losses.encode_s", "s"),
]
END_TO_END = [
    ("setup_s", "s"), ("link_s", "s"), ("predict_s", "s"), ("sweep_s", "s"),
    ("targets_per_s", "samples/s"), ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Deadline(BaseException):
    """Raised by SIGALRM so that the run ends, and its children with it."""


def _on_alarm(signum, frame):
    raise Deadline()


# -- child processes ------------------------------------------------------------

class Children:
    """Spawns CLI processes one at a time and reaps each with its rusage."""

    def __init__(self, work: str, trace: bool) -> None:
        self.work = work
        self.trace = trace
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.pids: set[int] = set()
        self.spawned = 0

    def run(self, args: list[str]) -> dict:
        """Run ``tubekit <args>``; returns wall seconds, peak RSS and the trace."""
        self.spawned += 1
        log = os.path.join(self.work, f"child_{self.spawned}.log")
        trace_path = os.path.join(self.work, f"trace_{self.spawned}.json")
        if self.trace:
            argv = [sys.executable, os.path.join(BENCH, "traced_cli.py"), trace_path, "--", *args]
        else:
            argv = [sys.executable, "-m", "tubekit.cli", *args]
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_DUP2, 1, 2),
        ]
        pin_quietest_cpu()
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        self.pids.add(pid)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        self.pids.discard(pid)
        code = os.waitstatus_to_exitcode(status)
        out = {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0, "ok": code == 0}
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                print(f"tubekit {args[0]} exited with {code}:\n{fh.read()[-2000:]}",
                      file=sys.stderr)
        elif self.trace:
            with open(trace_path, encoding="utf-8") as fh:
                out["trace"] = json.load(fh)
        return out

    def stop(self) -> None:
        for pid in list(self.pids):
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            except ProcessLookupError:
                os.waitpid(pid, 0)
            self.pids.discard(pid)


def _probe(cpu: int) -> float:
    os.sched_setaffinity(0, {cpu})
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for k in range(40_000):
            total += k * k
        best = min(best, time.perf_counter() - start)
    return best


def pin_quietest_cpu() -> None:
    """Pin this process, and the children it spawns next, to the CPU that
    runs a short probe loop fastest.

    On a shared host each CPU of this machine slows down by up to 2x, for
    seconds at a time and independently of the other, when another tenant
    loads its core. Starting each timed operation on the CPU that is quiet
    at that moment reduces that noise.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {min(CPUS, key=_probe)})


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- trace aggregation ----------------------------------------------------------

def merge_traces(parts: list[dict]) -> dict:
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    link_step_us: list[float] = []
    for part in parts:
        for k, v in part["seconds"].items():
            seconds[k] = seconds.get(k, 0.0) + v
        for k, v in part["counts"].items():
            counts[k] = counts.get(k, 0) + v
        link_step_us.extend(part["link_step_us"])
    return {"seconds": seconds, "counts": counts, "link_step_us": link_step_us}


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metric values from merged spans and counters."""
    s, c = trace["seconds"], trace["counts"]
    out = {}
    for name, _ in SETUP_LAYERS + ROUND_LAYERS:
        base, _, what = name.rpartition("_")
        if what == "s":
            out[name] = s.get(base, 0.0)
        elif what == "calls":
            out[name] = c.get(base, 0)
        else:
            out[name] = c.get(name, 0)
    out["metrics.self_s"] = s.get("metrics.evaluate_sweep", 0.0) - s.get("metrics.inner_link_predict", 0.0)
    candidates = c.get("linking.nms_candidates", 0)
    out["linking.nms_keep_ratio"] = c.get("linking.nms_kept", 0) / candidates if candidates else 0.0
    out["linking.link_step_us_p50"] = _percentile(trace["link_step_us"], 0.50)
    out["linking.link_step_us_p99"] = _percentile(trace["link_step_us"], 0.99)
    return out


# -- the run -------------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    pin_quietest_cpu()
    import targets  # imports tubekit, whose import time belongs to set-up

    local = None
    if trace:
        from tracer import Trace

        local = Trace()
        local.install()

    children = Children(work, trace)
    try:
        return _run(workload, seed, seconds, trace, work, children, local, targets)
    finally:
        children.stop()


def _run(workload, seed, seconds, trace, work, children, local, targets):
    data = os.path.join(work, "data")
    detections = os.path.join(data, "detections.jsonl")
    manifest_path = os.path.join(data, "manifest.json")
    synth = children.run(["synth", "--out-dir", data, "--seed", str(seed), *workload.synth])
    if not synth["ok"]:
        raise BenchError("tubekit synth failed")
    manifest = checks.read_manifest(manifest_path)
    first = manifest["videos"][0]
    priors, prior_array = targets.default_priors(first["width"], first["height"])
    samples = targets.build_samples(manifest, len(priors.boxes), workload.samples,
                                    workload.vary_actors, np.random.default_rng(seed))
    setup_s = time.perf_counter() - START
    setup_trace = None
    if trace:
        setup_trace = merge_traces([synth["trace"], local.to_json()])

    io = ["--detections", detections, "--manifest", manifest_path]
    commands = {
        "link": ["link", *io, "--observed-pct", "100"],
        "predict": ["predict", *io, "--observed-pct", str(PREDICT_PCT)],
        "sweep": ["sweep", *io],
    }
    problems: list[str] = []
    rounds = []
    first_outputs = {}
    first_losses = None
    attempted = failed = 0
    begin = time.perf_counter()
    # Start another round while that ends the run nearer to ``seconds``.
    while not rounds or (time.perf_counter() - begin) * (1 + 0.5 / len(rounds)) < seconds:
        n = len(rounds)
        outdir = os.path.join(work, f"round_{n}")
        os.makedirs(outdir)
        result = {"commands": {}}
        if local is not None:
            local.seconds.clear()
            local.counts.clear()
            local.link_step_us.clear()
        for name, args in commands.items():
            out = os.path.join(outdir, f"{name}.{'csv' if name == 'sweep' else 'json'}")
            attempted += 1
            res = children.run([*args, "--out", out])
            if not res["ok"]:
                failed += 1
                continue
            result["commands"][name] = res
            if n == 0:
                first_outputs[name] = (out, _digest(out))
            elif name in first_outputs and _digest(out) != first_outputs[name][1]:
                problems.append(f"round {n}: {name} output differs from round 0")
        result["sample_s"] = []
        losses_now = []
        pin_quietest_cpu()
        for sample in samples:
            attempted += 1
            start = time.perf_counter()
            inputs, loss = targets.run_sample(priors, sample)
            result["sample_s"].append(time.perf_counter() - start)
            losses_now.append(loss.total)
            if n == 0:
                problems += targets.check_sample(prior_array, sample, inputs, loss)
        if local is not None:
            result["local_trace"] = local.to_json()
        if n == 0:
            first_losses = losses_now
        elif losses_now != first_losses:
            problems.append(f"round {n}: losses differ from round 0")
        if n > 0:
            shutil.rmtree(outdir)
        rounds.append(result)

    problems += check_outputs(workload, detections, manifest, first_outputs)
    if trace:
        problems += cross_check(rounds[0], detections, first_outputs, manifest)

    def fastest(key):
        values = [r["commands"][key]["seconds"] for r in rounds if key in r["commands"]]
        if not values:
            raise BenchError(f"no successful {key} run")
        return min(values)

    summary = {
        "rounds": len(rounds),
        "setup_s": setup_s,
        "link_s": fastest("link"),
        "predict_s": fastest("predict"),
        "sweep_s": fastest("sweep"),
        "targets_per_s": len(samples) / sum(min(t) for t in zip(*(r["sample_s"] for r in rounds))),
        "peak_rss_mb": statistics.median(
            r["commands"]["sweep"]["rss_mb"] for r in rounds if "sweep" in r["commands"]),
    }
    print(f"{'traced' if trace else 'untraced'}: " + json.dumps(summary), file=sys.stderr)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if trace:
        values = layer_metrics(setup_trace)
        per_round = [
            layer_metrics(merge_traces(
                [c["trace"] for c in r["commands"].values()] + [r["local_trace"]]))
            for r in rounds
        ]
        metrics = {name: (unit, values[name]) for name, unit in SETUP_LAYERS}
        for name, unit in ROUND_LAYERS:
            metrics[name] = (unit, min(v[name] for v in per_round))
    else:
        metrics = {name: (unit, summary[name]) for name, unit in END_TO_END}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (u, v) in metrics.items()},
    }


def check_outputs(workload, detections, manifest, outputs) -> list[str]:
    """Independent checks of the first round's CLI outputs."""
    problems = checks.check_ground_truth_motion(manifest)
    if workload.clean:
        problems += checks.check_detection_count(detections, manifest)
    if "link" in outputs:
        linked = checks.read_tubes(outputs["link"][0])
        problems += checks.check_tube_document(linked, manifest, 100)
        if workload.clean:
            problems += checks.check_tubes_equal_ground_truth(linked, manifest)
    report = checks.read_report(outputs["sweep"][0]) if "sweep" in outputs else None
    if report is not None and workload.clean:
        problems += checks.check_perfect_cells(report, SWEEP_PCTS)
    if "predict" in outputs:
        completed = checks.read_tubes(outputs["predict"][0])
        problems += checks.check_tube_document(completed, manifest, PREDICT_PCT)
        if report is not None:
            problems += checks.check_frontier(report, completed, manifest, PREDICT_PCT)
    return problems


def cross_check(round0, detections, outputs, manifest) -> list[str]:
    """Traced counts against totals reached by independent paths."""
    problems = []
    lines = checks.count_lines(detections)
    traces = {name: res["trace"] for name, res in round0["commands"].items()}
    for name, t in traces.items():
        read = t["counts"].get("dataio.records_read", 0)
        if read != lines:
            problems.append(f"{name}: dataio.records_read {read} != {lines} detection lines")
    if "link" in traces:
        in_doc = sum(len(v) for v in checks.read_tubes(outputs["link"][0]).values())
        built = traces["link"]["counts"].get("linking.tubes_built", 0)
        if built != in_doc:
            problems.append(f"link: linking.tubes_built {built} != {in_doc} tubes written")
    if "predict" in traces:
        completed = checks.read_tubes(outputs["predict"][0])
        frames = {v["id"]: v["frames"] for v in manifest["videos"]}
        written = sum(len(t["pred_frames"]) for v in completed.values() for t in v)
        expected = sum(frames[vid] - checks.observed_frames(frames[vid], PREDICT_PCT)
                       for vid, tubes in completed.items() for _ in tubes)
        c = traces["predict"]["counts"]
        traced = c.get("prediction.payload_frames", 0) + c.get("prediction.extrapolated_frames", 0)
        if not traced == written == expected:
            problems.append(f"predict: payload + extrapolated frames {traced}, "
                            f"{written} predicted frames written, expected {expected}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tubekit", "cli.py")):
        print(f"error: no tubekit sources under {SRC}; run from a tubekit checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    os.makedirs(os.path.join(BENCH, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(BENCH, "work"))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Deadline:
        print(f"error: run exceeded {DEADLINE_S} s", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
