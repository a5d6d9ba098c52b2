"""Each correctness check of the benchmark passes on real output and fails
on a faulty copy of it.

Run from the repository root: python3 -m pytest bench/test_checks.py
"""

import csv
import dataclasses
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import targets  # noqa: E402
from tubekit import cli  # noqa: E402

PCT = 50


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A small noisy dataset with its ``predict`` and ``sweep`` outputs."""
    d = tmp_path_factory.mktemp("bench")
    synth = ["synth", "--out-dir", str(d), "--seed", "3", "--videos", "3", "--frames", "20",
             "--actors", "4", "--classes", "2", "--center-sigma", "2", "--size-sigma", "2",
             "--score-temperature", "1", "--fp-rate", "1", "--miss-rate", "0.1"]
    io = ["--detections", str(d / "detections.jsonl"), "--manifest", str(d / "manifest.json")]
    assert cli.main(synth) == 0
    assert cli.main(["predict", *io, "--observed-pct", str(PCT), "--out", str(d / "predict.json")]) == 0
    assert cli.main(["sweep", *io, "--out", str(d / "sweep.csv")]) == 0
    return d


def test_sweep_with_one_ap_nudged_is_rejected(outputs, tmp_path):
    manifest = checks.read_manifest(str(outputs / "manifest.json"))
    completed = checks.read_tubes(str(outputs / "predict.json"))
    report = checks.read_report(str(outputs / "sweep.csv"))
    assert checks.check_frontier(report, completed, manifest, PCT) == []

    with open(outputs / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    k = next(i for i, r in enumerate(rows)
             if r[0] == "c_map" and r[1] == "0.5" and r[2] == str(PCT) and r[3] == "0")
    rows[k][4] = repr(float(rows[k][4]) + 1e-9)
    nudged = tmp_path / "sweep.csv"
    with open(nudged, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    problems = checks.check_frontier(checks.read_report(str(nudged)), completed, manifest, PCT)
    assert len(problems) == 1 and "c_map" in problems[0]


def test_predict_with_one_frame_dropped_is_rejected(outputs, tmp_path):
    manifest = checks.read_manifest(str(outputs / "manifest.json"))
    assert checks.check_tube_document(
        checks.read_tubes(str(outputs / "predict.json")), manifest, PCT) == []

    with open(outputs / "predict.json") as fh:
        doc = json.load(fh)
    del doc["videos"][1]["tubes"][0]["predicted"][3]
    dropped = tmp_path / "predict.json"
    with open(dropped, "w") as fh:
        json.dump(doc, fh)
    problems = checks.check_tube_document(checks.read_tubes(str(dropped)), manifest, PCT)
    assert len(problems) == 1 and "predicted frames" in problems[0]


def test_loss_off_by_1e_6_is_rejected(outputs):
    manifest = checks.read_manifest(str(outputs / "manifest.json"))
    priors, prior_array = targets.default_priors(320, 240)
    [sample] = targets.build_samples(manifest, len(priors.boxes), 1, True, np.random.default_rng(0))
    inputs, result = targets.run_sample(priors, sample)
    assert targets.check_sample(prior_array, sample, inputs, result) == []

    off = dataclasses.replace(result, total=result.total + 1e-6)
    problems = targets.check_sample(prior_array, sample, inputs, off)
    assert len(problems) == 1 and "loss total" in problems[0]
