import json
import subprocess
import sys
from pathlib import Path

import pytest

from tubekit.cli import main
from tubekit.dataio import read_report, read_tubes


def run(argv):
    return main(argv)


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    code = run(["synth", "--out-dir", str(out), "--videos", "4", "--classes", "2",
                "--actors", "2", "--frames", "30", "--seed", "7"])
    assert code == 0
    return {
        "manifest": str(out / "manifest.json"),
        "detections": str(out / "detections.jsonl"),
        "dir": out,
    }


class TestSynthCommand:
    def test_writes_both_files(self, dataset):
        assert (dataset["dir"] / "manifest.json").exists()
        assert (dataset["dir"] / "detections.jsonl").exists()

    def test_deterministic_given_seed(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["synth", "--out-dir", str(out), "--videos", "2",
                        "--classes", "2", "--seed", "11"]) == 0
            outs.append((out / "detections.jsonl").read_bytes())
        assert outs[0] == outs[1]


class TestLinkPredict:
    def test_link_writes_tubes(self, dataset, tmp_path):
        out = str(tmp_path / "tubes.json")
        assert run(["link", "--detections", dataset["detections"],
                    "--manifest", dataset["manifest"], "--out", out]) == 0
        tubes = read_tubes(out)
        assert len(tubes) == 4
        assert all(len(v) >= 1 for v in tubes.values())
        for v in tubes.values():
            for t in v:
                assert t.predicted == {}

    def test_predict_fills_future(self, dataset, tmp_path):
        out = str(tmp_path / "full.json")
        assert run(["predict", "--detections", dataset["detections"],
                    "--manifest", dataset["manifest"], "--out", out,
                    "--observed-pct", "50", "--horizon", "0,5,3"]) == 0
        tubes = read_tubes(out)
        for v in tubes.values():
            for t in v:
                assert max(t.predicted) == 30
                assert min(t.predicted) == max(t.detected) + 1


class TestEvalSweep:
    def test_eval_writes_report(self, dataset, tmp_path):
        out = str(tmp_path / "report.csv")
        assert run(["eval", "--detections", dataset["detections"],
                    "--manifest", dataset["manifest"], "--out", out,
                    "--delta-list", "0.5,0.75", "--pct-list", "50,100",
                    "--horizon", "0,5,3"]) == 0
        rows = read_report(out)
        metrics = {r[0] for r in rows}
        assert metrics == {"accuracy", "online_map", "p_map", "c_map", "detection_map"}
        c_map = {r for r in rows if r[0] == "c_map" and r[3] == "mean" and r[2] == 100}
        det = {(r[1], r[4]) for r in rows
               if r[0] == "detection_map" and r[3] == "mean"}
        assert {(r[1], r[4]) for r in c_map} == det

    def test_sweep_axes(self, dataset, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert run(["sweep", "--detections", dataset["detections"],
                    "--manifest", dataset["manifest"], "--out", out,
                    "--horizon", "0,5,3"]) == 0
        rows = read_report(out)
        metrics = {r[0] for r in rows}
        assert metrics == {"accuracy", "online_map", "p_map", "c_map"}
        for kind in ("online_map", "c_map"):
            assert {r[1] for r in rows if r[0] == kind} == {"0.2", "0.5", "0.75", "avg"}
            assert {r[2] for r in rows if r[0] == kind} == set(range(10, 101, 10))
        assert {r[2] for r in rows if r[0] == "p_map"} == set(range(10, 100, 10))
        assert {r[2] for r in rows if r[0] == "accuracy"} == set(range(10, 101, 10))

    def test_config_file_with_flag_override(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "detections": dataset["detections"],
            "manifest": dataset["manifest"],
            "delta_list": [0.5],
            "pct_list": [100],
            "horizon": [0, 5, 3],
        }))
        out = str(tmp_path / "r.csv")
        assert run(["eval", "--config", str(cfg), "--out", out,
                    "--pct-list", "50"]) == 0
        rows = read_report(out)
        assert {r[2] for r in rows} == {50}  # flag beat the config file


class TestCheckLoss:
    def test_passes(self, capsys):
        assert run(["check-loss", "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "gradient check passed" in out

    def test_failure_exit_code(self, capsys):
        assert run(["check-loss", "--trials", "20", "--tolerance", "1e-18"]) == 1


class TestErrors:
    def test_missing_inputs(self, capsys, tmp_path):
        assert run(["eval", "--out", str(tmp_path / "r.csv")]) == 2
        assert "missing required settings" in capsys.readouterr().err

    def test_nonexistent_file(self, capsys, tmp_path):
        assert run(["eval", "--detections", "/nope.jsonl", "--manifest", "/nope.json",
                    "--out", str(tmp_path / "r.csv")]) == 2

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"wat": 1}))
        assert run(["check-loss", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_detection_past_video_end(self, dataset, tmp_path, capsys):
        # The synth videos have 30 frames; a micro-tube at t = 30 ends on frame 31.
        path = dataset["dir"] / "detections.jsonl"
        record = json.loads(path.read_text().splitlines()[-1])
        record["t"] = 30
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        io = ["--detections", str(path), "--manifest", dataset["manifest"]]
        for command in ("link", "predict", "eval", "sweep"):
            assert run([command, *io, "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert f"{path}: video {record['video']!r} has a detection at t=30" in err
            assert "delta=1 past its 30 frames" in err

    def test_patience_above_two_rejected(self, dataset, tmp_path, capsys):
        assert run(["link", "--detections", dataset["detections"],
                    "--manifest", dataset["manifest"], "--out", str(tmp_path / "t.json"),
                    "--patience", "3"]) == 2
        assert "patience must be 1 or 2, got 3" in capsys.readouterr().err

    def test_detections_for_unknown_video(self, dataset, tmp_path, capsys):
        other = tmp_path / "other"
        assert run(["synth", "--out-dir", str(other), "--videos", "6",
                    "--classes", "2", "--seed", "1"]) == 0
        assert run(["eval", "--detections", str(other / "detections.jsonl"),
                    "--manifest", dataset["manifest"],
                    "--out", str(tmp_path / "r.csv")]) == 2
        assert "missing from the manifest" in capsys.readouterr().err


def test_traced_link_counts_match_outputs(tmp_path):
    """The benchmark's tracer still finds the functions it wraps, and its
    counts agree with the files; a subprocess, because it rebinds globals."""
    data = tmp_path / "data"
    assert run(["synth", "--out-dir", str(data), "--videos", "3", "--frames", "20",
                "--seed", "2"]) == 0
    detections, out, trace = data / "detections.jsonl", tmp_path / "t.json", tmp_path / "trace"
    traced_cli = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"
    done = subprocess.run(
        [sys.executable, str(traced_cli), str(trace), "--", "link", "--detections",
         str(detections), "--manifest", str(data / "manifest.json"), "--out", str(out)],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    counts = json.loads(trace.read_text())["counts"]
    assert counts["dataio.records_read"] == len(detections.read_text().splitlines())
    tubes = json.loads(out.read_text())["videos"]
    assert counts["linking.tubes_built"] == sum(len(v["tubes"]) for v in tubes)
