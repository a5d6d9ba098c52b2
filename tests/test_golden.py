"""Golden digests: fixed-seed CLI outputs must stay byte-identical.

Each case synthesizes a small set, then runs ``link``, ``predict``,
``eval`` and ``sweep`` on it and compares the sha256 of every file written
with a digest recorded from an earlier, independently verified build.
A refactor that changes any byte of any output fails here.
"""

import hashlib

import pytest

from tubekit.cli import main

SETS = {
    "clean": ["--seed", "1", "--videos", "4", "--frames", "40", "--actors", "3",
              "--classes", "3"],
    # Stride-2 lattice, past payload slot, misses that leave whole steps
    # empty, false positives; linked with patience 2 and mean aggregation.
    "noisy_stride2": ["--seed", "5", "--videos", "4", "--frames", "60", "--actors", "3",
                      "--classes", "3", "--delta", "2", "--horizon", "2,5,3",
                      "--center-sigma", "2", "--size-sigma", "2", "--score-temperature", "1",
                      "--fp-rate", "0.3", "--miss-rate", "0.4"],
    # Many candidates per step: NMS suppressions, fragments, equal scores.
    "crowded": ["--seed", "3", "--videos", "2", "--frames", "50", "--actors", "6",
                "--classes", "3", "--center-sigma", "2", "--size-sigma", "2",
                "--fp-rate", "1", "--miss-rate", "0.1"],
}

RUNS = {
    "clean": {
        "link": ["link"],
        "link50": ["link", "--observed-pct", "50"],
        "predict": ["predict", "--observed-pct", "50"],
        "eval": ["eval"],
        "sweep": ["sweep"],
    },
    "noisy_stride2": {
        "link": ["link", "--patience", "2"],
        "predict": ["predict", "--patience", "2", "--horizon", "2,5,3", "--observed-pct", "30",
                    "--aggregate", "mean"],
        "eval": ["eval", "--patience", "2", "--horizon", "2,5,3", "--pct-list", "20,50,100"],
        "sweep": ["sweep", "--patience", "2", "--horizon", "2,5,3"],
    },
    "crowded": {
        "link": ["link"],
        "predict": ["predict", "--observed-pct", "50"],
        "eval": ["eval", "--pct-list", "30,60,100"],
        "sweep": ["sweep"],
    },
}

DIGESTS = {
    "clean": {
        "manifest": "c088b61bf0db7970602e7794b5b297d41269e06a430782022a5b03d5f14205f5",
        "detections": "ce6edcde60a3dd2bf40f8873a0adccb750b1535f7a971868750d27c23928fc95",
        "link": "34e3830b08aab3c9693d6ab395820d8709592749aef883164c8d8715ac9eaf0a",
        "link50": "4fef926c807020e3b11d8b79280f2fa1736ac49f433179ababd52b170a656697",
        "predict": "bd4c0669e79ca03079a257551aab0a06405db385abcc052ecde6251d37888d1b",
        "eval": "c56a54ac946ae0e01bc96af3dfa18c8a76ef1b8b45bcdc7de2a9dc787e831d5e",
        "sweep": "1c7c5f552bafe7440574a61833e7ac63a70076b29b9705d796776a8df67e528c",
    },
    "crowded": {
        "manifest": "4079e115ce3a5da752730ebaa5ec8635f7c200174234a32d430e2c5907a270a4",
        "detections": "c9f6d72041169b8859765c6adb51612196312941f865952899f928147c00e0ab",
        "link": "fcbe45d456eca95c6c0d5629e4d631d856ea61a4b3eb1c1cf0b6c73e847bf511",
        "predict": "4ed27abe684064fe28f1ff94770f1db47c85ea9d855bb5a9578a74cf86bdbeae",
        "eval": "9143ebdb5948878963b908d508f5ed56f795a4eb6476bce22a0b905623bc3d1b",
        "sweep": "52dd2e62f155c43fdc59667e444b46f7350301dd868597eeefb1e3078b871763",
    },
    "noisy_stride2": {
        "manifest": "a51815c85d9d40116ebcd3f25500e24e6273a14760a8202d125fcbbdcf1b9360",
        "detections": "4773194f83f2b1e95f5b28fd72fd4629368f90943a05deb45233ab4484c2970b",
        "link": "439b9ec09c8a339d8d48a40b1ac4f91c89b5d8ace5da5b5e64e65bba0be43479",
        "predict": "47b6a4083cc78a9d39525f4f97fb05fd8a9b6435f076e7a9b4e5e7d177fd34d6",
        "eval": "64c73cacf1b3ee905b7be413eefcd5aa297a8411c7b51cc08823fb0ed9386ae2",
        "sweep": "cf2bce1b480ec04f93f9118cdf5d53edb245ca0a83f1f739420de44fccad8965",
    },
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def outputs(name, tmp_path):
    """Digest of every file the set's synth and CLI runs write."""
    data = tmp_path / name
    assert main(["synth", "--out-dir", str(data), *SETS[name]]) == 0
    got = {"manifest": _sha256(data / "manifest.json"),
           "detections": _sha256(data / "detections.jsonl")}
    io = ["--detections", str(data / "detections.jsonl"),
          "--manifest", str(data / "manifest.json")]
    for run, args in RUNS[name].items():
        out = tmp_path / f"{name}_{run}.out"
        assert main([*args, *io, "--out", str(out)]) == 0
        got[run] = _sha256(out)
    return got


@pytest.mark.parametrize("name", sorted(SETS))
def test_outputs_match_golden_digests(name, tmp_path):
    assert outputs(name, tmp_path) == DIGESTS[name]
