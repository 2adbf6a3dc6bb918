"""Golden output digests: a tiny A1-shaped run of each arm through the CLI
must write byte-identical files.

The digests depend on numpy and on the OpenBLAS build and CPU kernel, so
they are keyed by numpy's version and OpenBLAS's ``get_config`` string;
on any other platform the test skips. A change that moves a digest
updates the value here in the same commit and says why.
"""

import ctypes
import hashlib
import json

import numpy as np
import pytest

import attnalign
from attnalign import cli

# A1's data distribution and optimizer settings, at 16 train / 4 test samples
DATA = dict(n_train=16, n_test=4, grid=8, d_visual=16, n_concepts=4,
            n_segments=3, n_labels=4, seg_side_min=1, seg_side_max=1,
            feature_noise=0.2, seed=11)
TRAIN = dict(epochs=2, lr=3e-3, batch_size=8, weak_k=1, heads_r=2,
             lambda_align=0.1)
ARMS = {"aligned": [], "dense": ["--no-a3moe", "--lambda", "0"]}
FILES = ("metrics.jsonl", "checkpoint.json", "report.json")

GOLDEN = {
    ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
              "SkylakeX MAX_THREADS=64"): {
        "aligned": {
            "metrics.jsonl":
                "ed333420f7c915a31d3b82908a87c8f3cba8ccd7b9a171684cd0fc0f7b2fb8c8",
            "checkpoint.json":
                "5e44100657c93895749ede77bb311e62e3c1158f6f8d53152c8125ad7c6765c1",
            "report.json":
                "736f8995b5af687616d1198a14ff53b496046c2daee4b5ecdff71678257ed744",
        },
        "dense": {
            "metrics.jsonl":
                "4f44748585aeec0162725c0ea1c3af1f15a0b84280950e4e9048a58ecb10d95f",
            "checkpoint.json":
                "5b56a7afa3fc295b127468f4624d17571161df43c4de5726b48c9e4e9f982840",
            "report.json":
                "014a4f915f99760cfcc2af33881ec12d8dbcba8b4124d6c8602378dbd26fde96",
        },
    },
}


def platform_key() -> tuple[str, str | None]:
    fn = attnalign._blas_function("get_config")
    if fn is None:
        return np.__version__, None
    fn.argtypes = []
    fn.restype = ctypes.c_char_p
    return np.__version__, fn().decode()


@pytest.fixture(scope="module")
def golden():
    key = platform_key()
    if key not in GOLDEN:
        pytest.skip(f"no golden digests for numpy {key[0]} with {key[1]}")
    return GOLDEN[key]


def run(argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_cli_outputs_match_golden_digests(tmp_path, golden, arm):
    data, run_dir = tmp_path / "data", tmp_path / "run"
    data_cfg, train_cfg = tmp_path / "data.json", tmp_path / "train.json"
    data_cfg.write_text(json.dumps(DATA))
    train_cfg.write_text(json.dumps({"train": TRAIN}))
    run(["gen-data", "--out", data, "--config", data_cfg])
    run(["weaklabels", "--data", data / "train.jsonl", "--meta",
         data / "meta.json", "--out", tmp_path / "cache.jsonl", "--topk", 1])
    run(["train", "--data", data, "--out", run_dir, "--config", train_cfg,
         "--weak-cache", tmp_path / "cache.jsonl", *ARMS[arm]])
    run(["evaluate", "--checkpoint", run_dir / "checkpoint.json", "--data",
         data / "test.jsonl", "--out", run_dir / "report.json"])
    digests = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
               for name in FILES}
    assert digests == golden[arm]
