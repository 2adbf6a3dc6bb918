"""Golden output digests: a tiny A1-shaped run of each arm through the CLI
must write byte-identical files, its heatmaps of both kinds included.

The digests depend on numpy and on the OpenBLAS build and CPU kernel, so
they are keyed by numpy's version and OpenBLAS's ``get_config`` string;
on any other platform the test skips. A change that moves a digest
updates the value here in the same commit and says why.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import attnalign
from attnalign import cli

# A1's committed setting, at 16 train / 4 test samples and 2 epochs
A1 = Path(__file__).resolve().parents[1] / "experiments" / "a1"
DATA = {**json.loads((A1 / "data.json").read_text()), "n_train": 16, "n_test": 4}
TRAIN = json.loads((A1 / "train.json").read_text())
TRAIN["train"]["epochs"] = 2
ARMS = {"aligned": [], "dense": ["--no-a3moe", "--lambda", "0"]}
FILES = ("metrics.jsonl", "checkpoint.json", "report.json")
KINDS = ("mean", "refined")   # visualize --kind, at the default --heads 2

GOLDEN = {
    ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
              "SkylakeX MAX_THREADS=64"): {
        "aligned": {
            "metrics.jsonl":
                "7b400e90a30d4f9d1f0117a3c69660b48cd2f1859909f92371cf4c6fe2d690fe",
            "checkpoint.json":
                "ab7362a2f91785fb08c3d291a0d2f5b367e773be592042d522cf26f3f21f8391",
            "report.json":
                "5057a4c8703a4463dcbdc26e82044c4ad2fec739e8585d1cea9d1ddaa20668bd",
            "heatmaps.mean":
                "158e0c767f3180f46ad6e23e0c53e639d3361cf964cdfe5059049bf6c62a419a",
            "heatmaps.refined":
                "26458abe052276729b0f95077a29b9b05948ac227d3d6a8e45a7566c2f7ca86f",
        },
        "dense": {
            "metrics.jsonl":
                "735f47039628cf87461c32ec123725793254a688de908bd6612efc1a70ece661",
            "checkpoint.json":
                "a2d4b34d60bde2544c9b66a1a451b682d060c35524927f71dd834bacf7a559df",
            "report.json":
                "014a4f915f99760cfcc2af33881ec12d8dbcba8b4124d6c8602378dbd26fde96",
            "heatmaps.mean":
                "02bc88ff25ca7b59e520e3c7154397334b0d8d92b09e65b6eb91c1b3f1843e96",
            "heatmaps.refined":
                "271b17733e8c219f60649f5fdf05e85b048efde68c1b0bcf1896f398a87ae099",
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
    train_cfg.write_text(json.dumps(TRAIN))
    run(["gen-data", "--out", data, "--config", data_cfg])
    run(["train", "--data", data, "--out", run_dir, "--config", train_cfg,
         *ARMS[arm]])
    run(["evaluate", "--checkpoint", run_dir / "checkpoint.json", "--data",
         data / "test.jsonl", "--out", run_dir / "report.json"])
    digests = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
               for name in FILES}
    for kind in KINDS:
        out = tmp_path / kind
        run(["visualize", "--checkpoint", run_dir / "checkpoint.json", "--data",
             data / "test.jsonl", "--out", out, "--first", 4, "--kind", kind])
        digests[f"heatmaps.{kind}"] = heatmap_digest(out)
    assert digests == golden[arm]


def heatmap_digest(out_dir) -> str:
    """One digest over the name and bytes of every .csv and .pgm in out_dir,
    in name order; a run of 4 samples writes 8."""
    paths = sorted(p for p in out_dir.iterdir() if p.suffix in (".csv", ".pgm"))
    assert len(paths) == 8
    h = hashlib.sha256()
    for p in paths:
        h.update(hashlib.sha256(p.name.encode()).digest())
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()
