import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from attnalign.adapters import AdapterConfig, AdapterSet
from attnalign.data import DataSpec, generate_dataset, write_meta, write_samples
from attnalign.errors import ParameterError
from attnalign.metrics import evaluate
from attnalign.model import ModelConfig, VisualDecoder, save_checkpoint
from attnalign.sweeps import SWEEP_HEADER, apply_sweep_value, run_single, sweep
from attnalign.training import TrainConfig
from attnalign import cli


SMALL_ADAPTER = AdapterConfig(dense_rank=2, expert_rank=2, n_q_experts=2,
                              n_k_experts=3, top_b=2)
SMALL_MODEL = ModelConfig(n_layers=1, n_heads=2, d_visual=8, d_model=8,
                          vocab_size=12, grid=3, max_text_len=6)


def small_data(n_train=8, n_test=4, seed=3):
    spec = DataSpec(n_train=n_train, n_test=n_test, grid=3, d_visual=8,
                    n_concepts=3, n_segments=2, n_labels=3, seg_side_min=1,
                    seg_side_max=1, seed=seed)
    return generate_dataset(spec)


def small_cfg(**kw):
    base = dict(lambda_align=0.1, epochs=1, lr=1e-3, batch_size=4, weak_k=1,
                heads_r=1, adapter=SMALL_ADAPTER, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestSweep:
    def test_single_value_equals_direct_run(self):
        train_s, test_s, meta = small_data()
        cfg = small_cfg()
        rows = sweep("lambda", [0.1], cfg, 0, train_s, test_s, meta,
                     model_config=SMALL_MODEL)
        model = VisualDecoder(SMALL_MODEL, seed=0)
        result, report = run_single(model, train_s, test_s, meta, cfg)
        assert rows[0]["coverage"] == report.coverage
        assert rows[0]["accuracy"] == report.accuracy
        assert rows[0]["L_llm"] == result.epoch_logs[-1]["train_llm"]

    def test_csv_structure(self, tmp_path):
        train_s, test_s, meta = small_data()
        out = tmp_path / "sweep.csv"
        sweep("R", [0, 1, 2], small_cfg(), 0, train_s, test_s, meta,
              model_config=SMALL_MODEL, out_csv=out)
        with open(out) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == SWEEP_HEADER
        assert len(rows) == 3
        for row in rows:
            assert row[0] == "R"
            [float(v) for v in row[1:]]  # parses as numbers

    def test_r_zero_equals_lambda_zero(self):
        train_s, test_s, meta = small_data()
        cfg = small_cfg(epochs=2)
        r_rows = sweep("R", [0], cfg, 0, train_s, test_s, meta,
                       model_config=SMALL_MODEL)
        l_rows = sweep("lambda", [0.0], cfg, 0, train_s, test_s, meta,
                       model_config=SMALL_MODEL)
        assert abs(r_rows[0]["L_llm"] - l_rows[0]["L_llm"]) <= 1e-9
        assert abs(r_rows[0]["L_align"] - l_rows[0]["L_align"]) <= 1e-9

    def test_apply_sweep_value_mapping(self):
        cfg = small_cfg()
        assert apply_sweep_value(cfg, "K", 3).weak_k == 3
        assert apply_sweep_value(cfg, "lambda", 0.5).lambda_align == 0.5
        assert apply_sweep_value(cfg, "B", 1).adapter.top_b == 1
        r0 = apply_sweep_value(cfg, "R", 0)
        assert r0.heads_r == 0 and r0.lambda_align == 0.0
        with pytest.raises(ParameterError):
            apply_sweep_value(cfg, "Z", 1)

    def test_empty_values_rejected(self):
        train_s, test_s, meta = small_data()
        with pytest.raises(ParameterError):
            sweep("K", [], small_cfg(), 0, train_s, test_s, meta,
                  model_config=SMALL_MODEL)


@pytest.fixture
def data_dir(tmp_path):
    train_s, test_s, meta = small_data()
    d = tmp_path / "data"
    d.mkdir()
    write_samples(d / "train.jsonl", train_s)
    write_samples(d / "test.jsonl", test_s)
    write_meta(d / "meta.json", meta)
    return d


@pytest.fixture
def train_config_file(tmp_path):
    doc = {
        "model": {"n_layers": 1, "n_heads": 2, "d_visual": 8, "d_model": 8,
                  "vocab_size": 12, "grid": 3, "max_text_len": 6},
        "adapter": {"dense_rank": 2, "expert_rank": 2, "n_q_experts": 2,
                    "n_k_experts": 3, "top_b": 2},
        "train": {"lambda_align": 0.1, "epochs": 1, "lr": 1e-3,
                  "batch_size": 4, "weak_k": 1, "heads_r": 1},
    }
    path = tmp_path / "train.json"
    path.write_text(json.dumps(doc))
    return path


class TestCli:
    def test_gen_data_writes_files(self, tmp_path):
        cfg = tmp_path / "data.json"
        cfg.write_text(json.dumps({"n_train": 4, "n_test": 2, "grid": 3,
                                   "d_visual": 8, "n_concepts": 3,
                                   "n_segments": 2, "n_labels": 3,
                                   "seg_side_min": 1, "seg_side_max": 1}))
        rc = cli.main(["gen-data", "--out", str(tmp_path / "d"),
                       "--config", str(cfg), "--seed", "5"])
        assert rc == 0
        assert (tmp_path / "d" / "train.jsonl").exists()
        assert (tmp_path / "d" / "test.jsonl").exists()
        assert (tmp_path / "d" / "meta.json").exists()

    def test_full_pipeline(self, tmp_path, data_dir, train_config_file):
        run_dir = tmp_path / "run"
        rc = cli.main(["train", "--data", str(data_dir), "--out", str(run_dir),
                       "--config", str(train_config_file), "--seed", "1"])
        assert rc == 0
        ckpt = run_dir / "checkpoint.json"
        assert ckpt.exists()

        report = tmp_path / "report.json"
        rc = cli.main(["evaluate", "--checkpoint", str(ckpt), "--data",
                       str(data_dir / "test.jsonl"), "--out", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["aggregates"]["n"] == 4

        heat_dir = tmp_path / "heat"
        rc = cli.main(["visualize", "--checkpoint", str(ckpt), "--data",
                       str(data_dir / "test.jsonl"), "--out", str(heat_dir),
                       "--first", "2", "--kind", "mean"])
        assert rc == 0
        assert len(list(heat_dir.glob("*.csv"))) == 2
        rc = cli.main(["visualize", "--checkpoint", str(ckpt), "--data",
                       str(data_dir / "test.jsonl"), "--out", str(heat_dir),
                       "--first", "1", "--kind", "refined", "--heads", "1"])
        assert rc == 0
        assert len(list(heat_dir.glob("*.refined.pgm"))) == 1

    def test_weaklabels_cache_and_reuse(self, tmp_path, data_dir,
                                        train_config_file):
        cache = tmp_path / "cache.jsonl"
        rc = cli.main(["weaklabels", "--data", str(data_dir / "train.jsonl"),
                       "--meta", str(data_dir / "meta.json"), "--out",
                       str(cache), "--topk", "1"])
        assert rc == 0
        assert len(cache.read_text().splitlines()) == 8

        rc = cli.main(["train", "--data", str(data_dir), "--out",
                       str(tmp_path / "run2"), "--config",
                       str(train_config_file), "--weak-cache", str(cache)])
        assert rc == 0

    def test_weak_cache_with_other_k_rejected(self, tmp_path, data_dir,
                                              train_config_file, capsys):
        cache = tmp_path / "cache.jsonl"
        rc = cli.main(["weaklabels", "--data", str(data_dir / "train.jsonl"),
                       "--meta", str(data_dir / "meta.json"), "--out",
                       str(cache), "--topk", "1"])
        assert rc == 0
        rc = cli.main(["train", "--data", str(data_dir), "--out",
                       str(tmp_path / "run"), "--config",
                       str(train_config_file), "--weak-cache", str(cache),
                       "--topk", "2"])
        assert rc == 1
        assert "no K=2 record" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", [
        ["train"],
        ["sweep", "--param", "lambda", "--values", "0,0.1"],
    ])
    def test_out_of_vocabulary_test_split_rejected_before_training(
            self, tmp_path, data_dir, train_config_file, capsys, verb):
        _, test_s, _ = small_data()
        bad = dataclasses.replace(test_s[-1], prompt=(12,) + test_s[-1].prompt[1:])
        write_samples(data_dir / "test.jsonl", test_s[:-1] + [bad])
        out = tmp_path / "out"
        rc = cli.main(verb + ["--data", str(data_dir), "--out", str(out),
                              "--config", str(train_config_file)])
        assert rc == 1
        assert "dataset token 12 outside model vocabulary 12" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.rglob("metrics.jsonl"))

    def test_weak_cache_from_other_backend_rejected(self, tmp_path, data_dir,
                                                    train_config_file, capsys):
        cache = tmp_path / "cache.jsonl"
        rc = cli.main(["weaklabels", "--data", str(data_dir / "train.jsonl"),
                       "--meta", str(data_dir / "meta.json"), "--out",
                       str(cache), "--topk", "1", "--noise", "5.0", "--seed", "7"])
        assert rc == 0
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(data_dir), "--out", str(out),
                       "--config", str(train_config_file), "--weak-cache",
                       str(cache)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "no K=1 record" in err
        assert "synthetic-oracle(noise=0.0,seed=0)" in err
        assert not (out / "metrics.jsonl").exists()

    @pytest.mark.parametrize("verb", [
        ["train"],
        ["sweep", "--param", "lambda", "--values", "0,0.1"],
    ])
    @pytest.mark.parametrize("prompt,message", [
        (lambda p: p * 4, "9 prompt+answer tokens, model max_text_len is 6"),
        (lambda p: (-1,) + p[1:], "dataset token -1 outside model vocabulary"),
        (lambda p: (), "has an empty prompt"),
    ], ids=["too-long", "negative-token", "empty-prompt"])
    def test_unfit_test_sample_rejected_before_training(
            self, tmp_path, data_dir, train_config_file, capsys, verb, prompt,
            message):
        _, test_s, _ = small_data()
        bad = dataclasses.replace(test_s[-1], prompt=prompt(test_s[-1].prompt))
        write_samples(data_dir / "test.jsonl", test_s[:-1] + [bad])
        out = tmp_path / "out"
        rc = cli.main(verb + ["--data", str(data_dir), "--out", str(out),
                              "--config", str(train_config_file)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.rglob("metrics.jsonl"))

    @pytest.mark.parametrize("edit,name", [
        (lambda doc: doc["adapter_config"].update(bogus=1), "bogus"),
        (lambda doc: doc["model_config"].pop("max_text_len"), "max_text_len"),
        (lambda doc: doc.pop("tensors"), "tensors"),
        (lambda doc: doc.update(schema="attnalign-checkpoint-2"),
         "attnalign-checkpoint-2"),
    ], ids=["extra-field", "missing-field", "missing-section", "old-schema"])
    def test_checkpoint_must_match_field_for_field(self, tmp_path, data_dir,
                                                   capsys, edit, name):
        model = VisualDecoder(SMALL_MODEL, seed=0)
        adapters = AdapterSet(SMALL_MODEL.n_layers, SMALL_MODEL.d_model,
                              SMALL_MODEL.d_ff, SMALL_ADAPTER)
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(ckpt, model, adapters)
        doc = json.loads(ckpt.read_text())
        edit(doc)
        ckpt.write_text(json.dumps(doc))
        rc = cli.main(["evaluate", "--checkpoint", str(ckpt), "--data",
                       str(data_dir / "test.jsonl"), "--out",
                       str(tmp_path / "report.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert repr(name) in err and "checkpoint" in err
        assert not (tmp_path / "report.json").exists()

    def test_ablation_flags(self, tmp_path, data_dir, train_config_file):
        for flag in ("--no-qmoe", "--no-kmoe", "--no-a3moe"):
            rc = cli.main(["train", "--data", str(data_dir), "--out",
                           str(tmp_path / f"run{flag}"), "--config",
                           str(train_config_file), flag])
            assert rc == 0
            cfg = json.loads((tmp_path / f"run{flag}" / "config.json")
                             .read_text())
            if flag == "--no-qmoe":
                assert not cfg["adapter"]["use_qmoe"]
            if flag == "--no-kmoe":
                assert not cfg["adapter"]["use_kmoe"]
            if flag == "--no-a3moe":
                assert not cfg["adapter"]["use_qmoe"]
                assert not cfg["adapter"]["use_kmoe"]

    def test_sweep_cli(self, tmp_path, data_dir, train_config_file):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--param", "lambda", "--values", "0,0.1",
                       "--data", str(data_dir), "--out", str(out),
                       "--config", str(train_config_file)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == ",".join(SWEEP_HEADER)

    def test_train_overrides(self, tmp_path, data_dir, train_config_file):
        run = tmp_path / "r"
        rc = cli.main(["train", "--data", str(data_dir), "--out", str(run),
                       "--config", str(train_config_file), "--lambda", "0.0",
                       "--heads", "2", "--topk", "2"])
        assert rc == 0
        cfg = json.loads((run / "config.json").read_text())
        assert cfg["lambda_align"] == 0.0
        assert cfg["heads_r"] == 2 and cfg["weak_k"] == 2

    def test_profile_lookup(self, tmp_path, data_dir):
        doc = {"model": {"n_layers": 1, "n_heads": 2, "d_visual": 8,
                         "d_model": 8, "vocab_size": 12, "grid": 3,
                         "max_text_len": 6},
               "adapter": {"dense_rank": 2, "expert_rank": 2,
                           "n_q_experts": 2, "n_k_experts": 3, "top_b": 2},
               "train": {"lr": 1e-3, "batch_size": 4, "weak_k": 1,
                         "heads_r": 1, "epochs": 1}}
        cfgf = tmp_path / "t.json"
        cfgf.write_text(json.dumps(doc))
        rc = cli.main(["train", "--data", str(data_dir), "--out",
                       str(tmp_path / "rp"), "--config", str(cfgf),
                       "--profile", "pathvqa"])
        assert rc == 0
        cfg = json.loads((tmp_path / "rp" / "config.json").read_text())
        assert cfg["lambda_align"] == 0.02
        assert cfg["epochs"] == 1  # explicit value wins over the profile

    def test_error_exit_code(self, tmp_path):
        rc = cli.main(["evaluate", "--checkpoint", str(tmp_path / "nope.json"),
                       "--data", str(tmp_path / "nope.jsonl"), "--out",
                       str(tmp_path / "r.json")])
        assert rc == 1

    # on a config that trains, a field of an earlier version gets a value
    # that version accepted, so only its name can make the run fail
    @pytest.mark.parametrize("section,name,value", [
        ("train", "not_a_field", 1),
        ("train", "selection_mode", "frozen"),
        ("train", "weight_decay", 0.01),
        ("adapter", "lora_scale", 0.5),
        ("adapter", "gate_hidden", 4),
    ], ids=["not_a_field", "selection_mode", "weight_decay", "lora_scale",
            "gate_hidden"])
    def test_unknown_config_field_fails(self, tmp_path, data_dir,
                                        train_config_file, section, name, value):
        doc = json.loads(train_config_file.read_text())
        doc[section][name] = value
        cfgf = tmp_path / "bad.json"
        cfgf.write_text(json.dumps(doc))
        rc = cli.main(["train", "--data", str(data_dir), "--out",
                       str(tmp_path / "x"), "--config", str(cfgf)])
        assert rc == 1
        assert not list(tmp_path.rglob("metrics.jsonl"))


def pin_to_one_core():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least 2 cores in this process's affinity")
def test_train_bytes_do_not_depend_on_the_core_count(tmp_path, data_dir,
                                                     train_config_file):
    """`attnalign train` pinned to one core writes what it writes on all."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    written = []
    for pin in (pin_to_one_core, None):
        out = tmp_path / ("one" if pin else "all")
        subprocess.run([sys.executable, "-m", "attnalign.cli", "train", "--data",
                        str(data_dir), "--out", str(out), "--config",
                        str(train_config_file), "--seed", "1"],
                       env=env, preexec_fn=pin, check=True, capture_output=True)
        written.append([(out / name).read_bytes()
                        for name in ("metrics.jsonl", "checkpoint.json")])
    assert written[1] == written[0]
