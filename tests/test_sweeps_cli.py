import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from attnalign.adapters import AdapterConfig, AdapterSet
from attnalign.data import DataSpec, generate_dataset, write_meta, write_samples
from attnalign.errors import ParameterError, read_json, stored_config
from attnalign.metrics import evaluate
from attnalign.model import ModelConfig, VisualDecoder, save_checkpoint
from attnalign.sweeps import SWEEP_HEADER, apply_sweep_value, run_single, sweep
from attnalign.training import TrainConfig
from attnalign import cli, sweeps

from test_acceptance import A1_DATA, A1_TRAIN


SMALL_ADAPTER = AdapterConfig(dense_rank=2, expert_rank=2, n_q_experts=2,
                              n_k_experts=3, top_b=2)
SMALL_MODEL = ModelConfig(n_layers=1, n_heads=2, d_visual=8, d_model=8,
                          vocab_size=12, grid=3, max_text_len=6)


def small_data(n_train=8, n_test=4, seed=3):
    spec = DataSpec(n_train=n_train, n_test=n_test, grid=3, d_visual=8,
                    n_concepts=3, n_segments=2, n_labels=3, seg_side_min=1,
                    seg_side_max=1, seed=seed)
    return generate_dataset(spec)


def schema_1_meta(spec: dict) -> dict:
    """A meta.json as schema 1 wrote it: the spec plus a stored token layout
    and concept signatures."""
    n, d = spec["n_concepts"], spec["d_visual"]
    return {"schema": "attnalign-dataset-1", "spec": spec,
            "layout": {"n_labels": spec["n_labels"], "n_concepts": n},
            "concept_vectors": [[float(i == j) for j in range(d)]
                                for i in range(n)]}


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
        # lambda stays as given; TrainConfig.aligned turns the term off
        assert r0.heads_r == 0 and r0.lambda_align == cfg.lambda_align
        assert not r0.aligned
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
def no_training(monkeypatch):
    """Fails the test if the CLI starts training."""
    def refuse(*args, **kwargs):
        raise AssertionError("training started")
    monkeypatch.setattr(cli, "train", refuse)
    monkeypatch.setattr(sweeps, "train", refuse)


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

    # {c} is the checkpoint as error lines name it, {t} its tensor 'w_out'
    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["adapter_config"].update(bogus=1),
         "AdapterConfig field 'bogus' unexpected in section 'adapter_config' of {c}"),
        (lambda doc: doc["model_config"].pop("max_text_len"),
         "ModelConfig field 'max_text_len' missing from section 'model_config' "
         "of {c}"),
        (lambda doc: doc.pop("tensors"), "section 'tensors' missing from {c}"),
        (lambda doc: doc.update(schema="attnalign-checkpoint-2"),
         "unknown checkpoint schema 'attnalign-checkpoint-2' in {path}"),
        ([], "{c} is [], not a JSON object"),
        (lambda doc: doc.update(model_config=None),
         "section 'model_config' of {c} is None, not a JSON object"),
        (lambda doc: doc.update(adapter_tensors=[]),
         "section 'adapter_tensors' of {c} is [], not a JSON object"),
        (lambda doc: doc.update(adapter_config=[]),
         "section 'adapter_config' of {c} is [], not a JSON object"),
        (lambda doc: doc["tensors"].update(w_out=None),
         "{t} is None, not a JSON object"),
        (lambda doc: doc["tensors"].update(w_out="x"),
         "{t} is 'x', not a JSON object"),
        (lambda doc: doc["tensors"]["w_out"].pop("data"),
         "key 'data' missing from {t}"),
        (lambda doc: doc["tensors"]["w_out"].update(
            data=doc["tensors"]["w_out"]["data"][:-8]),
         "{t} holds 762 bytes, its shape (12, 8) needs 768"),
        (lambda doc: doc["tensors"]["w_out"].update(shape=[12, -8]),
         "{t} has shape [12, -8], model needs [12, 8]"),
        (lambda doc: doc["tensors"]["w_out"].update(shape=[12, "8"]),
         "item 1 of key 'shape' of {t} is '8', not an int"),
        (lambda doc: doc["tensors"]["w_out"].update(data="@@@@"),
         "{t} has data that is not base64"),
        (lambda doc: next(iter(doc["adapter_tensors"].values())).update(data=1),
         "key 'data' of tensor 'adapter.layer0.kgate.b1' of section "
         "'adapter_tensors' of {c} is 1, not a string"),
        (lambda doc: doc["model_config"].update(n_heads=0),
         "section 'model_config' of {c}: n_heads must be positive"),
        (lambda doc: doc.pop("extra"), "section 'extra' missing from {c}"),
        (lambda doc: doc["adapter_config"].update(dense_rank=0),
         "section 'adapter_config' of {c}: dense_rank must be >= 1, got 0"),
    ], ids=["extra-field", "missing-field", "missing-section", "old-schema",
            "not-an-object", "null-config", "list-section", "list-config",
            "null-tensor", "string-tensor", "tensor-without-data",
            "truncated-data", "negative-dimension", "string-dimension",
            "data-not-base64", "adapter-data-not-a-string", "zero-heads",
            "missing-extra", "zero-rank"])
    def test_checkpoint_must_match_field_for_field(self, tmp_path, data_dir,
                                                   capsys, edit, message):
        # a top level or a section that is not an object used to end in an
        # AttributeError or TypeError traceback; a tensor entry that is not
        # {shape, data} in a TypeError traceback or an error line that named
        # neither the checkpoint nor the tensor; "n_heads": 0 in a
        # ZeroDivisionError traceback, and "dense_rank": 0 in an error line
        # that named no file
        model = VisualDecoder(SMALL_MODEL, seed=0)
        adapters = AdapterSet(SMALL_MODEL.n_layers, SMALL_MODEL.d_model,
                              SMALL_MODEL.d_ff, SMALL_ADAPTER)
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(ckpt, model, adapters)
        doc = json.loads(ckpt.read_text())
        if callable(edit):
            edit(doc)
        else:
            doc = edit   # the whole document replaced
        ckpt.write_text(json.dumps(doc))
        rc = cli.main(["evaluate", "--checkpoint", str(ckpt), "--data",
                       str(data_dir / "test.jsonl"), "--out",
                       str(tmp_path / "report.json")])
        assert rc == 1
        c = f"checkpoint {ckpt}"
        t = f"tensor 'w_out' of section 'tensors' of {c}"
        assert capsys.readouterr().err == \
            f"error: {message.format(c=c, t=t, path=ckpt)}\n"
        assert not (tmp_path / "report.json").exists()

    def test_checkpoint_without_adapters_stores_null_config(self, tmp_path,
                                                             data_dir):
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(ckpt, VisualDecoder(SMALL_MODEL, seed=0))
        assert json.loads(ckpt.read_text())["adapter_config"] is None
        assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--data",
                         str(data_dir / "test.jsonl"), "--out",
                         str(tmp_path / "report.json")]) == 0

    # {m} is the meta file as error lines name it, {s} its 'spec' section
    @pytest.mark.parametrize("verb", ["train", "sweep"])
    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["spec"].update(bogus=1),
         "DataSpec field 'bogus' unexpected in {s}"),
        (lambda doc: doc["spec"].pop("n_background_segments"),
         "DataSpec field 'n_background_segments' missing from {s}"),
        (lambda doc: doc.update(layout={"n_labels": 7, "n_concepts": 3}),
         "section 'layout' unexpected in {m}"),
        (lambda doc: doc.update(schema="attnalign-dataset-0"),
         "unknown dataset meta schema 'attnalign-dataset-0' in {path}"),
        (lambda doc: doc.update(schema_1_meta(doc["spec"])),
         "unknown dataset meta schema 'attnalign-dataset-1' in {path}"),
        (lambda doc: doc.update(schema="attnalign-dataset-2", spec={
            **doc["spec"], "concept_scale": 3.0, "label_scale": 1.0}),
         "unknown dataset meta schema 'attnalign-dataset-2' in {path}"),
        (lambda doc: doc.update(schema="attnalign-dataset-3"),
         "unknown dataset meta schema 'attnalign-dataset-3' in {path}"),
        (lambda doc: doc["spec"].update(concept_scale=3.0),
         "DataSpec field 'concept_scale' unexpected in {s}"),
        (lambda doc: doc["spec"].update(d_visual=4),
         "{s}: d_visual=4 too small for 3 concepts + 3 labels"),
        ([], "{m} is [], not a JSON object"),
        (lambda doc: doc.update(spec=None),
         "section 'spec' of {m} is None, not a JSON object"),
        (lambda doc: doc["spec"].update(grid="8"),
         "DataSpec field 'grid' of {s} is '8', not an int"),
    ], ids=["unknown-field", "missing-field", "stored-layout", "schema-0",
            "schema-1", "schema-2", "schema-3", "removed-scale", "invalid-spec",
            "not-an-object", "null-spec", "string-int"])
    def test_meta_must_match_field_for_field(self, tmp_path, data_dir,
                                             train_config_file, capsys, verb,
                                             edit, message):
        # a missing spec field used to train silently on its default, an
        # unknown one to end in a TypeError traceback, a stored layout that
        # disagreed with the spec to fail later on a misleading prompt error,
        # and an unknown schema or an invalid spec to be read as if valid; a
        # top level or a spec that is not an object, or a field of the wrong
        # type, ended in a traceback
        path = data_dir / "meta.json"
        doc = json.loads(path.read_text())
        if callable(edit):
            edit(doc)
        else:
            doc = edit   # the whole document replaced
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {"train": ["train"],
                "sweep": ["sweep", "--param", "lambda", "--values", "0,0.1"]}[verb]
        assert cli.main(argv + ["--data", str(data_dir), "--out", str(out),
                                "--config", str(train_config_file)]) == 1
        m = f"dataset meta {path}"
        spec = f"section 'spec' of {m}"
        assert capsys.readouterr().err == \
            f"error: {message.format(m=m, s=spec, path=path)}\n"
        assert not out.exists()
        assert not list(tmp_path.rglob("metrics.jsonl"))

    @pytest.mark.parametrize("verb", ["train", "sweep"])
    @pytest.mark.parametrize("field,value,message", [
        ("n_concepts", 4, "its prompt is (6, 3), not one of "
                          "[(7, 3), (7, 4), (7, 5), (7, 6)]"),
        ("n_labels", 2, "its prompt is (6, 3), not one of [(5, 2), (5, 3), (5, 4)]"),
        ("d_visual", 9, "its feature width is 8, not one of [9]"),
    ], ids=["n_concepts", "n_labels", "d_visual"])
    def test_meta_must_describe_its_samples(self, tmp_path, data_dir,
                                            train_config_file, capsys,
                                            no_training, verb, field, value,
                                            message):
        # a valid spec that did not describe its samples was used on them:
        # with n_concepts 4 of 3 training started, every prompt embedded as
        # a label channel; n_labels 2 of 3 ended in "prompt (6, 5) names no
        # known concept" and d_visual 9 of 8 in a backend shape error, both
        # naming no file
        path = data_dir / "meta.json"
        doc = json.loads(path.read_text())
        doc["spec"][field] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        argv = {"train": ["train"],
                "sweep": ["sweep", "--param", "lambda", "--values", "0,0.1"]}[verb]
        assert cli.main(argv + ["--data", str(data_dir), "--out", str(out),
                                "--config", str(train_config_file)]) == 1
        assert capsys.readouterr().err == (
            f"error: {data_dir / 'train.jsonl'} line 1 does not fit dataset "
            f"meta {path}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("cut,fragment", [
        (lambda b64: b64[:-8], "holds 570 bytes, its shape (9, 8) needs 576"),
        (lambda b64: "@@@@" + b64[4:], "has data that is not base64"),
    ], ids=["truncated", "not-base64"])
    def test_sample_features_must_decode_exactly(self, tmp_path, data_dir, capsys,
                                                 cut, fragment):
        # a truncated features_b64 used to end in "error: buffer size must be
        # a multiple of element size", which named neither file nor field
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(ckpt, VisualDecoder(SMALL_MODEL, seed=0))
        path = data_dir / "test.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[2])
        doc["features_b64"] = cut(doc["features_b64"])
        lines[2] = json.dumps(doc, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        rc = cli.main(["evaluate", "--checkpoint", str(ckpt), "--data", str(path),
                       "--out", str(tmp_path / "report.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: key 'features_b64' of {path} line 3 {fragment}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("verb", [
        ["train"],
        ["sweep", "--param", "lambda", "--values", "0,0.1"],
    ])
    @pytest.mark.parametrize("edit,message", [
        (lambda doc: [], "config file {path} is [], not a JSON object"),
        (lambda doc: {**doc, "trian": {"epochs": 1}},
         "key 'trian' unexpected in config file {path}"),
        (lambda doc: {**doc, "train": {**doc["train"], "profile": "slake"}},
         "TrainConfig field 'profile' unexpected in section 'train' of "
         "config file {path}"),
        (lambda doc: {**doc, "train": {**doc["train"],
                                       "adapter": {"dense_rank": 99}}},
         "TrainConfig field 'adapter' unexpected in section 'train' of "
         "config file {path}"),
    ], ids=["list", "misspelt-section", "removed-profile", "adapter-in-train"])
    def test_train_config_must_be_an_object_of_known_sections(
            self, tmp_path, data_dir, train_config_file, capsys, verb, edit,
            message):
        # a list ended in an AttributeError traceback, and a misspelt section
        # trained on the defaults and exited 0; a train section holds only
        # TrainConfig's JSON fields, so the task profiles' old field is
        # refused, and so is an adapter there, which the top-level "adapter"
        # section used to overwrite silently
        doc = edit(json.loads(train_config_file.read_text()))
        train_config_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main(verb + ["--data", str(data_dir), "--out", str(out),
                              "--config", str(train_config_file)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {message.format(path=train_config_file)}\n"
        assert not out.exists()
        assert not list(tmp_path.rglob("metrics.jsonl"))

    @pytest.mark.parametrize("section", ["train", "model", "adapter"])
    def test_train_config_sections_must_be_objects(
            self, tmp_path, data_dir, train_config_file, capsys, section):
        # a list "train" section trained 6 default epochs and exited 0, since
        # dict([]) is {}; a list "model" or "adapter" ended in a TypeError
        # traceback from cls(**[])
        doc = json.loads(train_config_file.read_text())
        doc[section] = []
        train_config_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main(["train", "--data", str(data_dir), "--out", str(out),
                       "--config", str(train_config_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: key {section!r} of config file {train_config_file} "
            "is [], not a JSON object\n")
        assert not out.exists()

    @pytest.mark.parametrize("verb", [
        ["train"],
        ["sweep", "--param", "lambda", "--values", "0,0.1"],
    ])
    @pytest.mark.parametrize("section,field,value,kind", [
        ("train", "epochs", "2", "an int"),
        ("train", "lr", "0.1", "a number"),
        ("train", "heads_r", True, "an int"),
        ("model", "n_layers", 0.5, "an int"),
        ("adapter", "use_kmoe", 1, "a bool"),
    ], ids=["string-int", "string-float", "bool-int", "float-int", "int-bool"])
    def test_train_config_values_must_have_their_field_types(
            self, tmp_path, data_dir, train_config_file, capsys, verb, section,
            field, value, kind):
        # "epochs": "2" and "n_layers": 0.5 ended in a TypeError traceback,
        # and a bool passed for an int (or an int for a bool) trained on it
        doc = json.loads(train_config_file.read_text())
        doc[section][field] = value
        train_config_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main(verb + ["--data", str(data_dir), "--out", str(out),
                              "--config", str(train_config_file)])
        assert rc == 1
        cls = {"train": "TrainConfig", "model": "ModelConfig",
               "adapter": "AdapterConfig"}[section]
        assert capsys.readouterr().err == (
            f"error: {cls} field {field!r} of section {section!r} of config "
            f"file {train_config_file} is {value!r}, not {kind}\n")
        assert not out.exists()
        assert not list(tmp_path.rglob("metrics.jsonl"))

    @pytest.mark.parametrize("verb", [
        ["train"],
        ["sweep", "--param", "lambda", "--values", "0,0.1"],
    ])
    def test_zero_heads_in_a_config_file(self, tmp_path, data_dir,
                                         train_config_file, capsys, verb):
        # ended in a ZeroDivisionError traceback: divisibility by n_heads was
        # checked before its sign
        doc = json.loads(train_config_file.read_text())
        doc["model"]["n_heads"] = 0
        train_config_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main(verb + ["--data", str(data_dir), "--out", str(out),
                              "--config", str(train_config_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: section 'model' of config file {train_config_file}: "
            "n_heads must be positive\n")
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.pop("features_b64"),
         "key 'features_b64' missing from {where}"),
        (lambda doc: doc.update(extra=1), "key 'extra' unexpected in {where}"),
        (lambda doc: doc.update(segments=[doc["segments"][0],
                                          {"tokens": doc["segments"][1]}]),
         "item 1 of key 'segments' of {where} is {{'tokens': ["),
        ('{"id": "te000001",', "{where} is not valid JSON: "),
        ("[]", "{where} is [], not a JSON object"),
        (lambda doc: doc.update(grid="8"), "key 'grid' of {where} is '8', not an int"),
        (lambda doc: doc.update(prompt=["4", "1"]),
         "item 0 of key 'prompt' of {where} is '4', not an int\n"),
        (lambda doc: doc.update(roi=[1.5]),
         "item 0 of key 'roi' of {where} is 1.5, not an int\n"),
        (lambda doc: doc.update(roi=[-1]),
         "{where}: key 'roi' is [-1], not a nonempty list of patches in [0, 9)\n"),
        (lambda doc: doc.update(segments=[[9], doc["segments"][1]]),
         "{where}: item 0 of key 'segments' is [9], not a nonempty list of "
         "patches in [0, 9)\n"),
        (lambda doc: doc.update(answer=[]),
         "{where}: dataset sample te000001 has an empty answer\n"),
        (lambda doc: doc.update(queried_concept=doc["prompt"][1] - 3, segments=[
            {"tokens": t, "concept": c, "label": c} for c, t in
            enumerate(doc["segments"])]),
         "key 'queried_concept' unexpected in {where}\n"),
    ], ids=["missing-key", "extra-key", "segment-key", "bad-json", "not-object",
            "string-grid", "string-prompt", "float-roi", "negative-roi",
            "token-outside-grid", "empty-answer", "schema-3-line"])
    def test_sample_lines_are_checked_before_use(self, tmp_path, data_dir, capsys,
                                                 edit, message):
        # a missing key used to print "error: 'features_b64'", naming
        # neither the file nor the line, and bad JSON a bare decoder message;
        # string prompt tokens ended in a TypeError traceback, a float RoI
        # patch was scored as its integer part and -1 as the last patch, and
        # an empty answer ended in an error that named no file. A schema-3
        # line also held the queried concept and each segment's concept and
        # label; evaluate reads no meta.json, so its keys tell the old schema
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(ckpt, VisualDecoder(SMALL_MODEL, seed=0))
        path = data_dir / "test.jsonl"
        lines = path.read_text().splitlines()
        if callable(edit):
            doc = json.loads(lines[1])
            edit(doc)
            lines[1] = json.dumps(doc, sort_keys=True)
        else:
            lines[1] = edit   # the whole line replaced
        path.write_text("\n".join(lines) + "\n")
        rc = cli.main(["evaluate", "--checkpoint", str(ckpt), "--data", str(path),
                       "--out", str(tmp_path / "report.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(where=f"{path} line 2"))
        assert err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    @staticmethod
    def edit_line_2(path, edit):
        """Rewrite line 2 of a samples file by ``edit(line 2, line 1)``."""
        lines = path.read_text().splitlines()
        first, doc = json.loads(lines[0]), json.loads(lines[1])
        edit(doc, first)
        lines[1] = json.dumps(doc, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        return doc

    def refused(self, verb, tmp_path, data_dir, train_config_file, capsys,
                message):
        """Run train or evaluate on the data and check it fails with
        ``message``, naming the edited file, before any output is made."""
        out = tmp_path / "out"
        if verb == "train":
            argv = ["train", "--data", str(data_dir), "--out", str(out),
                    "--config", str(train_config_file)]
        else:
            ckpt = tmp_path / "checkpoint.json"
            save_checkpoint(ckpt, VisualDecoder(SMALL_MODEL, seed=0))
            argv = ["evaluate", "--checkpoint", str(ckpt), "--data",
                    str(data_dir / "test.jsonl"), "--out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("verb,split", [("train", "train.jsonl"),
                                            ("evaluate", "test.jsonl")])
    def test_repeated_sample_id_refused(self, tmp_path, data_dir, train_config_file,
                                        capsys, no_training, verb, split):
        # weak labels are keyed by id: line 1 used to train on line 2's
        # labels, and train exited 0
        path = data_dir / split
        doc = self.edit_line_2(path, lambda doc, first: doc.update(id=first["id"]))
        self.refused(verb, tmp_path, data_dir, train_config_file, capsys,
                     f"{path} line 2: sample id {doc['id']!r} is also the id "
                     "of line 1")

    @pytest.mark.parametrize("verb,split", [("train", "train.jsonl"),
                                            ("evaluate", "test.jsonl")])
    @pytest.mark.parametrize("key", ["roi", "segment"])
    def test_repeated_patch_refused(self, tmp_path, data_dir, train_config_file,
                                    capsys, no_training, verb, split, key):
        # a doubled segment failed late with "segment 'seg0' has bad token
        # indices", naming no file or line; a tripled RoI was scored, its
        # patch counted three times in coverage and intensity
        path = data_dir / split

        def edit(doc, _):
            if key == "roi":
                doc["roi"] = doc["roi"] * 3
            else:
                doc["segments"][0] = doc["segments"][0] * 2

        doc = self.edit_line_2(path, edit)
        name, patches = (("key 'roi'", doc["roi"]) if key == "roi" else
                         ("item 0 of key 'segments'", doc["segments"][0]))
        self.refused(verb, tmp_path, data_dir, train_config_file, capsys,
                     f"{path} line 2: {name} is {patches}, which repeats a patch")

    def test_answer_outside_the_labels_refused(self, tmp_path, data_dir,
                                               train_config_file, capsys,
                                               no_training):
        # a concept token as a test sample's answer was taken for a label
        path = data_dir / "test.jsonl"
        self.edit_line_2(path, lambda doc, _: doc.update(answer=[3]))
        self.refused("train", tmp_path, data_dir, train_config_file, capsys,
                     f"{path} line 2 does not fit dataset meta "
                     f"{data_dir / 'meta.json'}: its answer is (3,), not one "
                     "of [(0,), (1,), (2,)]")

    def test_config_json_records_model_seed_and_weak_noise(self, tmp_path, data_dir,
                                                           train_config_file):
        # neither the 3 nor the 0.5 was anywhere in the run's config.json
        doc = json.loads(train_config_file.read_text())
        doc["model_seed"] = 3
        train_config_file.write_text(json.dumps(doc))
        run = tmp_path / "run"
        assert cli.main(["train", "--data", str(data_dir), "--out", str(run),
                         "--config", str(train_config_file),
                         "--weak-noise", "0.5"]) == 0
        cfg = json.loads((run / "config.json").read_text())
        assert cfg["model_seed"] == 3 and cfg["weak_noise"] == 0.5
        assert cfg["seed"] == 0 and cfg["model"] == doc["model"]

    @pytest.mark.parametrize("value,kind", [("x", "an int"), (1.7, "an int"),
                                            (True, "an int"), (-1, ">= 0")],
                             ids=["string", "float", "bool", "negative"])
    def test_model_seed_must_be_an_int(self, tmp_path, data_dir,
                                       train_config_file, capsys, value, kind):
        # "x" used to print int()'s own message, 1.7 trained with seed 1, and
        # -1 printed numpy's own message
        doc = json.loads(train_config_file.read_text())
        doc["model_seed"] = value
        train_config_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main(["train", "--data", str(data_dir), "--out", str(out),
                       "--config", str(train_config_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: key 'model_seed' of config file {train_config_file} "
            f"is {value!r}, not {kind}\n")
        assert not out.exists()

    def test_gen_data_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "data.json"
        cfg.write_text("[]")
        rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--config",
                       str(cfg), "--seed", "5"])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: config file {cfg} is [], not a JSON object\n"
        assert not (tmp_path / "d").exists()

    def test_gen_data_config_values_must_have_their_field_types(self, tmp_path,
                                                                capsys):
        # used to end in a TypeError traceback from DataSpec.validate
        cfg = tmp_path / "data.json"
        cfg.write_text(json.dumps({"grid": "8"}))
        rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--config",
                       str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: DataSpec field 'grid' of config file {cfg} is '8', "
            "not an int\n")
        assert not (tmp_path / "d").exists()

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

    @pytest.mark.parametrize("param,values,bad,kind", [
        ("K", "1,1.5", "1.5", "a number, whole and >= 0"),
        ("R", "1,x", "x", "a number, whole and >= 0"),
        ("R", "-1", "-1", "a number, whole and >= 0"),
        ("B", "2e0,inf", "inf", "a number, whole and >= 0"),
        ("lambda", "0.1,x", "x", "a number"),
        ("lambda", "nan", "nan", "a number"),
    ], ids=["fractional-K", "string-R", "negative-R", "infinite-B",
            "string-lambda", "nan-lambda"])
    def test_sweep_values_must_fit_the_param(self, tmp_path, data_dir,
                                             train_config_file, capsys, param,
                                             values, bad, kind):
        # K=1.5 trained with K=1 and wrote "K,1.5" to the CSV, "x" printed
        # float()'s own message, which named no option, and R=-1 stopped on
        # a misleading "lambda > 0 needs a weak-label set per sample"
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--param", param, "--values", values, "--data",
                       str(data_dir), "--out", str(out), "--config",
                       str(train_config_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: --values item {bad!r} is not {kind}, as --param {param} "
            "needs\n")
        assert not out.exists()

    def test_train_overrides(self, tmp_path, data_dir, train_config_file):
        run = tmp_path / "r"
        rc = cli.main(["train", "--data", str(data_dir), "--out", str(run),
                       "--config", str(train_config_file), "--lambda", "0.0",
                       "--heads", "2", "--topk", "2"])
        assert rc == 0
        cfg = json.loads((run / "config.json").read_text())
        assert cfg["lambda_align"] == 0.0
        assert cfg["heads_r"] == 2 and cfg["weak_k"] == 2

    def test_profile_option_refused(self, tmp_path, data_dir,
                                    train_config_file, capsys):
        # --profile is gone with the task profiles; argparse refuses it
        run = tmp_path / "run"
        with pytest.raises(SystemExit) as info:
            cli.main(["train", "--data", str(data_dir), "--out", str(run),
                      "--config", str(train_config_file), "--profile",
                      "slake"])
        assert info.value.code == 2
        assert "unrecognized arguments: --profile slake" in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("verb", [
        ["train"],
        ["sweep", "--param", "lambda", "--values", "0,0.1"],
    ])
    @pytest.mark.parametrize("section,field,value,message", [
        ("train", "epochs", 0, "epochs must be >= 1, got 0"),
        ("train", "batch_size", 0, "batch_size must be >= 1, got 0"),
        ("train", "weak_k", 0, "weak_k must be >= 1, got 0"),
        ("train", "lr", -1.0, "lr must be >= 0, got -1.0"),
        ("train", "heads_r", -1, "heads_r must be >= 0, got -1"),
        ("train", "heads_r", 3,
         "heads_r=3 is more than the 2 attention heads of the model"),
        ("adapter", "dense_rank", 0, "dense_rank must be >= 1, got 0"),
        ("adapter", "n_k_experts", 0, "n_k_experts must be >= 1, got 0"),
        ("adapter", "top_b", 4, "top_b=4 outside [1, 3]"),
    ], ids=["zero-epochs", "zero-batch", "zero-k", "negative-lr", "negative-r",
            "too-many-heads", "zero-rank", "no-key-experts", "top-b-over-experts"])
    def test_config_values_out_of_range_refused_before_training(
            self, tmp_path, data_dir, train_config_file, capsys, no_training,
            verb, section, field, value, message):
        # zero epochs ended in an IndexError traceback, a zero batch size in
        # "error: [Errno 22] Invalid argument", a negative lr trained, R = 3
        # stopped at the first batch and a zero rank named no file
        doc = json.loads(train_config_file.read_text())
        doc[section][field] = value
        train_config_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main(verb + ["--data", str(data_dir), "--out", str(out),
                              "--config", str(train_config_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: section {section!r} of config file {train_config_file}: "
            f"{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("verb", [
        ["train"],
        ["sweep", "--param", "lambda", "--values", "0,0.1"],
    ])
    @pytest.mark.parametrize("field", ["lr", "lambda_align"])
    def test_config_values_that_overflow_refused_before_training(
            self, tmp_path, data_dir, train_config_file, capsys, no_training,
            verb, field):
        # 1e999 reads as inf; an lr of inf trained 8 steps behind a numpy
        # RuntimeWarning, then stopped at a non-finite loss
        doc = json.loads(train_config_file.read_text())
        doc["train"][field] = "inf"
        train_config_file.write_text(json.dumps(doc).replace('"inf"', "1e999"))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(verb + ["--data", str(data_dir), "--out", str(out),
                                  "--config", str(train_config_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: section 'train' of config file {train_config_file}: "
            f"{field} must be finite, got inf\n")
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    @pytest.mark.parametrize("option,message", [
        (["--topk", "0"], "option --topk: weak_k must be >= 1, got 0"),
        (["--heads", "-1"], "option --heads: heads_r must be >= 0, got -1"),
        (["--heads", "40"], "option --heads: heads_r=40 is more than the 2 "
                            "attention heads of the model"),
        (["--lambda", "-0.5"],
         "option --lambda: lambda_align must be >= 0, got -0.5"),
        (["--lambda", "inf"], "option --lambda: lambda_align must be finite, got inf"),
        (["--seed", "-1"], "option --seed: seed must be >= 0, got -1"),
    ], ids=["zero-k", "negative-r", "too-many-heads", "negative-lambda",
            "infinite-lambda", "negative-seed"])
    def test_options_out_of_range_refused_before_training(
            self, tmp_path, data_dir, train_config_file, capsys, no_training,
            option, message):
        # --topk 0 printed "error: k must be >= 1, got 0", naming no option,
        # --heads -1 the misleading "lambda > 0 needs a weak-label set per
        # sample", --heads 40 stopped only at the first batch and --lambda
        # inf trained a step, then stopped at a non-finite loss
        out = tmp_path / "out"
        rc = cli.main(["train", "--data", str(data_dir), "--out", str(out),
                       "--config", str(train_config_file), *option])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("param,values,message", [
        ("B", "2,4", "sweep value B=4.0: top_b=4 outside [1, 3]"),
        ("R", "1,3", "sweep value R=3.0: heads_r=3 is more than the 2 "
                     "attention heads of the model"),
        ("K", "1,0", "sweep value K=0.0: weak_k must be >= 1, got 0"),
    ], ids=["B", "R", "K"])
    def test_every_sweep_value_checked_before_the_first_run(
            self, tmp_path, data_dir, train_config_file, capsys, no_training,
            param, values, message):
        # B = 2 used to train before B = 9 stopped the sweep, with no CSV
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--param", param, "--values", values, "--data",
                       str(data_dir), "--out", str(out), "--config",
                       str(train_config_file)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("section,field,value,param,reason", [
        ("adapter", "use_kmoe", False, "B", "use_kmoe is false"),
        ("train", "lambda_align", 0, "K",
         "alignment is off at lambda_align=0 and heads_r=1"),
        ("train", "heads_r", 0, "K",
         "alignment is off at lambda_align=0.1 and heads_r=0"),
        ("train", "lambda_align", 0, "R", "lambda_align is 0"),
        ("train", "heads_r", 0, "lambda", "heads_r is 0"),
    ], ids=["B-without-kmoe", "K-at-lambda-0", "K-at-R-0", "R-at-lambda-0",
            "lambda-at-R-0"])
    def test_sweep_of_a_param_the_run_ignores_refused(
            self, tmp_path, data_dir, train_config_file, capsys, no_training,
            section, field, value, param, reason):
        # B without K-MoE and K at lambda = 0 trained every value and wrote
        # identical CSV rows
        doc = json.loads(train_config_file.read_text())
        doc[section][field] = value
        train_config_file.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--param", param, "--values", "1,2", "--data",
                       str(data_dir), "--out", str(out), "--config",
                       str(train_config_file)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: sweep --param {param}: every run would ignore it, since "
            f"{reason}\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, value, low", [
        ("n_train", -3, 0), ("n_test", -3, 0), ("grid", -8, 1),
        ("n_background_segments", -2, 0)],
        ids=["n_train", "n_test", "grid", "n_background_segments"])
    def test_gen_data_refuses_a_negative_split(self, tmp_path, capsys, field,
                                               value, low):
        # n_train = -3 wrote 0 train samples and exited 0; grid = -8 ended in
        # a numpy traceback; n_background_segments = -2 proposed no background
        # segment and exited 0
        cfg = tmp_path / "data.json"
        cfg.write_text(json.dumps({"n_train": 2, "n_test": 1, field: value}))
        rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--config",
                       str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: config file {cfg}: {field} must be >= {low}, got {value}\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("field", ["feature_noise"])
    def test_gen_data_refuses_a_value_that_overflows(self, tmp_path, capsys, field):
        # a feature_noise of 1e999 (inf) wrote non-finite features and exited
        # 0; train then failed naming only weak-label segment 'seg0'
        cfg = tmp_path / "data.json"
        cfg.write_text(f'{{"{field}": 1e999}}')
        rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--config",
                       str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: config file {cfg}: {field} must be finite, got inf\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("field", ["concept_scale", "label_scale"])
    def test_gen_data_refuses_a_removed_scale(self, tmp_path, capsys, field):
        # the concept and label scales are constants of data.py now
        cfg = tmp_path / "data.json"
        cfg.write_text(json.dumps({"n_train": 2, "n_test": 1, field: 3.0}))
        rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--config",
                       str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: DataSpec field {field!r} unexpected in config file {cfg}\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("split", ["train.jsonl", "test.jsonl"])
    def test_train_and_sweep_refuse_an_empty_split(
            self, tmp_path, data_dir, train_config_file, capsys, no_training,
            split):
        # an empty test split trained a whole epoch, then stopped with
        # "error: evaluation needs at least one sample", naming no file
        (data_dir / split).write_text("")
        for verb in (["train"], ["sweep", "--param", "R", "--values", "1"]):
            out = tmp_path / "out"
            rc = cli.main(verb + ["--data", str(data_dir), "--out", str(out),
                                  "--config", str(train_config_file)])
            assert rc == 1
            assert capsys.readouterr().err == \
                f"error: {data_dir / split} holds no samples\n"
            assert not out.exists()

    def test_zero_test_samples_generated_then_refused_by_train(
            self, tmp_path, train_config_file, capsys, no_training):
        cfg = tmp_path / "data.json"
        cfg.write_text(json.dumps({"n_train": 4, "n_test": 0, "grid": 3,
                                   "d_visual": 8, "n_concepts": 3,
                                   "n_segments": 2, "n_labels": 3,
                                   "seg_side_min": 1, "seg_side_max": 1}))
        data = tmp_path / "d"
        assert cli.main(["gen-data", "--out", str(data), "--config", str(cfg)]) == 0
        capsys.readouterr()
        rc = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "out"),
                       "--config", str(train_config_file)])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {data / 'test.jsonl'} holds no samples\n"

    @pytest.mark.parametrize("verb", ["evaluate", "visualize"])
    def test_evaluate_and_visualize_refuse_an_empty_data_file(
            self, tmp_path, data_dir, capsys, verb):
        ckpt = tmp_path / "checkpoint.json"
        save_checkpoint(ckpt, VisualDecoder(SMALL_MODEL, seed=0))
        path = data_dir / "test.jsonl"
        path.write_text("")
        out = tmp_path / "out"
        rc = cli.main([verb, "--checkpoint", str(ckpt), "--data", str(path),
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path} holds no samples\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["gen-data", "--seed", "-1"], "option --seed: seed must be >= 0, got -1"),
        (["visualize", "--kind", "refined", "--heads", "40"],
         "option --heads: top_r=40 outside [1, 2], the L x H heads of the model"),
        (["visualize", "--kind", "refined", "--heads", "0"],
         "option --heads: top_r=0 outside [1, 2], the L x H heads of the model"),
        (["evaluate", "--tau", "-1"],
         "option --tau: tau=-1.0 is not a threshold in [0, 1]"),
        (["evaluate", "--tau", "nan"],
         "option --tau: tau=nan is not a threshold in [0, 1]"),
        (["evaluate", "--tau", "2"],
         "option --tau: tau=2.0 is not a threshold in [0, 1]"),
        (["visualize", "--first", "-1"],
         "option --first: -1 is not a sample count >= 1"),
        (["visualize", "--first", "0"],
         "option --first: 0 is not a sample count >= 1"),
        (["train", "--config", "{train_config}", "--weak-noise", "-1"],
         "option --weak-noise: noise must be >= 0, got -1.0"),
        (["train", "--config", "{train_config}", "--weak-noise", "inf"],
         "option --weak-noise: noise must be finite, got inf"),
        (["train", "--config", "{train_config}", "--weak-noise=-inf"],
         "option --weak-noise: noise must be >= 0, got -inf"),
        (["train", "--config", "{train_config}", "--weak-noise", "nan"],
         "option --weak-noise: noise must be >= 0, got nan"),
        (["visualize", "--ids", "te000000,,nope"],
         "option --ids: no sample has the id 'nope'"),
        (["visualize", "--ids", "nope"],
         "option --ids: no sample has the id 'nope'"),
        (["visualize", "--ids", ","], "option --ids: ',' names no sample id"),
        (["visualize", "--ids", ""], "option --ids: '' names no sample id"),
    ], ids=["gen-data-seed", "visualize-heads-40", "visualize-heads-0",
            "evaluate-tau-negative", "evaluate-tau-nan", "evaluate-tau-2",
            "visualize-first-negative", "visualize-first-0", "train-weak-noise",
            "train-weak-noise-inf", "train-weak-noise-negative-inf",
            "train-weak-noise-nan", "visualize-ids-one-unknown",
            "visualize-ids-all-unknown", "visualize-ids-comma",
            "visualize-ids-empty"])
    def test_options_outside_train_config_named_when_refused(
            self, tmp_path, data_dir, train_config_file, capsys, no_training,
            argv, message):
        # each printed an error naming no option, and evaluate's --tau -1,
        # nan and 2 exited 0 with a coverage of 1 or 0, as visualize's
        # --first -1 did with heatmaps of all samples but the last, --ids
        # with those of the ids that name a sample (--ids , and --ids '' named
        # no option), and train's --weak-noise inf with a run on weak labels
        # ranked by NaN similarities
        checkpoint = tmp_path / "checkpoint.json"
        save_checkpoint(checkpoint, VisualDecoder(SMALL_MODEL),
                        AdapterSet(1, 8, 32, SMALL_ADAPTER))
        inputs = {"gen-data": [],
                  "visualize": ["--checkpoint", str(checkpoint),
                                "--data", str(data_dir / "test.jsonl")],
                  "evaluate": ["--checkpoint", str(checkpoint),
                               "--data", str(data_dir / "test.jsonl")],
                  "train": ["--data", str(data_dir)]}
        out = tmp_path / "out"
        names = dict(train_config=train_config_file)
        argv = [a.format(**names) for a in argv]
        rc = cli.main(argv + inputs[argv[0]] + ["--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message.format(**names)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["1e200", "1e308"],
                             ids=["norm-overflows", "noise-overflows"])
    def test_weak_noise_that_overflows_an_embedding_gives_one_error_line(
            self, tmp_path, data_dir, train_config_file, capsys, no_training,
            noise):
        # a finite noise this large makes a segment's embedding or its norm
        # inf; numpy's overflow warnings used to come before the error line
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["train", "--data", str(data_dir), "--out", str(out),
                           "--config", str(train_config_file),
                           "--weak-noise", noise])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: backend failed on segment 'seg0': cosine similarity of "
            "vectors whose dot product or norms are not finite\n")
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

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


A1_DIR = Path(__file__).resolve().parents[1] / "experiments" / "a1"


class TestA1Config:
    """`experiments/a1/` holds A1's setting as the `gen-data` and the
    `train`/`sweep` config files; the acceptance module's literals are the
    reference they must equal."""

    def test_files_hold_a1(self):
        where = f"config file {A1_DIR / 'data.json'}"
        assert stored_config(DataSpec, read_json(A1_DIR / "data.json", where),
                             where) == A1_DATA
        config = str(A1_DIR / "train.json")
        args = cli.build_parser().parse_args(
            ["train", "--data", "d", "--out", "o", "--config", config])
        model_cfg, cfg, model_seed = cli._build_train_config(
            cli._load_config(config), args)
        assert model_cfg == ModelConfig()
        assert cfg == TrainConfig(lambda_align=0.1, **A1_TRAIN)
        assert model_seed == 0

    def test_cli_runs_equal_run_single(self, tmp_path):
        # A1's paired runs and an ablation arm at 32/8 samples and 2 epochs:
        # gen-data, train and evaluate score and train as run_single does
        data_cfg, train_cfg = tmp_path / "data.json", tmp_path / "train.json"
        data_cfg.write_text(json.dumps(
            {**json.loads((A1_DIR / "data.json").read_text()),
             "n_train": 32, "n_test": 8}))
        doc = json.loads((A1_DIR / "train.json").read_text())
        doc["train"]["epochs"] = 2
        train_cfg.write_text(json.dumps(doc))
        data = tmp_path / "data"
        assert cli.main(["gen-data", "--config", str(data_cfg), "--out",
                         str(data)]) == 0
        train_s, test_s, spec = generate_dataset(
            dataclasses.replace(A1_DATA, n_train=32, n_test=8))
        arms = {"lambda-0": (["--lambda", "0"], dict(lambda_align=0.0)),
                "lambda-0.1": ([], dict(lambda_align=0.1)),
                "no-qmoe": (["--no-qmoe"], dict(
                    lambda_align=0.1, adapter=AdapterConfig(use_qmoe=False)))}
        for name, (options, fields) in arms.items():
            run = tmp_path / name
            assert cli.main(["train", "--config", str(train_cfg), "--data",
                             str(data), "--out", str(run), *options]) == 0
            assert cli.main(["evaluate", "--checkpoint",
                             str(run / "checkpoint.json"), "--data",
                             str(data / "test.jsonl"), "--out",
                             str(run / "report.json")]) == 0
            scores = json.loads((run / "report.json").read_text())["aggregates"]
            last = json.loads((run / "metrics.jsonl").read_text().splitlines()[-1])

            cfg = TrainConfig(**{**A1_TRAIN, "epochs": 2, **fields})
            result, report = run_single(VisualDecoder(ModelConfig(), seed=0),
                                        train_s, test_s, spec, cfg)
            assert [scores[k] for k in ("coverage", "intensity", "accuracy")] \
                == [report.coverage, report.intensity, report.accuracy], name
            assert [last["train_llm"], last["train_align"]] == \
                [result.epoch_logs[-1][k] for k in ("train_llm", "train_align")], name
