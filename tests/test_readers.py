"""Every JSON file the CLI reads, changed in one way, either still works or
stops its verb with exactly one ``error:`` line that names the file.

The six kinds are a ``gen-data`` config file, ``meta.json``, a test
sample line, a train sample line (the only source of weak labels), a
checkpoint and a ``train`` config file.
Each change drops or adds a key, replaces a value by null, a string, a
float, a list, 0 or -1, truncates base64, or writes bytes that are not
JSON or not UTF-8. Any other exception, or an exit code other than 0 and
1, fails the test.

The data have the grid and feature width of the default model, so a train
config that loses a model key still describes a model that fits them."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from attnalign import cli
from attnalign.adapters import AdapterConfig, AdapterSet
from attnalign.data import DataSpec, generate_dataset, write_meta, write_samples
from attnalign.model import ModelConfig, VisualDecoder, save_checkpoint

DATA = {"n_train": 4, "n_test": 2, "grid": 8, "d_visual": 16, "n_concepts": 3,
        "n_segments": 2, "n_labels": 3, "seg_side_min": 1, "seg_side_max": 1,
        "seed": 3}
MODEL = ModelConfig(n_layers=1, n_heads=2, d_visual=16, d_model=8,
                    vocab_size=12, grid=8, max_text_len=6)
ADAPTER = AdapterConfig(dense_rank=2, expert_rank=2, n_q_experts=2,
                        n_k_experts=3, top_b=2)
TRAIN = {"model": {"n_layers": 1, "n_heads": 2, "d_visual": 16, "d_model": 8,
                   "vocab_size": 12, "grid": 8, "max_text_len": 6},
         "adapter": {"dense_rank": 2, "expert_rank": 2, "n_q_experts": 2,
                     "n_k_experts": 3, "top_b": 2},
         "train": {"epochs": 1, "batch_size": 4, "weak_k": 1, "heads_r": 1}}

# per kind: the file changed, whether it holds one JSON value per line, and
# the fastest verb that reads it ({d} is a fresh copy of the valid files)
KINDS = {
    "config": ("data.json", False,
               ["gen-data", "--config", "{d}/data.json", "--out", "{d}/gen"]),
    "meta": ("data/meta.json", False,
             ["train", "--data", "{d}/data", "--config", "{d}/train.json",
              "--out", "{d}/run"]),
    "samples": ("data/test.jsonl", True,
                ["evaluate", "--checkpoint", "{d}/checkpoint.json", "--data",
                 "{d}/data/test.jsonl", "--out", "{d}/report.json"]),
    "train-samples": ("data/train.jsonl", True,
                      ["train", "--data", "{d}/data", "--config",
                       "{d}/train.json", "--out", "{d}/run"]),
    "checkpoint": ("checkpoint.json", False,
                   ["evaluate", "--checkpoint", "{d}/checkpoint.json", "--data",
                    "{d}/data/test.jsonl", "--out", "{d}/report.json"]),
    "train-config": ("train.json", False,
                     ["train", "--data", "{d}/data", "--config", "{d}/train.json",
                      "--out", "{d}/run"]),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A directory of valid files of all six kinds."""
    d = tmp_path_factory.mktemp("valid")
    (d / "data.json").write_text(json.dumps(DATA))
    train_s, test_s, spec = generate_dataset(DataSpec(**DATA))
    (d / "data").mkdir()
    write_samples(d / "data" / "train.jsonl", train_s)
    write_samples(d / "data" / "test.jsonl", test_s)
    write_meta(d / "data" / "meta.json", spec)
    save_checkpoint(d / "checkpoint.json", VisualDecoder(MODEL),
                    AdapterSet(MODEL.n_layers, MODEL.d_model, MODEL.d_ff,
                               ADAPTER, seed=1))
    (d / "train.json").write_text(json.dumps(TRAIN))
    return d


def run(argv) -> tuple[int, str]:
    """The exit code of ``attnalign <argv>`` and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def paths(value, at=()):
    """The path of every value inside ``value``, itself excluded."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield at + (key,)
        yield from paths(inner, at + (key,))


def parent(doc, path):
    """The object or list that holds the value at ``path`` inside ``doc``."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def changed_bytes(draw, raw: bytes, lines: bool) -> bytes:
    """``raw`` (one JSON value, or one per line) changed in one way."""
    chunks = raw.splitlines(keepends=True) if lines else [raw]
    i = draw(st.integers(0, len(chunks) - 1))
    doc = json.loads(chunks[i])
    inside = list(paths(doc))
    ways = {
        "add": [p + ("bogus",) for p in [()] + inside
                if isinstance(parent(doc, p + (None,)), dict)],
        "drop": [p for p in inside if isinstance(parent(doc, p), dict)],
        "replace": inside,
        "truncate-base64": [p for p in inside if p[-1] in ("data", "features_b64")],
        "bad-json": [None],
        "bad-utf8": [None],
    }
    how = draw(st.sampled_from(sorted(w for w in ways if ways[w])))
    path = draw(st.sampled_from(ways[how]))
    if how == "bad-json":      # a proper prefix of a JSON object
        chunks[i] = chunks[i][:draw(st.integers(0, len(chunks[i].rstrip()) - 1))]
    elif how == "bad-utf8":    # 0xff starts no UTF-8 sequence
        at = draw(st.integers(0, len(chunks[i]) - 1))
        chunks[i] = chunks[i][:at] + b"\xff" + chunks[i][at:]
    else:
        holder = parent(doc, path)
        if how == "add":
            holder["bogus"] = 1
        elif how == "drop":
            del holder[path[-1]]
        elif how == "replace":
            holder[path[-1]] = draw(st.sampled_from([None, "x", 1.5, [], 0, -1]))
        else:
            holder[path[-1]] = holder[path[-1]][:-draw(st.integers(1, 8))]
        chunks[i] = json.dumps(doc, sort_keys=True).encode()
    if lines:
        chunks[i] = chunks[i].rstrip(b"\n") + b"\n"
    return b"".join(chunks)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_changed_file_works_or_gives_one_error_line(valid_files, kind):
    name, lines, argv = KINDS[kind]
    raw = (valid_files / name).read_bytes()

    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(changed_bytes(raw, lines))
    def check(changed):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp) / "files"
            shutil.copytree(valid_files, d)
            (d / name).write_bytes(changed)
            rc, err = run([a.format(d=d) for a in argv])
        if rc == 0:
            assert err == ""
        else:
            assert rc == 1
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(d / name) in err

    check()
