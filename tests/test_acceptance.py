"""Acceptance gate: one test per criterion, each printing a PASS line.

A1 carries the heavy paired training runs (a few minutes); everything
else is fast. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import copy
import json
import time

import numpy as np
import pytest

from attnalign import autodiff as ad
from attnalign import cli
from attnalign.adapters import AdapterConfig, AdapterSet, ExpertBank, \
    GatingNetwork, topb_mask_rows
from attnalign.attention import answer_query_rows, refined_map, select_heads
from attnalign.autodiff import Tensor
from attnalign.data import DataSpec, generate_dataset, write_meta, write_samples
from attnalign.metrics import coverage_score, intensity_alignment
from attnalign.model import ModelConfig, VisualDecoder
from attnalign.sweeps import SWEEP_HEADER, run_single, sweep
from attnalign.training import TrainConfig, alignment_loss, compute_weak_labels, \
    total_loss
from attnalign.weaklabels import Segment, select_weak_labels

from conftest import make_visual
from oracles import coverage_loop, expert_delta, intensity_loop, \
    mean_map_loop, topk_select_loop
from references import kmoe_delta_per_token
from test_weaklabels import MappedBackend


def report(criterion: str, detail: str) -> None:
    print(f"{criterion} PASS: {detail}")


# ---------------------------------------------------------------------------
# A1: directional attention-distribution gains at fixed seeds


A1_DATA = DataSpec(n_train=2000, n_test=500, grid=8, d_visual=16, n_concepts=4,
                   n_segments=3, n_labels=4, seg_side_min=1, seg_side_max=1,
                   feature_noise=0.2, seed=11)
A1_TRAIN = dict(epochs=6, lr=3e-3, batch_size=8, weak_k=1, heads_r=2, seed=0)


def test_a1_directional_attention_gains():
    t0 = time.time()
    train_s, test_s, meta = generate_dataset(A1_DATA)
    reports = {}
    for lam in (0.0, 0.1):
        model = VisualDecoder(ModelConfig(), seed=0)
        cfg = TrainConfig(lambda_align=lam, **A1_TRAIN)
        _, reports[lam] = run_single(model, train_s, test_s, meta, cfg)
    elapsed = time.time() - t0
    base, aligned = reports[0.0], reports[0.1]

    assert aligned.coverage >= 1.5 * base.coverage
    assert aligned.intensity >= 1.3 * base.intensity
    assert aligned.accuracy >= base.accuracy - 0.01
    assert elapsed < 600.0
    report("A1", f"coverage {aligned.coverage:.4f} vs {base.coverage:.4f}, "
                 f"intensity {aligned.intensity:.4f} vs {base.intensity:.4f}, "
                 f"accuracy {aligned.accuracy:.4f} vs {base.accuracy:.4f}, "
                 f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# A2: gradient integrity of the full objective


def test_a2_gradient_integrity():
    t0 = time.time()
    spec = DataSpec(n_train=1, n_test=1, grid=2, d_visual=6, n_concepts=2,
                    n_segments=1, n_labels=2, seg_side_min=1, seg_side_max=1,
                    n_background_segments=1, seed=4)
    train_s, _, meta = generate_dataset(spec)
    sample = train_s[0]
    mcfg = ModelConfig(n_layers=1, n_heads=1, d_visual=6, d_model=8,
                       vocab_size=8, grid=2, max_text_len=6)
    acfg = AdapterConfig(dense_rank=2, expert_rank=2, n_q_experts=2,
                         n_k_experts=3, top_b=2)
    model = VisualDecoder(mcfg, seed=0)
    adapters = AdapterSet(1, 8, 32, acfg, seed=1)
    r = np.random.default_rng(9)
    for _, t in adapters.params():
        t.data = r.normal(0.0, 0.3, size=t.data.shape)

    labels = compute_weak_labels(train_s, meta, k=1)
    cfg = TrainConfig(lambda_align=0.1, heads_r=1, weak_k=1, adapter=acfg)

    # top-B routing margins must dominate the probe step or the finite
    # difference crosses a selection boundary
    from attnalign.model import VisualInput
    model.forward(VisualInput(sample.features, 2), sample.prompt,
                  sample.answer, adapters)
    betas = adapters.last_decisions["layer0.k"].weights
    margins = [abs(np.sort(w)[-acfg.top_b] - np.sort(w)[-acfg.top_b - 1])
               for w in betas]
    assert min(margins) > 1e-2

    def f():
        return total_loss(model, adapters, sample, labels[sample.id], cfg)[0]

    params = [t for _, t in adapters.params()]
    n_coords = sum(t.data.size for t in params)
    err = ad.finite_diff_check_params(f, params, step=1e-4)
    elapsed = time.time() - t0
    assert err < 1e-3
    assert elapsed < 30.0
    report("A2", f"max rel err {err:.2e} over {n_coords} coordinates "
                 f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# A3: closed-form alignment loss values


def test_a3_alignment_loss_hand_values():
    full = Tensor(np.array([0.4, 0.6, 0.0, 0.0]))
    loss, _ = alignment_loss(full, [(0, 1)])
    assert abs(float(loss.data) - 0.0) <= 1e-12

    uniform = Tensor(np.full(4, 0.25))
    loss, _ = alignment_loss(uniform, [(0, 1)])
    assert abs(float(loss.data) - 0.25) <= 1e-12

    m = Tensor(np.array([0.5, 0.3, 0.2, 0.0]))
    loss, fracs = alignment_loss(m, [(0, 1), (1,)])
    assert fracs == pytest.approx((0.8, 0.3), abs=1e-15)
    assert abs(float(loss.data) - 0.53) <= 1e-12
    report("A3", "hand values 0 / 0.25 / 0.53 reproduced to 1e-12")


# ---------------------------------------------------------------------------
# A4: reduction identities


def test_a4_reduction_identities(rng):
    from test_attention import make_stack, visual_views
    stack = make_stack(rng, n_layers=2, n_heads=3)
    rows = answer_query_rows(stack.spans)
    sel = select_heads(np.ones((2, 3)), 6)
    gap = np.max(np.abs(refined_map(stack, rows, sel).data
                        - mean_map_loop(visual_views(stack, rows))))
    assert gap <= 1e-12

    d = 6
    bank = ExpertBank(3, d, d, 2, rng)
    bank.B.data = rng.normal(size=bank.B.data.shape)
    gate = GatingNetwork(d, 4, 3, rng)
    gate.w1.data = np.zeros_like(gate.w1.data)
    gate.w2.data = np.zeros_like(gate.w2.data)
    h = Tensor(rng.normal(size=(4, d)))
    deltas, decision = kmoe_delta_per_token(h, bank, gate, b=3)
    dense = sum(expert_delta(bank, o) for o in range(3)) / 3.0
    for c in range(4):
        assert decision.kept[c].all()
        assert np.max(np.abs(deltas[c].data - dense)) <= 1e-12

    mcfg = ModelConfig(n_layers=2, n_heads=2, d_visual=5, d_model=8,
                       vocab_size=11, grid=2, max_text_len=8)
    acfg = AdapterConfig(dense_rank=2, expert_rank=2, n_q_experts=2,
                         n_k_experts=3, top_b=2)
    model = VisualDecoder(mcfg, seed=0)
    adapters = AdapterSet(2, 8, 32, acfg, seed=1)  # zero-initialized deltas
    v = make_visual(mcfg, rng)
    frozen = model.forward(v, (1, 2), (3,))
    adapted = model.forward(v, (1, 2), (3,), adapters)
    assert np.array_equal(frozen.logits.data, adapted.logits.data)
    report("A4", "refined==mean at R=LH; dense K-MoE identity; zero-init "
                 "adapters reproduce frozen logits bit-exactly")


# ---------------------------------------------------------------------------
# A5: selection semantics against sort oracles


def test_a5_selection_sort_oracles():
    r = np.random.default_rng(99)
    for _ in range(1000):
        ratios = r.integers(0, 6, size=(4, 4)) / 6.0
        k = int(r.integers(0, 17))
        sel = select_heads(ratios, k)
        got = sorted(np.flatnonzero(sel.selected.reshape(-1)))
        assert got == topk_select_loop(ratios.reshape(-1), k)

    for _ in range(1000):
        n = int(r.integers(1, 10))
        values = r.integers(0, 4, size=n) / 4.0
        b = int(r.integers(1, n + 1))
        assert sorted(np.flatnonzero(topb_mask_rows(values[None, :], b)[0])) \
            == topk_select_loop(values, b)

    image = np.zeros((1, 2))
    for trial in range(1000):
        n = int(r.integers(2, 12))
        sims = {f"s{i:02d}": float(r.integers(0, 4)) / 4.0 for i in range(n)}
        backend = MappedBackend(sims)
        candidates = [Segment(id=sid, token_indices=(i,), source="t")
                      for i, sid in enumerate(sims)]
        k = int(r.integers(1, n + 2))
        out = select_weak_labels(candidates, (0,), image, backend, k)
        expected = sorted(sims, key=lambda sid: (-sims[sid], sid))[:min(k, n)]
        assert [s.id for s in out.segments] == expected
        if k + 1 <= n:
            larger = select_weak_labels(candidates, (0,), image, backend, k + 1)
            assert {s.id for s in out.segments} \
                <= {s.id for s in larger.segments}
    report("A5", "select_heads / top-B / weak labels match sort oracles on "
                 "1000 tie-heavy instances each; K-monotonicity holds")


# ---------------------------------------------------------------------------
# A6: ablation harness


def test_a6_ablation_harness(tmp_path):
    spec = DataSpec(n_train=8, n_test=4, grid=3, d_visual=8, n_concepts=3,
                    n_segments=2, n_labels=3, seg_side_min=1, seg_side_max=1,
                    seed=3)
    train_s, test_s, meta = generate_dataset(spec)
    d = tmp_path / "data"
    d.mkdir()
    write_samples(d / "train.jsonl", train_s)
    write_samples(d / "test.jsonl", test_s)
    write_meta(d / "meta.json", meta)
    cfg_doc = {
        "model": {"n_layers": 1, "n_heads": 2, "d_visual": 8, "d_model": 8,
                  "vocab_size": 12, "grid": 3, "max_text_len": 6},
        "adapter": {"dense_rank": 2, "expert_rank": 2, "n_q_experts": 2,
                    "n_k_experts": 3, "top_b": 2},
        "train": {"lambda_align": 0.1, "epochs": 1, "lr": 1e-3,
                  "batch_size": 4, "weak_k": 1, "heads_r": 1},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_doc))

    aggregates = {}
    for flag in ("--no-qmoe", "--no-kmoe", "--no-a3moe"):
        run = tmp_path / flag.strip("-")
        rc = cli.main(["train", "--data", str(d), "--out", str(run),
                       "--config", str(cfg_path), "--seed", "0", flag])
        assert rc == 0
        rep = tmp_path / f"{flag.strip('-')}.report.json"
        rc = cli.main(["evaluate", "--checkpoint",
                       str(run / "checkpoint.json"), "--data",
                       str(d / "test.jsonl"), "--out", str(rep)])
        assert rc == 0
        aggregates[flag] = json.loads(rep.read_text())["aggregates"]
    keys = [set(a) for a in aggregates.values()]
    assert keys[0] == keys[1] == keys[2]

    # --no-a3moe forward must be bit-identical to a plain-LoRA adapter set
    mcfg = ModelConfig(**cfg_doc["model"])
    model = VisualDecoder(mcfg, seed=0)
    moe_off = AdapterConfig(**{**cfg_doc["adapter"], "use_qmoe": False,
                               "use_kmoe": False})
    adapters = AdapterSet(1, 8, 32, moe_off, seed=5)
    r = np.random.default_rng(8)
    for _, t in adapters.params():
        t.data = r.normal(0.0, 0.2, size=t.data.shape)

    plain = copy.deepcopy(adapters)  # same dense tensors, no MoE members
    v = make_visual(mcfg, np.random.default_rng(1))
    a = model.forward(v, (4, 5), (1,), adapters)
    b = model.forward(v, (4, 5), (1,), plain)
    assert np.array_equal(a.logits.data, b.logits.data)
    direction = aggregates["--no-qmoe"]["accuracy"] \
        - aggregates["--no-a3moe"]["accuracy"]
    report("A6", f"three ablation runs + comparable reports; no-a3moe forward "
                 f"bit-identical to plain LoRA (toy-scale direction "
                 f"no-qmoe minus no-a3moe accuracy: {direction:+.3f}, "
                 f"reported not asserted)")


# ---------------------------------------------------------------------------
# A7: sweep harness


def test_a7_sweep_harness(tmp_path):
    spec = DataSpec(n_train=24, n_test=8, seed=6, seg_side_min=1,
                    seg_side_max=1, feature_noise=0.2)
    train_s, test_s, meta = generate_dataset(spec)
    base = TrainConfig(lambda_align=0.1, epochs=1, lr=1e-3, batch_size=8,
                       weak_k=1, heads_r=2, seed=0)

    r_csv = tmp_path / "r_sweep.csv"
    r_rows = sweep("R", [0, 1, 2, 4, 8, 16], base, 0, train_s, test_s, meta,
                   out_csv=r_csv)
    l_csv = tmp_path / "l_sweep.csv"
    l_rows = sweep("lambda", [0.0, 0.02, 0.1, 0.5], base, 0, train_s, test_s,
                   meta, out_csv=l_csv)

    for path, rows in ((r_csv, r_rows), (l_csv, l_rows)):
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == len(rows) + 1
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(SWEEP_HEADER)
            [float(c) for c in cells[1:]]

    r0 = r_rows[0]
    l0 = l_rows[0]
    assert abs(r0["L_llm"] - l0["L_llm"]) <= 1e-9
    assert abs(r0["L_align"] - l0["L_align"]) <= 1e-9
    report("A7", f"R sweep (6 rows) and lambda sweep (4 rows) emitted valid "
                 f"CSV; R=0 and lambda=0 losses agree to "
                 f"{abs(r0['L_llm'] - l0['L_llm']):.1e}")


# ---------------------------------------------------------------------------
# A8: metric oracles


def test_a8_metric_oracles():
    r = np.random.default_rng(123)
    for _ in range(1000):
        g = int(r.integers(2, 9))
        m = r.random(g * g)
        roi = r.choice(g * g, size=int(r.integers(1, g * g)), replace=False)
        tau = float(r.random())
        assert coverage_score(m, roi, tau) \
            == coverage_loop(m.reshape(g, g), roi, g, tau)
        assert intensity_alignment(m, roi) == pytest.approx(
            intensity_loop(m, roi), abs=1e-15)
    report("A8", "coverage and intensity match brute-force oracles on 1000 "
                 "random (map, roi, tau) triples")


# ---------------------------------------------------------------------------
# A9: byte-identical reruns


def test_a9_determinism(tmp_path):
    data_cfg = tmp_path / "data.json"
    data_cfg.write_text(json.dumps({
        "n_train": 10, "n_test": 4, "grid": 3, "d_visual": 8, "n_concepts": 3,
        "n_segments": 2, "n_labels": 3, "seg_side_min": 1, "seg_side_max": 1}))
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "model": {"n_layers": 1, "n_heads": 2, "d_visual": 8, "d_model": 8,
                  "vocab_size": 12, "grid": 3, "max_text_len": 6},
        "adapter": {"dense_rank": 2, "expert_rank": 2, "n_q_experts": 2,
                    "n_k_experts": 3, "top_b": 2},
        "train": {"lambda_align": 0.1, "epochs": 2, "lr": 1e-3,
                  "batch_size": 4, "weak_k": 1, "heads_r": 1},
    }))

    artifacts = {}
    for tag in ("first", "second"):
        d = tmp_path / tag
        assert cli.main(["gen-data", "--out", str(d / "data"), "--config",
                         str(data_cfg), "--seed", "21"]) == 0
        assert cli.main(["train", "--data", str(d / "data"), "--out",
                         str(d / "run"), "--config", str(train_cfg),
                         "--seed", "3"]) == 0
        assert cli.main(["evaluate", "--checkpoint",
                         str(d / "run" / "checkpoint.json"), "--data",
                         str(d / "data" / "test.jsonl"), "--out",
                         str(d / "report.json")]) == 0
        artifacts[tag] = {
            "train": (d / "data" / "train.jsonl").read_bytes(),
            "test": (d / "data" / "test.jsonl").read_bytes(),
            "meta": (d / "data" / "meta.json").read_bytes(),
            "ckpt": (d / "run" / "checkpoint.json").read_bytes(),
            "metrics": (d / "run" / "metrics.jsonl").read_bytes(),
            "report": (d / "report.json").read_bytes(),
        }
    for key in artifacts["first"]:
        assert artifacts["first"][key] == artifacts["second"][key], key
    report("A9", "gen-data, train and evaluate reruns byte-identical across "
                 "dataset files, checkpoints, metrics and reports")
