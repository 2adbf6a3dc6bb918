import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np
import pytest

from attnalign import cores
from attnalign.adapters import AdapterConfig, AdapterSet
from attnalign.model import ModelConfig, VisualDecoder, VisualInput


TINY_MODEL = ModelConfig(n_layers=2, n_heads=2, d_visual=5, d_model=8,
                         vocab_size=11, grid=2, max_text_len=8)

ONE_LAYER = ModelConfig(n_layers=1, n_heads=1, d_visual=4, d_model=8,
                        vocab_size=12, grid=2, max_text_len=6)

TINY_ADAPTER = AdapterConfig(dense_rank=2, expert_rank=2, n_q_experts=2,
                             n_k_experts=3, top_b=2)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def processes(monkeypatch):
    """``processes(n)`` makes every later split use n processes."""
    def use(n: int) -> None:
        monkeypatch.setattr(cores, "process_count", lambda: n)
    return use


def assert_no_children() -> None:
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def make_visual(cfg: ModelConfig, rng, scale: float = 1.0) -> VisualInput:
    return VisualInput(rng.normal(0.0, scale, size=(cfg.n_visual, cfg.d_visual)),
                       cfg.grid)


def make_model_and_adapters(cfg: ModelConfig = TINY_MODEL,
                            acfg: AdapterConfig = TINY_ADAPTER,
                            model_seed: int = 0, adapter_seed: int = 1,
                            randomize: bool = False):
    """Tiny model plus adapters; randomize gives nonzero LoRA B matrices."""
    model = VisualDecoder(cfg, seed=model_seed)
    adapters = AdapterSet(cfg.n_layers, cfg.d_model, cfg.d_ff, acfg,
                          seed=adapter_seed)
    if randomize:
        r = np.random.default_rng(adapter_seed + 99)
        for _, t in adapters.params():
            t.data = r.normal(0.0, 0.3, size=t.data.shape)
    return model, adapters
