"""Attention-aligned adapter tuning on a toy visual decoder.

A small vision-text decoder whose query/key projections carry routed
low-rank expert adapters, trained so that the visual attention of its
most visually active heads concentrates on prompt-selected weak-label
regions. Includes the synthetic planted-RoI benchmark, attention
metrics, and sweep/ablation drivers used to verify the mechanism.
"""

import os as _os

# every matrix here is tiny; BLAS thread pools only add sync overhead
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")


def _blas_function(name: str):
    """Entry point ``name`` of numpy's bundled OpenBLAS (the 64-bit-int or
    the plain scipy-openblas build), or None when numpy bundles neither."""
    import ctypes
    import glob
    from pathlib import Path

    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


def _pin_blas_threads() -> None:
    """Apply OPENBLAS_NUM_THREADS to a library that is already loaded.

    OpenBLAS reads the variable only when it is loaded, so the setdefault
    above does nothing once numpy was imported first; setting the count
    through the library itself works either way. An explicit user value
    of the variable still wins.
    """
    import ctypes
    import warnings

    fn = _blas_function("set_num_threads")
    if fn is None:
        warnings.warn("attnalign: numpy's bundled OpenBLAS was not found, so "
                      "its thread count is not pinned", RuntimeWarning)
        return
    try:
        threads = int(_os.environ["OPENBLAS_NUM_THREADS"])
    except ValueError:
        return  # not a count; OpenBLAS fell back to its default as well
    fn.argtypes = [ctypes.c_int]
    fn.restype = None
    fn(threads)


_pin_blas_threads()

from .adapters import AdapterConfig, AdapterSet, ExpertBank, GatingNetwork, \
    LoRAAdapter, RouterDecision
from .attention import AttentionStack, HeadSelection, Spans, refined_map, \
    select_heads
from .autodiff import Tensor, finite_diff_check, no_grad
from .data import DataSpec, SyntheticSample, generate_dataset
from .metrics import MetricsReport, coverage_score, evaluate, intensity_alignment
from .model import ModelConfig, VisualDecoder, VisualInput, load_checkpoint, \
    save_checkpoint
from .training import TASK_PROFILES, AdamW, LossBreakdown, TrainConfig, \
    alignment_loss, compute_weak_labels, total_loss, train
from .weaklabels import EmbedderBackend, Segment, SyntheticOracleBackend, \
    WeakLabelSet, cosine_sim, select_weak_labels

__version__ = "0.1.0"
