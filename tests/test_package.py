"""Package-wide properties: the BLAS thread pin at import time, and no
config field that the package never reads."""

import ast
import ctypes
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import attnalign
from attnalign.adapters import AdapterConfig
from attnalign.data import DataSpec
from attnalign.model import ModelConfig
from attnalign.training import TrainConfig

PROBE = ("import ctypes, numpy, attnalign; "
         "fn = attnalign._blas_function('get_num_threads'); "
         "fn.restype = ctypes.c_int; print(fn())")

requires_openblas = pytest.mark.skipif(
    attnalign._blas_function("get_num_threads") is None,
    reason="numpy does not bundle scipy-openblas here")


@requires_openblas
def test_blas_runs_one_thread_inside_pytest():
    fn = attnalign._blas_function("get_num_threads")
    fn.restype = ctypes.c_int
    assert fn() == 1


@requires_openblas
@pytest.mark.parametrize("setting, expected", [(None, "1"), ("2", "2")])
def test_pin_holds_when_numpy_is_imported_first(setting, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting  # an explicit choice still wins
    env["PYTHONPATH"] = str(Path(attnalign.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == expected


def attributes_read_in_package() -> set[str]:
    """Every attribute name the package's source loads (``x.name``)."""
    names = set()
    for path in Path(attnalign.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("cls", [ModelConfig, AdapterConfig, TrainConfig, DataSpec],
                         ids=lambda cls: cls.__name__)
def test_every_config_field_is_read(cls):
    # a declaration is not a load, so a field nothing reads shows up here
    read = attributes_read_in_package()
    assert [f.name for f in dataclasses.fields(cls) if f.name not in read] == []
