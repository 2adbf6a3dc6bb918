"""Import-time behaviour of the package: the BLAS thread pin."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import attnalign

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
