"""Package-wide properties: the BLAS thread pin at import time, no field
of a package dataclass that the package only writes or never reads, no
public function or class that only tests call, a frozen base of plain
arrays whose tape reaches only the adapters, no CLI option that its verb
ignores, JSON parsed in errors.py alone, a CLI docstring that names the
parser's verbs, a CLI that turns only package and OS errors into an error
line, and a package that the benchmark's span tracer still fits."""

import argparse
import ast
import ctypes
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import attnalign
from attnalign import autodiff, cli
from attnalign.adapters import AdapterConfig, AdapterSet
from attnalign.data import DataSpec, generate_dataset
from attnalign.model import ModelConfig, VisualDecoder, load_checkpoint, \
    save_checkpoint
from attnalign.training import TrainConfig, compute_weak_labels, total_loss

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


# functions that only write a file or build the dict that is written: a
# field that only they load is output, not read
WRITER = re.compile(r"^_?(write|save|export)_|to_dict$")


def attributes_read_in_package() -> set[str]:
    """Every attribute name the package's source loads (``x.name``) outside
    the functions that ``WRITER`` names."""
    names = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and WRITER.search(node.name):
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in Path(attnalign.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()))
    return names


def package_dataclasses() -> list[type]:
    """Every dataclass that a package module defines."""
    out = []
    for path in sorted(Path(attnalign.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"attnalign.{path.stem}")
        out.extend(obj for obj in vars(module).values()
                   if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                   and obj.__module__ == module.__name__)
    return out


# fields that reach a written file through ``asdict`` without a load by name
SERIALIZED_ONLY = {
    "SampleRecord.predicted",   # the greedy tokens of a sample in report.json
}


@pytest.mark.parametrize("cls", package_dataclasses(), ids=lambda cls: cls.__name__)
def test_every_config_field_is_read(cls):
    # a declaration is not a load, so a field nothing reads shows up here
    read = attributes_read_in_package()
    assert [f.name for f in dataclasses.fields(cls) if f.name not in read
            and f"{cls.__name__}.{f.name}" not in SERIALIZED_ONLY] == []


PACKAGE = Path(attnalign.__file__).parent


def public_names(module: str) -> set[str]:
    """The public functions and classes that package module ``module``
    defines at its top level."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def package_loads() -> set[tuple[str, str, str]]:
    """(loading module, defining module, name) for every load of a public
    package name in a module other than ``__init__.py``: as ``alias.name``
    on a module alias, as a name imported from its module, or as a bare
    name in its own module outside its own definition."""
    loads = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        here = path.stem
        tree = ast.parse(path.read_text())
        origin = {name: (here, name) for name in public_names(here)}
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        origin[a.asname or a.name] = (node.module, a.name)
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id in aliases:
                    loads.add((here, aliases[node.value.id], node.attr))
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                        and node.id in origin and node.id != own:
                    loads.add((here, *origin[node.id]))
    return loads


def test_every_public_name_has_a_package_caller():
    # code that only tests call belongs in tests/: the generic autodiff ops
    # in tests/references.py, the finite-difference checker and its error in
    # tests/oracles.py. An autodiff op needs a caller outside autodiff.py,
    # and a re-export in __init__.py calls nothing
    called = {(module, name) for user, module, name in package_loads()
              if user != module or module != "autodiff"}
    uncalled = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
                for name in sorted(public_names(path.stem))
                if (path.stem, name) not in called]
    assert uncalled == []


def cli_options_read() -> dict[str, set[str]]:
    """Per cli.py function, the options it reads from ``args``: an
    ``args.<dest>`` load or a ``getattr(args, "<dest>", ...)``, in its own
    body or in a cli.py function that it passes ``args`` to."""
    tree = ast.parse(Path(cli.__file__).read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reads = {name: set() for name in funcs}
    callees = {name: set() for name in funcs}

    def is_args(node):
        return isinstance(node, ast.Name) and node.id == "args"

    for name, fn in funcs.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                    and is_args(node.value):
                reads[name].add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "getattr" and len(node.args) >= 2 \
                        and is_args(node.args[0]) \
                        and isinstance(node.args[1], ast.Constant):
                    reads[name].add(node.args[1].value)
                elif node.func.id in funcs and any(map(is_args, node.args)):
                    callees[name].add(node.func.id)

    def closure(name, seen):
        seen.add(name)
        out = set(reads[name])
        for callee in callees[name] - seen:
            out |= closure(callee, seen)
        return out

    return {name: closure(name, set()) for name in funcs}


def cli_verbs() -> dict[str, argparse.ArgumentParser]:
    """The parser of each subcommand, by name."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_cli_option_is_read_by_its_verb():
    # an option that its command never reads is accepted and silently
    # ignored, as evaluate's and visualize's --config and --seed once were
    read = cli_options_read()
    verbs = cli_verbs()
    unread = [f"{verb} {action.dest}"
              for verb, parser in verbs.items()
              for action in parser._actions
              if action.dest != "help"
              and action.dest not in read[parser.get_default("fn").__name__]]
    assert unread == []


def test_cli_docstring_names_the_verbs_and_their_shared_options():
    doc = " ".join(cli.__doc__.split())
    found = re.search(r"Verbs: ([\w, -]+)\. The first (\w+) accept --seed "
                      r"and --config", doc)
    assert found, "cli.py's docstring lost its verb sentence"
    listed = found[1].split(", ")
    n = ["one", "two", "three", "four", "five", "six"].index(found[2]) + 1
    verbs = cli_verbs()
    assert sorted(listed) == sorted(verbs)   # the parser registers another order
    assert set(listed[:n]) == {
        name for name, parser in verbs.items()
        if {"--seed", "--config"} <= parser._option_string_actions.keys()}


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[tuple[str, list[str]]]:
    """The verb and the ``--options`` of each ``attnalign <verb> ...`` line
    of README.md, with comments dropped, continuation lines joined and
    shell-variable tokens (``--$arm``) skipped."""
    text = re.sub(r"[ \t]+#.*", "", README.read_text())
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        words = line.split()
        if len(words) > 1 and words[0] == "attnalign":
            options = [w.strip("[]|") for w in words[2:]]
            commands.append((words[1], [o for o in options
                                        if o.startswith("--") and "$" not in o]))
    return commands


def test_readme_commands_use_registered_options():
    # nothing else ties the README's command lines to the parser, so an
    # option it no longer registers would go on being shown
    verbs = cli_verbs()
    commands = readme_commands()
    assert {verb for verb, _ in commands} == set(verbs)
    unknown = [f"{verb} {option}" for verb, options in commands
               for option in options
               if option not in verbs[verb]._option_string_actions]
    assert unknown == []


def readme_train_configs() -> list[str]:
    """The text of each train config README.md shows: its ```json blocks and
    the `train` sections of its table of paper settings."""
    text = README.read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", text, re.M | re.S)
    cells = re.findall(r"^\| `[\w-]+` \| `(\{.*\})` \|$", text, re.M)
    assert blocks and cells
    return blocks + cells


def test_readme_train_configs_load(tmp_path):
    # nothing else ties the README's config examples to the loader, so a
    # renamed or removed field would go on being shown
    path = tmp_path / "train.json"
    for text in readme_train_configs():
        path.write_text(text)
        args = cli_verbs()["train"].parse_args(
            ["--data", "d", "--out", "o", "--config", str(path)])
        cli._build_train_config(cli._load_config(args.config), args)


def test_only_errors_py_parses_json():
    # one parser turns every decode error into an error line that names the
    # file; a json.load(s) elsewhere would print a bare decoder message
    calls = [f"{path.name}:{node.lineno}"
             for path in Path(attnalign.__file__).parent.glob("*.py")
             if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("load", "loads")
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "json"]
    assert calls == []


def test_cli_main_catches_only_package_and_os_errors():
    # a KeyError, IndexError or ValueError is a package bug, so it shows
    # as a traceback rather than a one-line error
    tree = ast.parse(Path(cli.__file__).read_text())
    main = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [n for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)]
    assert [sorted(ast.unparse(e) for e in getattr(h.type, "elts", [h.type]))
            for h in handlers] == [["AttnAlignError", "OSError"]]


def test_the_frozen_base_is_plain_arrays(tmp_path):
    # only the adapters train, so the base weights are data, not tensors,
    # and no op carries gradient code for them
    c = ModelConfig()
    model = VisualDecoder(c)
    save_checkpoint(tmp_path / "c.json", model,
                    AdapterSet(c.n_layers, c.d_model, c.d_ff, AdapterConfig()))
    reloaded, _, _ = load_checkpoint(tmp_path / "c.json")
    for params in (model.params, reloaded.params):
        assert {type(a) for a in params.values()} == {np.ndarray}
    assert list(reloaded.params) == list(model.params)


# one sample of A1's committed data setting, and its K = 1 weak label
A1_DATA_FILE = Path(__file__).resolve().parents[1] / "experiments" / "a1" / "data.json"
A1_SAMPLE = DataSpec(**{**json.loads(A1_DATA_FILE.read_text()), "n_train": 1,
                        "n_test": 1})
ARMS = {"aligned": (AdapterConfig(), 0.1),
        "dense": (AdapterConfig(use_qmoe=False, use_kmoe=False), 0.0)}


def a1_total_loss(arm):
    (sample,), _, spec = generate_dataset(A1_SAMPLE)
    acfg, lam = ARMS[arm]
    cfg = TrainConfig(lambda_align=lam, weak_k=1, heads_r=2, adapter=acfg)
    adapters = AdapterSet(4, 64, 256, acfg)
    labels = compute_weak_labels([sample], spec, 1)[sample.id]
    loss, _ = total_loss(VisualDecoder(ModelConfig()), adapters, sample, labels, cfg)
    return loss, adapters


def test_gradients_reach_only_the_adapters():
    loss, adapters = a1_total_loss("aligned")
    leaves, seen, stack = set(), set(), [loss]
    while stack:                 # the nodes backward() visits
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is None:
            leaves.add(id(node))
        stack.extend(p for p in node._parents if p.requires_grad)
    assert leaves == {id(t) for _, t in adapters.params()}
    loss.backward()
    assert all(t.grad is not None for _, t in adapters.params())


@pytest.mark.parametrize("arm,calls_expected", [("aligned", 85), ("dense", 57)])
def test_wrap_calls_per_a1_total_loss(monkeypatch, arm, calls_expected):
    # 90 and 62 while the embedding front and the row gather in front of
    # the cross entropy were tape ops, 83 and 55 before the last layer kept
    # only the suffix of rows read (two tail_rows nodes); a change here is a
    # change of design
    calls = []
    wrap = autodiff._wrap

    def counting(*args):
        calls.append(1)
        return wrap(*args)

    monkeypatch.setattr(autodiff, "_wrap", counting)
    a1_total_loss(arm)
    assert len(calls) == calls_expected


TRACER = Path(attnalign.__file__).resolve().parents[2] / "perfbench" / "tracing.py"

# one tiny aligned forward and backward under the benchmark's tracer; the
# tracer patches the package by name, so it runs in a process of its own
TRACED_STEP = """
import importlib.util, json, sys
import numpy as np
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
from attnalign import autodiff as ad
from attnalign.adapters import AdapterConfig, AdapterSet
from attnalign.model import ModelConfig, VisualDecoder
cfg = ModelConfig(n_layers=2, n_heads=2, d_visual=4, d_model=8, vocab_size=12,
                  grid=2, max_text_len=6)
adapters = AdapterSet(2, 8, 32, AdapterConfig(dense_rank=2, expert_rank=2,
                      n_q_experts=2, n_k_experts=3, top_b=2), seed=1)
rng = np.random.default_rng(0)
out = VisualDecoder(cfg).forward(rng.normal(size=(4, 4)), (1, 2), (3,), adapters)
ad.cross_entropy(out.logits, [5, 6, 7, 8, 9, 10, 11]).backward()
print(json.dumps({"spans": sorted({s[0] for s in tracer.spans}),
                  "counters": tracer.counters, "failed": tracer.failed}))
"""


@pytest.mark.skipif(not TRACER.exists(), reason="no perfbench/ next to src/")
def test_benchmark_tracer_fits_the_package():
    # perfbench/tracing.py wraps the four router routines by name and counts
    # the kept key-side pairs from kmoe_apply's arguments; a rename or a new
    # signature would otherwise surface only in a manual traced benchmark run
    env = {**os.environ, "PYTHONPATH": str(Path(attnalign.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", TRACED_STEP, str(TRACER)],
                          env=env, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout)
    routers = {f"adapters.{name}" for name in ("qmoe_weights", "qmoe_apply",
                                               "kmoe_gate_weights", "kmoe_apply")}
    assert routers <= set(result["spans"])
    assert "autodiff.backward" in result["spans"]
    assert result["counters"]["kmoe_pairs"] > 0
    assert result["counters"]["kmoe_kept"] > 0
    assert result["failed"] == {}
