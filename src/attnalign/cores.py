"""Independent items split across this process and forked helpers.

A ``Split`` runs ``work(item)`` over an ordered list of items on every
core of the process's CPU affinity: the main process computes the first
contiguous chunk itself, and each forked helper computes a later chunk
and sends its results back in one message once it has them all. The
caller consumes the results in item order, so any reduction over them
sees the same operands in the same order whatever the core count. With
one core, or one item, nothing is forked and the same loop runs in the
main process alone.

Helpers are plain ``os.fork`` children, so each holds a copy-on-write
copy of the main process's objects as they were at the fork. The one
exception is an array made by ``shared_zeros`` before the fork: its
memory stays shared both ways, with no message. The main process writes
to such an array only between two ``map`` calls, while every helper is
idle; a helper writes only rows of its own, during its own chunk, and
the main process reads them only after receiving that chunk's results
(a training batch's gradients come back so). Every message, a chunk of
items or its results, is one plain pickle on a pipe. Helpers leave only
through ``os._exit``, never returning into the caller's stack. An
exception a helper's item raises is sent back and re-raised in the main
process when that item comes up; a helper that dies raises
``AttnAlignError`` naming its exit status. Leaving the ``with`` block
reaps every helper, killing first any that still owe results (the main
process raised mid-chunk).
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import threading
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import AttnAlignError

_in_helper = False
_parent_fds: set[int] = set()   # the main process's pipe ends of live helpers


def process_count() -> int:
    """Processes a split may use: the cores in this process's affinity.

    Platforms without ``os.fork`` or ``os.sched_getaffinity`` count as one.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def shared_zeros(n: int) -> np.ndarray:
    """A zeroed float64 vector of length ``n`` in a ``MAP_SHARED`` mapping,
    which helpers forked after it was made share with the main process."""
    return np.frombuffer(mmap.mmap(-1, n * 8), dtype=np.float64)


def _chunks(items: Sequence, n: int) -> list[Sequence]:
    """``n`` contiguous chunks whose sizes differ by at most one, larger first."""
    size, extra = divmod(len(items), n)
    bounds = [0]
    for i in range(n):
        bounds.append(bounds[-1] + size + (i < extra))
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


class _Helper:
    def __init__(self, pid: int, commands, results):
        self.pid = pid
        self.commands = commands    # main -> helper: items
        self.results = results      # helper -> main: (results, error)
        self.owes = False           # sent a chunk whose results are unread


class Split:
    """The main process plus up to ``n_items - 1`` forked helpers.

    ``work(item)`` computes one item's result. Helpers are forked on
    entering the ``with`` block, so they see the objects ``work`` reads as
    they were then, except the contents of ``shared_zeros`` arrays, which
    they see as they are when ``map`` is called.
    """

    def __init__(self, work: Callable[[Any], Any], n_items: int):
        self.work = work
        # fork copies only the calling thread, so a helper, or a process
        # running other threads, keeps its splits to itself
        alone = _in_helper or threading.active_count() > 1
        self.n_procs = 1 if alone else min(process_count(), n_items)
        self.helpers: list[_Helper] = []

    def __enter__(self) -> "Split":
        try:
            for _ in range(self.n_procs - 1):
                self.helpers.append(self._fork())
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def map(self, items: Sequence) -> Iterator:
        """Yield ``work(item)`` for every item, in item order."""
        parts = _chunks(items, max(1, min(len(items), 1 + len(self.helpers))))
        for helper, part in zip(self.helpers, parts[1:]):
            try:
                pickle.dump(part, helper.commands, 5)
                helper.commands.flush()
            except BrokenPipeError:
                raise self._died(helper) from None
            helper.owes = True
        for item in parts[0]:
            yield self.work(item)
        for helper, _ in zip(self.helpers, parts[1:]):
            try:
                results, error = pickle.load(helper.results)
            except (EOFError, pickle.UnpicklingError):
                raise self._died(helper) from None
            helper.owes = False
            yield from results
            if error is not None:
                raise error

    def close(self) -> None:
        """Stop and reap every helper; no child outlives this call."""
        while self.helpers:
            self._reap(self.helpers[0])

    def _reap(self, helper: _Helper) -> int:
        """Close the pipes to ``helper``, wait for it, return its exit code."""
        self.helpers.remove(helper)
        if helper.owes:
            # it may be blocked writing results nobody will read
            os.kill(helper.pid, signal.SIGKILL)
        for f in (helper.commands, helper.results):
            _parent_fds.discard(f.fileno())
            try:
                f.close()   # EOF on its commands ends a helper's loop
            except BrokenPipeError:
                pass        # the unsent rest of a command to a dead helper
        return os.waitstatus_to_exitcode(os.waitpid(helper.pid, 0)[1])

    def _died(self, helper: _Helper) -> AttnAlignError:
        code = self._reap(helper)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        return AttnAlignError(f"helper process {helper.pid} died ({how})")

    def _fork(self) -> _Helper:
        cmd_r, cmd_w = os.pipe()
        res_r, res_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            for fd in (*_parent_fds, cmd_w, res_r):
                os.close(fd)
            self._serve(os.fdopen(cmd_r, "rb"), os.fdopen(res_w, "wb"))
        os.close(cmd_r)
        os.close(res_w)
        _parent_fds.update((cmd_w, res_r))
        return _Helper(pid, os.fdopen(cmd_w, "wb"), os.fdopen(res_r, "rb"))

    def _serve(self, commands, results) -> None:
        """A helper's whole life: compute chunks until the commands end."""
        global _in_helper
        _in_helper = True
        code = 1
        try:
            while True:
                try:
                    items = pickle.load(commands)
                except EOFError:
                    code = 0
                    break
                out, error = [], None
                for item in items:
                    try:
                        out.append(self.work(item))
                    except Exception as exc:
                        error = exc
                        break
                try:
                    pickle.dumps(error)
                except Exception:   # an exception that does not pickle
                    error = AttnAlignError(f"{type(error).__name__}: {error}")
                pickle.dump((out, error), results, 5)
                results.flush()
        finally:
            os._exit(code)
