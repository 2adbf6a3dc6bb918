"""Independent items split across this process and forked helpers.

A ``Split`` runs ``work(item)`` over an ordered list of items on every
core of the process's CPU affinity: the main process computes the first
contiguous chunk itself, and each forked helper computes a later chunk
and sends its results back in one message once it has them all. The
caller consumes the results in item order, so any reduction over them
sees the same operands in the same order whatever the core count. With
one core, or one item, nothing is forked and the same loop runs in the
main process alone.

Helpers are plain ``os.fork`` children. A message is a pickle whose
array data travels out of band through a memory region the two processes
share, so the pipe between them carries only a few hundred bytes; data
that does not fit the region goes through the pipe instead. Helpers
leave only through ``os._exit``, never returning into the caller's
stack. An exception a helper's item raises is sent back and re-raised in
the main process when that item comes up; a helper that dies raises
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

from .errors import AttnAlignError

# per helper; pages cost memory only once touched, and a training
# batch's per-sample gradients take a few MB
_SHARED_BYTES = 32 << 20
_in_helper = False
_parent_fds: set[int] = set()   # the main process's pipe ends of live helpers


def process_count() -> int:
    """Processes a split may use: the cores in this process's affinity.

    Platforms without ``os.fork`` or ``os.sched_getaffinity`` count as one.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _chunks(items: Sequence, n: int) -> list[Sequence]:
    """``n`` contiguous chunks whose sizes differ by at most one, larger first."""
    size, extra = divmod(len(items), n)
    bounds = [0]
    for i in range(n):
        bounds.append(bounds[-1] + size + (i < extra))
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _send(pipe, shared: memoryview, obj) -> None:
    buffers: list[pickle.PickleBuffer] = []
    head = pickle.dumps(obj, 5, buffer_callback=buffers.append)
    raws = [b.raw() for b in buffers]
    sizes = [r.nbytes for r in raws]
    if sum(sizes) <= len(shared):
        at = 0
        for r in raws:
            shared[at:at + r.nbytes] = r
            at += r.nbytes
    else:
        head, sizes = pickle.dumps(obj, 5), None
    pickle.dump((head, sizes), pipe, 5)
    pipe.flush()


def _receive(pipe, shared: memoryview):
    head, sizes = pickle.load(pipe)
    if sizes is None:
        return pickle.loads(head)
    buffers, at = [], 0
    for n in sizes:
        buffers.append(bytearray(shared[at:at + n]))   # the region is reused
        at += n
    return pickle.loads(head, buffers=buffers)


class _Helper:
    def __init__(self, pid: int, commands, results, shared: memoryview):
        self.pid = pid
        self.commands = commands    # main -> helper: (state, items)
        self.results = results      # helper -> main: (results, error)
        self.shared = shared        # array data of either, one at a time
        self.owes = False           # sent a chunk whose results are unread


class Split:
    """The main process plus up to ``n_items - 1`` forked helpers.

    ``work(item)`` computes one item's result. ``install(state)``, when
    given, runs in a helper before each chunk to bring it up to the main
    process's ``state``, which the main process itself already holds.
    Helpers are forked on entering the ``with`` block, so they see the
    objects ``work`` reads as they were then.
    """

    def __init__(self, work: Callable[[Any], Any], n_items: int,
                 install: Callable[[Any], None] | None = None):
        self.work = work
        self.install = install
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

    def map(self, items: Sequence, state: Any = None) -> Iterator:
        """Yield ``work(item)`` for every item, in item order."""
        parts = _chunks(items, max(1, min(len(items), 1 + len(self.helpers))))
        for helper, part in zip(self.helpers, parts[1:]):
            try:
                _send(helper.commands, helper.shared, (state, part))
            except BrokenPipeError:
                raise self._died(helper) from None
            helper.owes = True
        for item in parts[0]:
            yield self.work(item)
        for helper, _ in zip(self.helpers, parts[1:]):
            try:
                results, error = _receive(helper.results, helper.shared)
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
        shared = memoryview(mmap.mmap(-1, _SHARED_BYTES))   # MAP_SHARED
        cmd_r, cmd_w = os.pipe()
        res_r, res_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            for fd in (*_parent_fds, cmd_w, res_r):
                os.close(fd)
            self._serve(os.fdopen(cmd_r, "rb"), os.fdopen(res_w, "wb"), shared)
        os.close(cmd_r)
        os.close(res_w)
        _parent_fds.update((cmd_w, res_r))
        return _Helper(pid, os.fdopen(cmd_w, "wb"), os.fdopen(res_r, "rb"), shared)

    def _serve(self, commands, results, shared: memoryview) -> None:
        """A helper's whole life: compute chunks until the commands end."""
        global _in_helper
        _in_helper = True
        code = 1
        try:
            while True:
                try:
                    state, items = _receive(commands, shared)
                except EOFError:
                    code = 0
                    break
                if self.install is not None:
                    self.install(state)
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
                _send(results, shared, (out, error))
        finally:
            os._exit(code)
