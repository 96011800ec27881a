"""Readers-writer lock (the Boost named-sharable-mutex stand-in).

SLAM-Share mediates shared-memory access with Boost's named upgradable
mutexes so that "concurrent reads of shared data by threads of multiple
processes" proceed in parallel "while restricting writes to be
serialized" (§4.3.2).  :class:`RWLock` is that discipline — many
concurrent readers, exclusive writers, writer preference so writers do
not starve — as one state machine over a 16-byte lock word:

    offset +0   u32  readers           active read holders
    offset +4   u32  writer_active     0/1
    offset +8   u32  writers_waiting   writers queued (write preference)
    offset +12  u32  reserved

The word starts out private to the lock; :meth:`RWLock.bind` points it
at a shared-memory segment instead, so every process that attaches the
segment and binds at the same offset shares the state.  The word is only
ever mutated under the lock's condition variable, so plain u32 stores
suffice — no atomic CAS is needed from Python.  Blocked acquirers sleep
on the condition and are woken by ``notify_all`` from releasers.

What makes a lock thread-tier or process-tier is only where its
condition comes from: ``RWLock()`` takes ``threading.Condition``;
:class:`ProcessRWLock` takes it from a ``multiprocessing`` context and
is otherwise the same class.

Wait accounting (``read_wait_ns`` / ``write_wait_ns`` and acquisition
counts) is local to the recording process.  When lock holders live in
worker processes, each worker ships :meth:`RWLock.metrics_snapshot`
back at join and the orchestrator folds it in with
:meth:`RWLock.fold_metrics` — see
``repro.core.orchestrator.ServingOrchestrator``.

Pickling: a process-tier condition travels to child processes through
``Process`` args (spawn or fork); the lock word view cannot be pickled,
so an unpickled lock must be re-bound to the attached segment with
:meth:`RWLock.bind` before use — the store attach helpers do this.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Dict, Optional

from ..obs import get_metrics

LOCK_STATE_BYTES = 16

_READERS = 0
_WRITER_ACTIVE = 1
_WRITERS_WAITING = 2

_metrics = get_metrics()
_read_waits = _metrics.histogram(
    "sharedmem.lock_wait_read_us", "read-lock acquisition wait", unit="us"
)
_write_waits = _metrics.histogram(
    "sharedmem.lock_wait_write_us", "write-lock acquisition wait", unit="us"
)


class RWLock:
    """Write-preferring readers-writer lock.

    ``ctx`` is whatever provides ``Condition()``: the ``threading``
    module (default) for the threads of one process, a
    ``multiprocessing`` context for separate processes.
    """

    def __init__(self, ctx=threading,
                 default_timeout: Optional[float] = None) -> None:
        self._cond = ctx.Condition()
        self._offset = 0
        self.default_timeout = default_timeout
        self._detach()

    def _detach(self) -> None:
        """Private lock word, zeroed accounting (new / cloned / unpickled)."""
        self._state = array("I", [0, 0, 0, 0])
        self._bound = False
        self.read_acquisitions = 0
        self.write_acquisitions = 0
        # Always-on wait accounting (nanoseconds spent blocked acquiring),
        # so per-lock contention is measurable without global metrics —
        # ``ShardedMapStore.shard_stats`` reports these per shard.
        self.read_wait_ns = 0
        self.write_wait_ns = 0

    # -------------------------------------------------------------- binding
    def bind(self, buffer, offset: int = 0) -> "RWLock":
        """Point the lock word at ``buffer[offset:offset+16]``.

        ``buffer`` is the shared segment's memoryview; every process
        that attaches the segment binds to the same offset and therefore
        shares the same lock word.  The creating process should bind
        once right after allocating the segment (the segment arrives
        zero-filled, which is the unlocked state).
        """
        view = memoryview(buffer)[offset : offset + LOCK_STATE_BYTES]
        self._state = view.cast("I")
        self._offset = offset
        self._bound = True
        return self

    def unbind(self) -> None:
        """Drop the segment view (before closing the region)."""
        if self._bound:
            self._state = array("I", [0, 0, 0, 0])
            self._bound = False

    def clone(self) -> "RWLock":
        """A new handle on the *same* lock: shared condition and (once
        bound) shared lock word, but its own segment view and its own
        wait accounting.  Thread-mode workers attach through clones so
        one worker's ``unbind``/``close`` cannot yank the view out from
        under its siblings, and per-worker metrics stay separable."""
        twin = object.__new__(type(self))
        twin._cond = self._cond
        twin._offset = self._offset
        twin.default_timeout = self.default_timeout
        twin._detach()
        return twin

    def __getstate__(self):
        return {
            "cond": self._cond,
            "offset": self._offset,
            "default_timeout": self.default_timeout,
        }

    def __setstate__(self, state) -> None:
        self._cond = state["cond"]
        self._offset = state["offset"]
        self.default_timeout = state["default_timeout"]
        # The pickled view is gone; the attacher must bind() again.
        self._detach()

    # ------------------------------------------------------------ acquire
    def acquire_read(self, timeout: Optional[float] = None) -> bool:
        if timeout is None:
            timeout = self.default_timeout
        state = self._state
        t0 = time.perf_counter_ns()
        with self._cond:
            ok = self._cond.wait_for(
                lambda: not state[_WRITER_ACTIVE]
                and state[_WRITERS_WAITING] == 0,
                timeout=timeout,
            )
            if not ok:
                return False
            state[_READERS] += 1
            self.read_acquisitions += 1
            waited = time.perf_counter_ns() - t0
            self.read_wait_ns += waited
            if _metrics.enabled:
                _read_waits.record(waited / 1e3)
            return True

    def release_read(self) -> None:
        state = self._state
        with self._cond:
            if state[_READERS] == 0:
                raise RuntimeError("release_read without acquire_read")
            state[_READERS] -= 1
            if state[_READERS] == 0:
                self._cond.notify_all()

    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        if timeout is None:
            timeout = self.default_timeout
        state = self._state
        t0 = time.perf_counter_ns()
        with self._cond:
            state[_WRITERS_WAITING] += 1
            ok = False
            try:
                ok = self._cond.wait_for(
                    lambda: not state[_WRITER_ACTIVE]
                    and state[_READERS] == 0,
                    timeout=timeout,
                )
                if not ok:
                    return False
                state[_WRITER_ACTIVE] = 1
                self.write_acquisitions += 1
                waited = time.perf_counter_ns() - t0
                self.write_wait_ns += waited
                if _metrics.enabled:
                    _write_waits.record(waited / 1e3)
                return True
            finally:
                state[_WRITERS_WAITING] -= 1
                if not ok:
                    # A timed-out writer must wake readers it was gating.
                    self._cond.notify_all()

    def release_write(self) -> None:
        state = self._state
        with self._cond:
            if not state[_WRITER_ACTIVE]:
                raise RuntimeError("release_write without acquire_write")
            state[_WRITER_ACTIVE] = 0
            self._cond.notify_all()

    @contextmanager
    def read(self):
        if not self.acquire_read():
            raise RuntimeError("read lock timeout")
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        if not self.acquire_write():
            raise RuntimeError("write lock timeout")
        try:
            yield
        finally:
            self.release_write()

    # ---------------------------------------------------------- inspection
    @property
    def active_readers(self) -> int:
        return self._state[_READERS]

    @property
    def writer_active(self) -> bool:
        return bool(self._state[_WRITER_ACTIVE])

    # ------------------------------------------------------------- metrics
    def metrics_snapshot(self) -> Dict[str, int]:
        """This process's wait totals (ship to the orchestrator at join)."""
        return {
            "read_acquisitions": self.read_acquisitions,
            "write_acquisitions": self.write_acquisitions,
            "read_wait_ns": self.read_wait_ns,
            "write_wait_ns": self.write_wait_ns,
        }

    def fold_metrics(self, snapshot: Dict[str, int]) -> None:
        """Fold a worker's :meth:`metrics_snapshot` into this process's
        totals, so cross-process waits aggregate instead of being lost
        with the worker."""
        self.read_acquisitions += snapshot.get("read_acquisitions", 0)
        self.write_acquisitions += snapshot.get("write_acquisitions", 0)
        self.read_wait_ns += snapshot.get("read_wait_ns", 0)
        self.write_wait_ns += snapshot.get("write_wait_ns", 0)


class ProcessRWLock(RWLock):
    """:class:`RWLock` whose condition comes from a ``multiprocessing``
    context (the default one unless ``ctx`` is given), usable across
    OS processes once bound to a shared segment."""

    def __init__(self, ctx=None,
                 default_timeout: Optional[float] = None) -> None:
        super().__init__(ctx if ctx is not None else mp.get_context(),
                         default_timeout)
