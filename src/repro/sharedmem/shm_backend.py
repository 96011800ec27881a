"""Real OS shared memory backing for the map store.

A store on its own lays its arena out in an anonymous mapping that only
its process sees; this module provides the genuine article — a named
``multiprocessing.shared_memory`` segment that separate Python processes
can attach, matching the Boost interprocess usage in the paper (an
orchestrator allocates the region, per-client processes attach it by
name, §4.3.2).  The arena layout inside is the same either way.

Lifetime rules (mirroring the paper's orchestrator/worker split):

* every process — owner or attacher — calls :meth:`SharedMemoryRegion.close`
  when done; ``close`` is idempotent;
* only the *creating* process destroys the segment with
  :meth:`SharedMemoryRegion.unlink`; on attached regions ``unlink`` is a
  no-op, so worker code can use the same ``with`` block as the owner;
* attached regions are unregistered from Python's ``resource_tracker``
  so a worker-process exit does not double-unlink the segment the
  orchestrator still owns (the Linux "leaked shared_memory" warning).
"""

from __future__ import annotations

import threading
from multiprocessing import shared_memory
from typing import Optional

try:  # CPython keeps this private; degrade gracefully if it moves.
    from multiprocessing import resource_tracker as _resource_tracker
except ImportError:  # pragma: no cover
    _resource_tracker = None

_attach_guard = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment without registering it with the resource tracker.

    The tracker assumes whoever opens a segment owns it and unlinks
    leftovers at process exit; an attaching worker does NOT own the
    segment, so registering it would (a) destroy the orchestrator's
    live region when the worker exits and (b) spam "leaked
    shared_memory objects" / KeyError warnings on Linux.  Suppressing
    registration up front (instead of unregistering afterwards) also
    keeps the *owner's* registration intact when the attach happens in
    the owning process itself.
    """
    if _resource_tracker is None:  # pragma: no cover
        return shared_memory.SharedMemory(name=name, create=False)
    with _attach_guard:
        original = _resource_tracker.register
        _resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            _resource_tracker.register = original


class SharedMemoryRegion:
    """A named shared-memory segment with create/attach semantics."""

    def __init__(
        self, name: Optional[str] = None, size: int = 0, create: bool = True
    ) -> None:
        if create:
            if size <= 0:
                raise ValueError("creating a region requires a positive size")
            self._shm = shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        else:
            if name is None:
                raise ValueError("attaching a region requires its name")
            self._shm = _attach_untracked(name)
        self._owner = create
        self._closed = False
        self._unlinked = False

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def buffer(self) -> memoryview:
        if self._closed:
            raise ValueError("region is closed")
        return self._shm.buf

    def close(self) -> None:
        """Detach from the segment (all processes; safe to call twice)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            # Live numpy views over the buffer keep it pinned; the
            # mapping is released when they are garbage collected.
            pass

    def unlink(self) -> None:
        """Destroy the segment.

        Only the creating orchestrator actually unlinks; on attached
        regions this is a no-op so owner and workers share one cleanup
        path.  Idempotent — a second call (or racing an external
        cleanup) is silently ignored.
        """
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedMemoryRegion":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()

    def __del__(self) -> None:  # best-effort: never raise during gc
        try:
            self.close()
        except Exception:
            pass
