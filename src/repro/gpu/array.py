"""Array-module (``xp``-style) dispatch layer: where a kernel body runs.

Every routed kernel in this repo is written once, against an
:class:`ArrayModule`.  The host module (numpy itself) runs it for
``"vectorized"``; for ``"gpu"`` a device module runs the same lines by
substituting the array namespace (cupy is a numpy drop-in).  This
module owns that substitution:

* :class:`ArrayModule` — an array namespace plus the non-portable bits
  normalized (dtype coercion, contiguity, host<->device transfers with
  byte/time accounting, elementwise popcount, measured kernel timing).
  On the host module transfers are zero-copy pass-throughs and kernel
  timing is a no-op, so a kernel body run there is plain numpy;
* :func:`resolve_backend` — the one check of a ``backend`` name
  (``"vectorized"`` or ``"gpu"``) and its binding to a module: the
  capability-probed cupy device when there is one, the host module
  when there is none;
* :func:`use_array_module` — the scoped test seam that stands a fake
  device in for cupy.

The capability probe runs every operation the routed kernels use on
tiny inputs and compares against numpy before a device module is
accepted; a module that fails the probe is rejected (logged) and the
host module is used, so a broken or partial module can never produce
wrong results — only slower ones.  ``ArrayModule.is_device`` is read
in this module and nowhere else.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..obs import get_logger

_log = get_logger("gpu")

_POPCOUNT_U8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


@dataclass
class KernelTiming:
    """One measured device-kernel execution (wall clock, synchronized)."""

    name: str
    wall_s: float
    module: str                     # ArrayModule.name that ran it


@dataclass
class TransferStats:
    """Host<->device traffic accounting for one :class:`ArrayModule`."""

    to_device: int = 0
    to_host: int = 0
    bytes_to_device: int = 0
    bytes_to_host: int = 0
    transfer_wall_s: float = 0.0

    def snapshot(self) -> "TransferStats":
        return dataclasses.replace(self)


class ArrayModule:
    """An array namespace with transfers, popcount and timing normalized.

    ``xp`` is the numpy-compatible namespace (numpy itself or cupy).
    ``is_device`` says whether its arrays live off the host: only then
    do transfers copy and count and :meth:`kernel` measure, so the host
    instance runs a kernel body exactly as numpy would.
    """

    def __init__(
        self,
        name: str,
        xp,
        *,
        is_device: bool,
        device_label: str = "host",
        to_device_fn: Optional[Callable] = None,
        to_host_fn: Optional[Callable] = None,
        synchronize_fn: Optional[Callable] = None,
    ) -> None:
        self.name = name
        self.xp = xp
        self.is_device = is_device
        self.device_label = device_label
        self._to_device = to_device_fn or (lambda a: a)
        self._to_host = to_host_fn or np.asarray
        self._synchronize = synchronize_fn or (lambda: None)
        self.transfers = TransferStats()
        self.kernel_timings: List[KernelTiming] = []
        self._lut_dev = None
        # Hamming word layout: uint64 views shrink the popcount input 8x
        # but need a native popcount for that dtype.
        self.hamming_dtype = (
            np.uint64 if hasattr(xp, "bitwise_count") else np.uint8
        )

    # ------------------------------------------------------------ transfers
    def to_device(self, array: np.ndarray, dtype=None) -> object:
        """Upload one host array (normalizing dtype and contiguity)."""
        array = np.asarray(array)
        if dtype is not None and array.dtype != dtype:
            array = array.astype(dtype)
        if not array.flags.c_contiguous:
            array = np.ascontiguousarray(array)
        if not self.is_device:
            return array
        start = time.perf_counter()
        out = self._to_device(array)
        self.transfers.transfer_wall_s += time.perf_counter() - start
        self.transfers.to_device += 1
        self.transfers.bytes_to_device += array.nbytes
        return out

    def to_host(self, array) -> np.ndarray:
        """Fetch one device array back to a host numpy array."""
        if not self.is_device:
            return np.asarray(array)
        start = time.perf_counter()
        out = np.asarray(self._to_host(array))
        self.transfers.transfer_wall_s += time.perf_counter() - start
        self.transfers.to_host += 1
        self.transfers.bytes_to_host += out.nbytes
        return out

    def reset_counters(self) -> None:
        self.transfers = TransferStats()
        self.kernel_timings.clear()

    # ----------------------------------------------------------- primitives
    def popcount(self, array):
        """Elementwise popcount of a block in :attr:`hamming_dtype` layout."""
        if self.hamming_dtype == np.uint64:
            return self.xp.bitwise_count(array)
        # Byte-LUT gather fallback (uint8 layout only).
        if self._lut_dev is None:
            self._lut_dev = self.to_device(_POPCOUNT_U8)
        return self._lut_dev[array]

    # --------------------------------------------------------------- timing
    @contextmanager
    def kernel(self, name: str):
        """Measure one device-kernel execution (synchronized wall time).

        On a host module this is a no-op context (no timing recorded):
        measured kernel times only ever come from real device execution
        (or the fake test module, which declares itself a device).
        """
        if not self.is_device:
            yield None
            return
        self._synchronize()
        start = time.perf_counter()
        yield None
        self._synchronize()
        self.kernel_timings.append(
            KernelTiming(name, time.perf_counter() - start, self.name)
        )

    def drain_kernel_ms(self, mark: int) -> Optional[float]:
        """Total ms of the kernels timed since ``kernel_timings[mark]``.

        Drains those timings.  ``None`` on a host module: there is no
        measurement, so the caller keeps its calibrated latency model
        (a summed 0.0 would silently replace it).
        """
        if not self.is_device:
            return None
        timings = self.kernel_timings[mark:]
        del self.kernel_timings[mark:]
        return 1e3 * sum(t.wall_s for t in timings)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ArrayModule({self.name!r}, device={self.is_device}, "
                f"label={self.device_label!r})")


# --------------------------------------------------------------- detection
_OVERRIDE: List[ArrayModule] = []
_DETECTED: List[Optional[ArrayModule]] = []   # the probed device, once
_host_module: Optional[ArrayModule] = None


def host_array_module() -> ArrayModule:
    """The always-available numpy passthrough module."""
    global _host_module
    if _host_module is None:
        _host_module = ArrayModule("numpy", np, is_device=False)
    return _host_module


@contextmanager
def use_array_module(module: Optional[ArrayModule]):
    """Make ``backend="gpu"`` resolve to ``module`` inside the block.

    Test seam: sessions built with ``backend="gpu"`` pick up the fake
    device module through the same path a detected device takes.
    """
    prev = list(_OVERRIDE)
    _OVERRIDE[:] = [] if module is None else [module]
    try:
        yield module
    finally:
        _OVERRIDE[:] = prev


def _build_cupy_module() -> Optional[ArrayModule]:
    try:
        import cupy  # noqa: F401 - optional dependency

        if cupy.cuda.runtime.getDeviceCount() < 1:
            return None
        props = cupy.cuda.runtime.getDeviceProperties(0)
        label = props["name"].decode() if isinstance(
            props.get("name"), bytes) else str(props.get("name", "cuda:0"))
        return ArrayModule(
            "cupy",
            cupy,
            is_device=True,
            device_label=label,
            to_device_fn=cupy.asarray,
            to_host_fn=cupy.asnumpy,
            synchronize_fn=cupy.cuda.runtime.deviceSynchronize,
        )
    except Exception:
        return None


def probe_array_module(am: ArrayModule) -> bool:
    """Run every routed operation on tiny inputs and compare to numpy.

    A device module is only accepted when all of: transfers round-trip,
    popcount/row gather agree bit-exactly, and the linear-algebra /
    segment ops (matmul, einsum, batched solve/det, weighted bincount,
    stable argsort, partition, trig) agree with numpy to 1e-10.  Any
    exception or mismatch rejects the module.  An accepted module's
    transfer counters and kernel timings are reset, so its accounting
    starts with the caller's first kernel, not with the probe.
    """
    try:
        xp = am.xp
        rng = np.random.default_rng(0)
        # transfers + dtype/contiguity normalization
        host = np.asarray(rng.normal(size=(4, 4)), order="F")[:, :3]
        dev = am.to_device(host, dtype=np.float64)
        if not np.allclose(am.to_host(dev), host):
            return False
        # popcount + gather (uint8 layout always; uint64 when claimed)
        a8 = rng.integers(0, 256, size=(3, 8), dtype=np.uint8)
        b8 = rng.integers(0, 256, size=(3, 8), dtype=np.uint8)
        pc = am.to_host(am.popcount(am.to_device(a8) ^ am.to_device(b8)))
        ref = _POPCOUNT_U8[a8 ^ b8]
        if not np.array_equal(pc.astype(np.int64), ref.astype(np.int64)):
            return False
        if am.hamming_dtype == np.uint64:
            a64 = np.ascontiguousarray(a8).view(np.uint64)
            b64 = np.ascontiguousarray(b8).view(np.uint64)
            pc64 = am.to_host(
                am.popcount(am.to_device(a64) ^ am.to_device(b64))
            )
            if int(pc64.sum()) != int(ref.sum()):
                return False
        idx = np.array([2, 0, 1], dtype=np.intp)
        g = am.to_host(am.to_device(a8)[am.to_device(idx)])
        if not np.array_equal(g, a8[idx]):
            return False
        # linalg / segment / ordering ops used by BA + pose-graph + match
        m = rng.normal(size=(5, 3, 3))
        m = m @ np.transpose(m, (0, 2, 1)) + 3.0 * np.eye(3)
        v = rng.normal(size=(5, 3))
        md, vd = am.to_device(m), am.to_device(v)
        sol = am.to_host(xp.linalg.solve(md, vd[..., None]))[..., 0]
        if not np.allclose(sol, np.linalg.solve(m, v[..., None])[..., 0],
                           atol=1e-10):
            return False
        if not np.allclose(am.to_host(xp.linalg.det(md)), np.linalg.det(m),
                           atol=1e-8):
            return False
        ein = am.to_host(xp.einsum("nki,nkj->nij", md, md))
        if not np.allclose(ein, np.einsum("nki,nkj->nij", m, m), atol=1e-8):
            return False
        seg = np.array([0, 1, 0, 2, 1], dtype=np.intp)
        w = rng.normal(size=5)
        bc = am.to_host(xp.bincount(am.to_device(seg), weights=am.to_device(w),
                                    minlength=4))
        if not np.allclose(bc, np.bincount(seg, weights=w, minlength=4),
                           atol=1e-12):
            return False
        d = rng.integers(0, 7, size=(4, 6))
        dd = am.to_device(d)
        if not np.array_equal(am.to_host(xp.argmin(dd, axis=1)),
                              np.argmin(d, axis=1)):
            return False
        part = np.sort(am.to_host(xp.partition(dd, 1, axis=1))[:, :2], axis=1)
        if not np.array_equal(part, np.sort(d, axis=1)[:, :2]):
            return False
        keys = np.array([3, 1, 3, 0, 1], dtype=np.int64)
        if not np.array_equal(
            am.to_host(xp.argsort(am.to_device(keys), kind="stable")),
            np.argsort(keys, kind="stable"),
        ):
            return False
        ang = rng.normal(size=6)
        angd = am.to_device(ang)
        for fn in ("sin", "cos", "tan", "sqrt", "arccos"):
            arg, argd = (np.abs(ang) / 10.0, am.to_device(np.abs(ang) / 10.0)) \
                if fn in ("sqrt", "arccos") else (ang, angd)
            if not np.allclose(am.to_host(getattr(xp, fn)(argd)),
                               getattr(np, fn)(arg), atol=1e-12):
                return False
    except Exception as exc:  # pragma: no cover - depends on host modules
        _log.warning("array module %r failed the capability probe: %s",
                     am.name, exc)
        return False
    am.reset_counters()
    return True


def _detected_device() -> Optional[ArrayModule]:
    """The cupy device module if it exists and passes the probe, else None.

    Built and probed on the first call only; the answer is cached for
    the process.
    """
    if not _DETECTED:
        module = _build_cupy_module()
        if module is not None and not probe_array_module(module):
            _log.warning(
                "device array module %r rejected by capability probe; "
                "ignoring it", module.name,
            )
            module = None
        if module is not None:
            _log.info("device array module %r ready (%s)",
                      module.name, module.device_label)
        _DETECTED.append(module)
    return _DETECTED[0]


_BACKENDS = ("vectorized", "gpu")
_warned_fallback = False


def resolve_backend(
    name: str, array_module: Optional[ArrayModule] = None
) -> ArrayModule:
    """The array module ``name``'s kernels run on.

    ``"vectorized"`` is the host numpy module.  ``"gpu"`` is a device
    module: the one passed in, else the one :func:`use_array_module`
    installed (tests inject the fake module either way), else the
    detected cupy device.  Without a device it is the host module —
    ``"vectorized"``, byte for byte — and says so once per process.
    Any other name raises ``unknown backend {name!r}``.
    """
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}")
    if name == "vectorized":
        return host_array_module()
    if array_module is None:
        array_module = (_OVERRIDE[0] if _OVERRIDE else _detected_device()
                        ) or host_array_module()
    if array_module.is_device:
        return array_module
    global _warned_fallback
    if not _warned_fallback:
        _warned_fallback = True
        _log.warning(
            "backend 'gpu' requested but no device array module is available "
            "(cupy with a GPU); falling back to 'vectorized' on numpy"
        )
    return host_array_module()
