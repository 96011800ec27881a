"""Fake device array module: numpy wearing a GPU costume.

CI hosts have no CUDA device, so the real cupy path can't run
there — but the *dispatch* machinery (device routing, staged uploads,
transfer batching, measured kernel timing, fallback behaviour) is where
the bugs live, and all of it is exercisable with a module that merely
*claims* ``is_device=True`` while computing on numpy.

:func:`make_fake_array_module` builds such a module.  Device arrays are
wrapped in :class:`FakeDeviceArray` so that accidentally handing a
"device" array to plain numpy code (or returning one to a caller that
expects host data) trips loudly in tests instead of silently working.
Transfer and kernel counters live on the standard
``ArrayModule.transfers`` / ``kernel_timings`` fields, so assertions
look identical for fake and real devices.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu.array import ArrayModule


class FakeDeviceArray:
    """A numpy array pretending to live on a device.

    Implements enough of the array protocol for the routed kernels
    (arithmetic, indexing, reductions via the namespace functions) while
    refusing implicit conversion back to a host ndarray — forcing every
    download through ``ArrayModule.to_host`` where it is counted.
    """

    __slots__ = ("data",)
    # keep numpy from absorbing us in mixed ops (we want FakeDeviceArray out)
    __array_priority__ = 100.0

    def __init__(self, data):
        self.data = np.asarray(data)

    # -- loud failure on implicit host conversion -------------------------
    def __array__(self, *args, **kwargs):
        raise TypeError(
            "implicit FakeDeviceArray -> host conversion; use "
            "ArrayModule.to_host() so the transfer is accounted"
        )

    # -- mirror ndarray surface the kernels rely on -----------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    @property
    def T(self):
        return FakeDeviceArray(self.data.T)

    def __len__(self):
        return len(self.data)

    def astype(self, dtype):
        return FakeDeviceArray(self.data.astype(dtype))

    def reshape(self, *shape):
        return FakeDeviceArray(self.data.reshape(*shape))

    def copy(self):
        return FakeDeviceArray(self.data.copy())

    def item(self):
        return self.data.item()

    def __getitem__(self, idx):
        out = self.data[_unwrap(idx)]
        return FakeDeviceArray(out) if isinstance(out, np.ndarray) else out

    def __setitem__(self, idx, value):
        self.data[_unwrap(idx)] = _unwrap(value)

    def __iter__(self):
        for row in self.data:
            yield FakeDeviceArray(row) if isinstance(row, np.ndarray) else row

    def __repr__(self):
        return f"FakeDeviceArray({self.data!r})"

    def __bool__(self):
        return bool(self.data)

    def __float__(self):
        return float(self.data)

    def __int__(self):
        return int(self.data)


def _unwrap(x):
    if isinstance(x, FakeDeviceArray):
        return x.data
    if isinstance(x, tuple):
        return tuple(_unwrap(v) for v in x)
    if isinstance(x, list):
        return [_unwrap(v) for v in x]
    return x


def _wrap(x):
    return FakeDeviceArray(x) if isinstance(x, np.ndarray) else x


_BINOPS = [
    ("__add__", np.add), ("__radd__", lambda a, b: np.add(b, a)),
    ("__sub__", np.subtract), ("__rsub__", lambda a, b: np.subtract(b, a)),
    ("__mul__", np.multiply), ("__rmul__", lambda a, b: np.multiply(b, a)),
    ("__truediv__", np.divide),
    ("__rtruediv__", lambda a, b: np.divide(b, a)),
    ("__floordiv__", np.floor_divide),
    ("__mod__", np.mod),
    ("__pow__", np.power),
    ("__xor__", np.bitwise_xor), ("__rxor__", np.bitwise_xor),
    ("__and__", np.bitwise_and), ("__rand__", np.bitwise_and),
    ("__or__", np.bitwise_or), ("__ror__", np.bitwise_or),
    ("__rshift__", np.right_shift), ("__lshift__", np.left_shift),
    ("__lt__", np.less), ("__le__", np.less_equal),
    ("__gt__", np.greater), ("__ge__", np.greater_equal),
    ("__eq__", np.equal), ("__ne__", np.not_equal),
    ("__matmul__", np.matmul),
]


def _make_binop(fn):
    def op(self, other):
        return _wrap(fn(self.data, _unwrap(other)))
    return op


for _name, _fn in _BINOPS:
    setattr(FakeDeviceArray, _name, _make_binop(_fn))
FakeDeviceArray.__neg__ = lambda self: FakeDeviceArray(-self.data)
FakeDeviceArray.__abs__ = lambda self: FakeDeviceArray(np.abs(self.data))
FakeDeviceArray.__invert__ = lambda self: FakeDeviceArray(~self.data)
FakeDeviceArray.__hash__ = None


class _FakeLinalg:
    def solve(self, a, b):
        return _wrap(np.linalg.solve(_unwrap(a), _unwrap(b)))

    def det(self, a):
        return _wrap(np.linalg.det(_unwrap(a)))

    def norm(self, a, axis=None, **kw):
        return _wrap(np.linalg.norm(_unwrap(a), axis=axis, **kw))

    def inv(self, a):
        return _wrap(np.linalg.inv(_unwrap(a)))


class FakeXp:
    """Numpy namespace whose functions speak :class:`FakeDeviceArray`."""

    def __init__(self, fail_ops: Optional[set] = None):
        self.linalg = _FakeLinalg()
        self._fail_ops = fail_ops or set()
        for name in ("float64", "float32", "int64", "int32", "intp",
                     "uint8", "uint64", "bool_", "pi", "newaxis", "inf"):
            setattr(self, name, getattr(np, name))

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        if name in self._fail_ops:
            raise RuntimeError(f"fake_xp: operation {name!r} forced to fail")
        fn = getattr(np, name)
        if not callable(fn):
            return fn

        def wrapped(*args, **kwargs):
            out = fn(*[_unwrap(a) for a in args],
                     **{k: _unwrap(v) for k, v in kwargs.items()})
            if isinstance(out, tuple):
                return tuple(_wrap(o) for o in out)
            return _wrap(out)

        return wrapped


def make_fake_array_module(
    name: str = "fake-gpu", fail_ops: Optional[set] = None
) -> ArrayModule:
    """Build a probed-compatible fake device module over numpy.

    ``fail_ops`` names namespace functions that raise when called —
    used to test that the capability probe rejects broken modules.
    """
    xp = FakeXp(fail_ops=fail_ops)
    return ArrayModule(
        name,
        xp,
        is_device=True,
        device_label="fake device (numpy)",
        to_device_fn=lambda a: FakeDeviceArray(np.array(a, copy=True)),
        to_host_fn=lambda a: np.array(_unwrap(a), copy=True),
    )
