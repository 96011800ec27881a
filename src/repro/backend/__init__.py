"""The ``backend`` name and the array-module dispatch layer behind it.

``backend`` is ``"vectorized"`` (the batched numpy kernels) or ``"gpu"``
(the same bodies on a device array module); :func:`resolve_backend` is
the one place a name is checked and bound.  The dispatch layer makes
``"gpu"`` real: xp-style array-module resolution (cupy/torch
auto-detection with a capability probe), host<->device transfer helpers
with accounting, keyed staging so micro-batches pay one upload, and
measured kernel wall-time.

Without a device, ``gpu`` degrades to ``vectorized`` on numpy with a
single logged warning — results are identical either way.
"""

from .dispatch import (
    ArrayModule,
    DeviceStager,
    KernelTiming,
    TransferStats,
    as_numpy,
    available_device_modules,
    clear_detection_cache,
    get_array_module,
    host_array_module,
    probe_array_module,
    register_device_builder,
    resolve_backend,
    set_array_module_override,
    use_array_module,
)

__all__ = [
    "ArrayModule",
    "DeviceStager",
    "KernelTiming",
    "TransferStats",
    "as_numpy",
    "available_device_modules",
    "clear_detection_cache",
    "get_array_module",
    "host_array_module",
    "probe_array_module",
    "register_device_builder",
    "resolve_backend",
    "set_array_module_override",
    "use_array_module",
]
