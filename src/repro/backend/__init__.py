"""The ``backend`` name and the array-module dispatch layer behind it.

``backend`` is ``"vectorized"`` (the kernels on the host numpy module)
or ``"gpu"`` (the same bodies on a device array module);
:func:`resolve_backend` is the one place a name is checked and bound,
and it always returns an :class:`ArrayModule`.  The dispatch layer
makes ``"gpu"`` real: array-module resolution (cupy auto-detection
with a capability probe), host<->device transfer helpers with
accounting, and measured kernel wall-time.

Without a device, ``gpu`` degrades to the host module with a single
logged warning — results are identical either way.
"""

from .dispatch import (
    ArrayModule,
    KernelTiming,
    TransferStats,
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
    "KernelTiming",
    "TransferStats",
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
