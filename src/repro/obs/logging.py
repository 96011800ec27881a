"""Structured, per-component logging for the reproduction pipeline.

Every subsystem gets a named child of the ``repro`` root logger
(``repro.core.server``, ``repro.gpu.scheduler``, ...) via
:func:`get_logger`; :func:`configure` is the single entry point the CLI
(and tests) use to attach a handler and pick a level.  Messages carry
structured ``key=value`` fields through :func:`kv` so log lines stay
grep-able without a JSON pipeline.

Until :func:`configure` is called the root logger only has a
``NullHandler`` — importing the library never spams stderr.
"""

from __future__ import annotations

import logging
import sys
from typing import Any, Optional, TextIO

ROOT_LOGGER = "repro"

#: Plain format used at info level — CLI output stays human-readable.
PLAIN_FORMAT = "%(message)s"
#: Detailed format used at debug level (or on request).
DEBUG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s %(message)s"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

logging.getLogger(ROOT_LOGGER).addHandler(logging.NullHandler())


def get_logger(component: str) -> logging.Logger:
    """Named logger for one component, e.g. ``get_logger("core.server")``."""
    if component.startswith(ROOT_LOGGER + ".") or component == ROOT_LOGGER:
        return logging.getLogger(component)
    return logging.getLogger(f"{ROOT_LOGGER}.{component}")


def kv(**fields: Any) -> str:
    """Render structured fields as a stable ``key=value`` suffix."""
    parts = []
    for key, value in fields.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.3f}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def configure(
    level: str = "info",
    stream: Optional[TextIO] = None,
    fmt: Optional[str] = None,
) -> logging.Logger:
    """Attach a stream handler to the ``repro`` root logger.

    Replaces any previous handler (idempotent — the CLI calls this on
    every invocation).  ``stream`` defaults to the *current*
    ``sys.stdout`` so output lands wherever stdout points at call time.
    """
    if level not in _LEVELS:
        raise ValueError(f"unknown log level {level!r} (want {sorted(_LEVELS)})")
    root = logging.getLogger(ROOT_LOGGER)
    root.setLevel(_LEVELS[level])
    root.propagate = False
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stdout)
    if fmt is None:
        fmt = DEBUG_FORMAT if level == "debug" else PLAIN_FORMAT
    handler.setFormatter(logging.Formatter(fmt))
    root.addHandler(handler)
    return root
