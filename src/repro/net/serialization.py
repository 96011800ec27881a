"""Wire codecs of the per-frame messages: the pose and the trace context.

SLAM-Share returns one small pose per frame (a 4x4 matrix); a message
that carries a trace grows by a fixed-size context rider.  The map
itself has one byte format, :mod:`repro.sharedmem.records`, which the
Edge-SLAM-style baseline ships (paper §5.1, Table 4 rows 2/5) and the
shared-memory store holds.
"""

from __future__ import annotations

import struct

import numpy as np

from ..geometry import SE3

#: Wire cost of a trace context rider: two u64s (trace_id, span_id).
TRACE_CONTEXT_BYTES = 16

_TRACE_CTX = struct.Struct("<QQ")


def serialize_trace_context(ctx) -> bytes:
    """Pack a trace context rider (``TRACE_CONTEXT_BYTES`` on the wire).

    Accepts anything exposing ``trace_id``/``span_id`` (normally an
    :class:`repro.obs.TraceContext`); the frame header grows by exactly
    this much when a message carries a trace.
    """
    return _TRACE_CTX.pack(ctx.trace_id, ctx.span_id)


def deserialize_trace_context(data: bytes):
    """Unpack a trace context rider into a live ``TraceContext``."""
    from ..obs.trace import TraceContext

    trace_id, span_id = _TRACE_CTX.unpack_from(data, 0)
    return TraceContext(trace_id, span_id)


def serialize_pose(pose: SE3) -> bytes:
    """The tiny per-frame pose message SLAM-Share returns (a 4x4 matrix)."""
    return pose.matrix().astype("<f8").tobytes()


def deserialize_pose(data: bytes) -> SE3:
    matrix = np.frombuffer(data, dtype="<f8").reshape(4, 4)
    return SE3.from_matrix(matrix)
