"""Network substrate: simulated clock, shaped links, transport, pose and
trace-context codecs (the map codec is :mod:`repro.sharedmem.records`)."""

from .link import DuplexLink, Link, LinkStats
from .serialization import (
    TRACE_CONTEXT_BYTES,
    deserialize_pose,
    deserialize_trace_context,
    serialize_pose,
    serialize_trace_context,
)
from .simclock import SimClock
from .tc import (
    ALL_PROFILES,
    MBIT,
    PROFILE_BW_9_4,
    PROFILE_BW_18_7,
    PROFILE_DELAY_300MS,
    PROFILE_IDEAL,
    ShapingProfile,
)
from .transport import (
    ACK_BYTES,
    FRAME_HEADER_BYTES,
    MSG_DELIVERED,
    MSG_DROPPED,
    MSG_PENDING,
    ArqConfig,
    Endpoint,
    Message,
    connect,
    timed_transfer,
)

__all__ = [
    "ACK_BYTES",
    "ALL_PROFILES",
    "ArqConfig",
    "DuplexLink",
    "Endpoint",
    "FRAME_HEADER_BYTES",
    "Link",
    "LinkStats",
    "MBIT",
    "MSG_DELIVERED",
    "MSG_DROPPED",
    "MSG_PENDING",
    "Message",
    "PROFILE_BW_18_7",
    "PROFILE_BW_9_4",
    "PROFILE_DELAY_300MS",
    "PROFILE_IDEAL",
    "ShapingProfile",
    "SimClock",
    "TRACE_CONTEXT_BYTES",
    "connect",
    "deserialize_pose",
    "deserialize_trace_context",
    "serialize_pose",
    "serialize_trace_context",
    "timed_transfer",
]
