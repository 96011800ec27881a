"""Network substrate: simulated clock, shaped links and the framed
transport (the map codec is :mod:`repro.sharedmem.records`)."""

from .link import DuplexLink, Link, LinkStats
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
    TRACE_CONTEXT_BYTES,
    ArqConfig,
    Endpoint,
    Message,
    connect,
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
]
