"""SLAM-Share core: server, client, sessions, baseline, holograms."""

from .baseline import (
    BaselineClientState,
    BaselineResult,
    BaselineSession,
    SyncRound,
)
from .client import FrameUpload, SlamShareClient
from .config import (
    BaselineConfig,
    MergeCostModel,
    ServingConfig,
    SlamShareConfig,
    mobile_cpu_model,
)
from .orchestrator import (
    ServingOrchestrator,
    ServingReport,
    ServingWorkloadConfig,
)
from .holograms import (
    Hologram,
    HologramRegistry,
    perceived_position,
    placement_error,
)
from .server import ServerFrameResult, SlamShareServer
from .session import (
    ClientOutcome,
    ClientScenario,
    FrameAccountingError,
    MergeEvent,
    SessionResult,
    SlamShareSession,
)

__all__ = [
    "BaselineClientState",
    "BaselineConfig",
    "BaselineResult",
    "BaselineSession",
    "ClientOutcome",
    "ClientScenario",
    "FrameAccountingError",
    "FrameUpload",
    "Hologram",
    "HologramRegistry",
    "MergeCostModel",
    "MergeEvent",
    "ServerFrameResult",
    "ServingConfig",
    "ServingOrchestrator",
    "ServingReport",
    "ServingWorkloadConfig",
    "SessionResult",
    "SlamShareClient",
    "SlamShareConfig",
    "SlamShareServer",
    "SlamShareSession",
    "SyncRound",
    "mobile_cpu_model",
    "perceived_position",
    "placement_error",
]
