"""IMU substrate: noise model, synthesis, preintegration, Alg. 1 client model."""

from .model import (
    GRAVITY_W,
    ImuNoiseModel,
    ImuSample,
    synthesize_imu,
)
from .motion_model import ClientMotionModel, FusionConfig
from .preintegration import ImuBuffer, ImuDelta, ImuState, preintegrate, propagate

__all__ = [
    "GRAVITY_W",
    "ClientMotionModel",
    "FusionConfig",
    "ImuBuffer",
    "ImuDelta",
    "ImuNoiseModel",
    "ImuSample",
    "ImuState",
    "preintegrate",
    "propagate",
    "synthesize_imu",
]
