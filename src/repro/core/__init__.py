"""Out-of-order core timing model (the Sniper+GEMS substitute)."""

from .batched import BatchedPipeline
from .config import GOLDEN_COVE, LION_COVE, CoreConfig
from .lsu import StoreTiming, StoreWindow
from .pipeline import Pipeline
from .ports import PortPool, PortSet
from .stats import PipelineStats
from .timeline import Timeline, UopTiming

__all__ = [
    "GOLDEN_COVE",
    "LION_COVE",
    "CoreConfig",
    "BatchedPipeline",
    "StoreTiming",
    "StoreWindow",
    "Pipeline",
    "PortPool",
    "PortSet",
    "PipelineStats",
    "Timeline",
    "UopTiming",
]
