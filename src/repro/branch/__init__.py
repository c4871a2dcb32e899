"""Branch direction predictors: the front-end substrate of the timing model."""

from .base import BranchPredictor, BranchStats
from .ittage import ITTAGE, ITtageEntry
from .tage import TAGEBranchPredictor, TageEntry

__all__ = [
    "BranchPredictor",
    "BranchStats",
    "ITTAGE",
    "ITtageEntry",
    "TAGEBranchPredictor",
    "TageEntry",
]
