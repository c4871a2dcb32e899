"""Memory-dependence / SMB predictors: MASCOT, baselines and oracles."""

from .base import (ActualOutcome, MDPredictor, Prediction, PredictionKind,
                   PredictorSizing)
from .configs import (
    MASCOT_DEFAULT,
    MASCOT_OPT,
    TAGE_NO_ND_CONFIG,
    MascotConfig,
    mascot_opt_reduced_tags,
)
from .mascot import Mascot, MascotEntry
from .nosq import NoSQ, NoSQEntry
from .perfect import PerfectMDP, PerfectMDPSMB
from .phast import PHAST_HISTORY_LENGTHS, Phast, PhastEntry
from .registry import PREDICTORS, PredictorSpec, table2_rows
from .idist import IDIST_HISTORY_LENGTHS, IDistEntry, IDistStoreSets
from .store_sets import StoreSets
from .tage_mdp import TageMdp, TageMdpEntry
from .tables import TableBank, TableKey, TaggedTable

__all__ = [
    "ActualOutcome",
    "MDPredictor",
    "Prediction",
    "PredictionKind",
    "MASCOT_DEFAULT",
    "MASCOT_OPT",
    "MascotConfig",
    "mascot_opt_reduced_tags",
    "Mascot",
    "MascotEntry",
    "NoSQ",
    "NoSQEntry",
    "PerfectMDP",
    "PerfectMDPSMB",
    "PHAST_HISTORY_LENGTHS",
    "Phast",
    "PhastEntry",
    "PREDICTORS",
    "PredictorSpec",
    "PredictorSizing",
    "table2_rows",
    "StoreSets",
    "IDIST_HISTORY_LENGTHS",
    "IDistEntry",
    "IDistStoreSets",
    "TageMdp",
    "TageMdpEntry",
    "TableBank",
    "TableKey",
    "TaggedTable",
    "TAGE_NO_ND_CONFIG",
]
