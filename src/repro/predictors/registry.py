"""The predictor registry: every named predictor as a value.

A :class:`PredictorSpec` (a class plus its keywords) is frozen and
picklable, so it rides in a cell across processes; its ``to_dict`` is
all a cell key needs, as the source every key hashes fixes the defaults.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, is_dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .base import MDPredictor, PredictorSizing
from .configs import (MASCOT_DEFAULT, MASCOT_OPT, TAGE_NO_ND_CONFIG,
                      mascot_opt_reduced_tags)
from .idist import IDistStoreSets
from .mascot import Mascot
from .nosq import NoSQ
from .perfect import PerfectMDP, PerfectMDPSMB
from .phast import Phast
from .store_sets import StoreSets
from .tage_mdp import TageMdp

__all__ = ["PredictorSpec", "PREDICTORS", "make_predictor", "predictor_spec",
           "table2_rows"]


def _encode(value: object) -> object:
    """JSON form of a keyword value (a JSON scalar, a tuple of them, or a
    frozen dataclass by its fields); any other value raises TypeError."""
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if (is_dataclass(value) and not isinstance(value, type)
            and value.__dataclass_params__.frozen):
        return asdict(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"predictor keyword value {value!r} is not a JSON "
                    "scalar, a tuple or a frozen dataclass")


@dataclass(frozen=True, init=False)
class PredictorSpec:
    """A named predictor: ``cls(**kwargs)``."""

    name: str
    cls: type
    #: The construction keywords as sorted ``(keyword, value)`` pairs.
    kwargs: Tuple[Tuple[str, object], ...]

    def __init__(self, name: str, cls: type, **kwargs: object):
        for value in kwargs.values():
            _encode(value)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "kwargs", tuple(sorted(kwargs.items())))

    def build(self) -> MDPredictor:
        """A fresh predictor."""
        return self.cls(**dict(self.kwargs))

    def with_(self, name: Optional[str] = None,
              **overrides: object) -> PredictorSpec:
        """A variant: these keywords replaced or added, optionally renamed."""
        return PredictorSpec(name or self.name, self.cls,
                             **{**dict(self.kwargs), **overrides})

    def to_dict(self) -> Dict[str, object]:
        """Name, class and keywords as JSON (a dataclass by its fields)."""
        return {
            "name": self.name,
            "class": f"{self.cls.__module__}.{self.cls.__qualname__}",
            "kwargs": {key: _encode(value) for key, value in self.kwargs},
        }


def _mascot(config, **changes) -> PredictorSpec:
    config = config.with_(**changes)
    return PredictorSpec(config.name, Mascot, config=config)


#: Every named predictor, by canonical name; read-only.
PREDICTORS: Mapping[str, PredictorSpec] = MappingProxyType({
    spec.name: spec for spec in (
        PredictorSpec("perfect-mdp", PerfectMDP),
        PredictorSpec("perfect-mdp-smb", PerfectMDPSMB),
        _mascot(MASCOT_DEFAULT),
        _mascot(MASCOT_DEFAULT, name="mascot-mdp", smb_enabled=False),
        _mascot(MASCOT_OPT),
        *(_mascot(mascot_opt_reduced_tags(bits)) for bits in (2, 4, 6)),
        _mascot(MASCOT_DEFAULT, name="mascot-offset", offset_bypass=True),
        _mascot(MASCOT_DEFAULT, name="mascot-decay", decay_period=50_000),
        _mascot(TAGE_NO_ND_CONFIG),
        _mascot(TAGE_NO_ND_CONFIG, name="tage-no-nd-mdp", smb_enabled=False),
        PredictorSpec("phast", Phast),
        PredictorSpec("tage-mdp", TageMdp),
        PredictorSpec("idist+store-sets", IDistStoreSets),
        PredictorSpec("nosq", NoSQ),
        PredictorSpec("store-sets", StoreSets),
    )
})


def predictor_spec(predictor: Union[str, PredictorSpec]) -> PredictorSpec:
    """The spec a registered name stands for; a spec is returned as is."""
    if isinstance(predictor, PredictorSpec):
        return predictor
    try:
        return PREDICTORS[predictor]
    except KeyError:
        raise KeyError(f"unknown predictor {predictor!r}; known: "
                       f"{', '.join(sorted(PREDICTORS))}") from None


def make_predictor(name: str) -> MDPredictor:
    """Build a fresh predictor by canonical name."""
    return predictor_spec(name).build()


def table2_rows() -> List[PredictorSizing]:
    """Table II's rows plus Fig. 15's MASCOT-OPT variants, each read from
    the predictor's own :attr:`~repro.predictors.base.MDPredictor.storage`.

    The paper reports Store Sets 18.5 KB (8K-entry SSIT + 4K-entry LFST),
    NoSQ 19 KB, PHAST 14.5 KB, MASCOT 14 KB, MASCOT-OPT 11.75 KiB and its
    tags-4 variant 10.1 KiB (1 KB = 1024 B).
    """
    names = ("store-sets", "nosq", "phast", "mascot", "mascot-opt",
             "mascot-opt-tag4")
    return [row for name in names for row in PREDICTORS[name].build().storage]
