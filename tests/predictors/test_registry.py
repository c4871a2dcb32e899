"""The predictor registry: every predictor is a value, and a cell is keyed
on what its predictor is — class and construction keywords — so no two
variants can share a cached result."""

import dataclasses
import inspect
import json
import os
import pickle
import shutil
import subprocess
import sys

import pytest

from repro.core.config import GOLDEN_COVE
from repro.experiments.parallel import CellSpec, Execution
from repro.experiments.result_cache import _PACKAGE_ROOT, cell_key
from repro.experiments.suite import run_ipc_suite
from repro.predictors import Mascot, MascotConfig, StoreSets
from repro.predictors.registry import (
    PREDICTORS,
    PredictorSpec,
    make_predictor,
    predictor_spec,
)


def _cell(predictor):
    return CellSpec(mode="timing", benchmark="lbm", num_uops=5_000,
                    predictor=predictor, config=GOLDEN_COVE)


def _other_values(value):
    """Candidate values differing from ``value``, most natural first."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value - 1, value * 2]
    if isinstance(value, float):
        return [value * 2 + 1]
    if isinstance(value, str):
        return [value + "-other"]
    if isinstance(value, tuple):
        return [value[:-1] + (other,) for other in _other_values(value[-1])]
    raise TypeError(f"no variant for {value!r}")


def _valid_variant(config, field):
    """``config`` with ``field`` changed to the first value it accepts."""
    for other in _other_values(getattr(config, field)):
        try:
            return dataclasses.replace(config, **{field: other})
        except ValueError:
            continue
    raise AssertionError(f"no valid variant of {field}")


def _keyword_variants():
    """(spec, changed spec) for every registered keyword (every field of
    a dataclass keyword) and every further constructor keyword."""
    for spec in PREDICTORS.values():
        registered = dict(spec.kwargs)
        for key, value in registered.items():
            if dataclasses.is_dataclass(value):
                for field in dataclasses.fields(value):
                    yield (f"{spec.name}:{key}.{field.name}", spec,
                           spec.with_(**{key: _valid_variant(value,
                                                              field.name)}))
            else:
                yield (f"{spec.name}:{key}", spec,
                       spec.with_(**{key: _other_values(value)[0]}))
        for name, param in inspect.signature(spec.cls).parameters.items():
            if name in registered or dataclasses.is_dataclass(param.default):
                continue
            yield (f"{spec.name}:{name}", spec,
                   spec.with_(**{name: _other_values(param.default)[0]}))


_VARIANTS = list(_keyword_variants())


class TestKeying:
    @pytest.mark.parametrize("label,spec,variant", _VARIANTS,
                             ids=[label for label, _, _ in _VARIANTS])
    def test_changed_keyword_changes_key(self, label, spec, variant):
        assert variant.name == spec.name
        assert cell_key(_cell(variant)) != cell_key(_cell(spec))

    def test_every_mascot_config_field_is_covered(self):
        labels = {label for label, _, _ in _VARIANTS}
        for field in dataclasses.fields(MascotConfig):
            assert f"mascot:config.{field.name}" in labels

    def test_predictor_config_is_keyed(self):
        """mascot and mascot-opt share a class but not a key: the key
        carries the config dataclass, not just the module."""
        default = PREDICTORS["mascot"].to_dict()
        opt = PREDICTORS["mascot-opt"].to_dict()
        assert default["class"] == opt["class"]
        assert default["kwargs"]["config"] != opt["kwargs"]["config"]
        assert cell_key(_cell("mascot")) != cell_key(_cell("mascot-opt"))

    def test_rename_changes_key(self):
        spec = PREDICTORS["store-sets"]
        assert (cell_key(_cell(spec.with_(name="store-sets/b")))
                != cell_key(_cell(spec)))

    def test_name_and_spec_are_one_cell(self):
        assert _cell("phast") == _cell(PREDICTORS["phast"])
        assert (cell_key(_cell("phast"))
                == cell_key(_cell(PREDICTORS["phast"])))

    def test_spec_crosses_a_process_boundary(self):
        cell = _cell(PREDICTORS["mascot"].with_(track_f1=True))
        copy = pickle.loads(pickle.dumps(cell))
        assert copy == cell and hash(copy) == hash(cell)
        assert cell_key(copy) == cell_key(cell)


class TestSpec:
    def test_registry_is_read_only(self):
        with pytest.raises(TypeError):
            PREDICTORS["x"] = PREDICTORS["mascot"]
        with pytest.raises(TypeError):
            del PREDICTORS["mascot"]

    def test_build_is_fresh(self):
        spec = PREDICTORS["store-sets"].with_(footprint_scale=1)
        first, second = spec.build(), spec.build()
        assert isinstance(first, StoreSets) and first is not second
        assert first.footprint_scale == 1

    def test_track_f1_only_where_the_class_takes_it(self):
        assert PREDICTORS["mascot"].with_(track_f1=True).build().track_f1
        with pytest.raises(TypeError):
            PREDICTORS["phast"].with_(track_f1=True).build()

    @pytest.mark.parametrize("value", [
        [1, 2], {"a": 1}, (1, [2]), object(), StoreSets,
    ], ids=["list", "dict", "tuple-of-list", "object", "class"])
    def test_rejects_unkeyable_keywords(self, value):
        with pytest.raises(TypeError):
            PredictorSpec("x", StoreSets, footprint_scale=value)

    def test_accepts_scalars_tuples_and_frozen_dataclasses(self):
        spec = PredictorSpec("m", Mascot, config=MascotConfig(),
                             track_f1=False)
        assert spec.with_(name="n").kwargs == spec.kwargs
        assert json.dumps(spec.to_dict())
        nested = PredictorSpec("x", StoreSets, a=(1, ("b", None)),
                               c=(MascotConfig(), 2.5))
        assert json.dumps(nested.to_dict())
        assert hash(nested) == hash(pickle.loads(pickle.dumps(nested)))

    def test_name_resolution(self):
        spec = PREDICTORS["nosq"]
        assert predictor_spec("nosq") is spec
        assert predictor_spec(spec) is spec
        with pytest.raises(KeyError, match="known"):
            predictor_spec("oracle-of-delphi")
        with pytest.raises(KeyError):
            CellSpec(mode="accuracy", benchmark="lbm", num_uops=1,
                     predictor="oracle-of-delphi")

    def test_registered_names_match_their_keys(self):
        for name, spec in PREDICTORS.items():
            assert spec.name == name
            assert type(make_predictor(name)) is spec.cls


class TestScaleSweep:
    """The Store Sets footprint-scale ablation as three derived specs."""

    SPECS = [PREDICTORS["store-sets"].with_(name=f"store-sets/scale{s}",
                                            footprint_scale=s)
             for s in (1, 64, 192)]

    @staticmethod
    def _computed(path):
        records = [json.loads(line) for line in open(path)]
        return [r for r in records
                if r["event"] == "cell" and r["source"] == "computed"]

    def test_cached_sweep_keys_each_scale(self, tmp_path):
        def sweep(**execution):
            suite = run_ipc_suite(self.SPECS, ["lbm"], 4_000,
                                  execution=Execution(**execution))
            return [suite.geomean(spec.name) for spec in self.SPECS]

        uncached = sweep()
        cache = tmp_path / "cache"
        first = sweep(cache=cache, metrics=tmp_path / "first.jsonl")
        computed = self._computed(tmp_path / "first.jsonl")
        scales = [r for r in computed if r["predictor"] != "perfect-mdp"]
        assert sorted(r["predictor"] for r in scales) == sorted(
            spec.name for spec in self.SPECS)
        assert len({r["key"] for r in scales}) == 3
        assert first == uncached
        again = sweep(cache=cache, metrics=tmp_path / "again.jsonl")
        assert self._computed(tmp_path / "again.jsonl") == []
        assert again == uncached


#: A timing cell of the predictor whose registry entry the edit test
#: below rewrites.
_KEY_STORE_SETS_CELL = """
from repro.core.config import GOLDEN_COVE
from repro.experiments.parallel import CellSpec, cell_key
print(cell_key(CellSpec(mode="timing", benchmark="lbm", num_uops=5000,
                        predictor="store-sets", config=GOLDEN_COVE)))
"""


def _key_in_subprocess(package_parent):
    env = dict(os.environ, PYTHONPATH=str(package_parent))
    done = subprocess.run([sys.executable, "-c", _KEY_STORE_SETS_CELL],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return done.stdout.strip()


class TestRegistryEdit:
    def test_store_sets_entry_edit_rekeys_cell(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(_PACKAGE_ROOT, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = _key_in_subprocess(tmp_path)
        registry = copy / "predictors" / "registry.py"
        text = registry.read_text()
        entry = 'PredictorSpec("store-sets", StoreSets),'
        assert entry in text
        registry.write_text(text.replace(
            entry, 'PredictorSpec("store-sets", StoreSets, '
                   'footprint_scale=1),'))
        after = _key_in_subprocess(tmp_path)
        assert len(before) == len(after) == 64
        assert after != before
