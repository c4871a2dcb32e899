"""oracle-leak: ground-truth reads on non-oracle predict() paths."""

from __future__ import annotations

from tests.lint.conftest import HONEST_PREDICTOR


def _leaky(field: str) -> str:
    return f"""
    from repro.predictors.base import MDPredictor, Prediction, PredictionKind


    class Leaky(MDPredictor):
        def predict(self, uop):
            if uop.{field}:
                return Prediction(PredictionKind.MDP, distance=1)
            return Prediction(PredictionKind.NO_DEP)

        def train(self, uop, prediction, actual):
            pass
    """


class TestOracleLeak:
    def test_each_ground_truth_field_is_caught(self, box):
        for field in ("bypass", "store_distance", "dep_store_seq",
                      "has_dependence"):
            path = box.write(f"leak_{field}.py", _leaky(field))
            findings = [
                f for f in box.lint()
                if f.rule == "oracle-leak" and f.path == str(path)
            ]
            assert findings, f"read of uop.{field} was not caught"
            assert field in findings[0].message

    def test_honest_predictor_is_clean(self, box):
        box.write("honest.py", HONEST_PREDICTOR)
        assert box.active_rules() == []

    def test_train_time_reads_are_legal(self, box):
        box.write("trainer.py", """
        from repro.predictors.base import MDPredictor, Prediction, PredictionKind


        class Trainer(MDPredictor):
            def predict(self, uop):
                return Prediction(PredictionKind.NO_DEP)

            def train(self, uop, prediction, actual):
                if uop.has_dependence and uop.bypass.is_bypassable:
                    self.hits = uop.dep_store_seq
        """)
        assert box.active_rules() == []

    def test_leak_through_alias_and_helper_call(self, box):
        box.write("sneaky.py", """
        from repro.predictors.base import MDPredictor, Prediction, PredictionKind


        def peek(op):
            return op.dep_store_seq


        class Sneaky(MDPredictor):
            def predict(self, uop):
                load = uop
                return self._indirect(load)

            def _indirect(self, candidate):
                return peek(candidate)

            def train(self, uop, prediction, actual):
                pass
        """)
        findings = [f for f in box.lint() if f.rule == "oracle-leak"]
        assert len(findings) == 1
        assert "op.dep_store_seq" in findings[0].message
        assert findings[0].symbol == "sneaky:peek"

    def test_is_oracle_marker_exempts_class_and_subclasses(self, box):
        box.write("oracles.py", """
        from repro.predictors.base import MDPredictor, Prediction, PredictionKind


        class MyOracle(MDPredictor):
            is_oracle = True

            def predict(self, uop):
                return Prediction(
                    PredictionKind.MDP, distance=uop.store_distance,
                    store_seq=uop.dep_store_seq,
                ) if uop.has_dependence else Prediction(PredictionKind.NO_DEP)

            def train(self, uop, prediction, actual):
                pass


        class DerivedOracle(MyOracle):
            def predict(self, uop):
                if uop.bypass.is_bypassable:
                    return Prediction(PredictionKind.SMB, distance=1)
                return super().predict(uop)
        """)
        assert box.active_rules() == []

    def test_entry_attributes_sharing_names_are_not_flagged(self, box):
        # A table entry's own `bypass` counter must not trip the rule.
        box.write("entries.py", """
        from repro.predictors.base import MDPredictor, Prediction, PredictionKind


        class Tabled(MDPredictor):
            def predict(self, uop):
                entry = self.table.get(uop.pc)
                if entry is not None and entry.bypass >= 3:
                    return Prediction(PredictionKind.SMB, distance=entry.distance)
                return Prediction(PredictionKind.NO_DEP)

            def train(self, uop, prediction, actual):
                pass
        """)
        assert box.active_rules() == []

    def test_suppression_pragma(self, box):
        box.write("allowed.py", """
        from repro.predictors.base import MDPredictor, Prediction, PredictionKind


        class Allowed(MDPredictor):
            def predict(self, uop):
                # repro-lint: allow(oracle-leak) -- documentation example
                dep = uop.has_dependence
                return Prediction(PredictionKind.MDP, distance=1) \\
                    if dep else Prediction(PredictionKind.NO_DEP)

            def train(self, uop, prediction, actual):
                pass
        """)
        findings = [f for f in box.lint() if f.rule == "oracle-leak"]
        assert len(findings) == 1
        assert findings[0].suppressed
        assert not findings[0].active
        assert findings[0].justification == "documentation example"


def _lookup_predictor(body: str, helpers: str = "") -> str:
    """A non-oracle predictor whose ``lookup(seq, pc, truth)`` runs
    ``body`` (indented as a method body)."""
    return f"""
    from repro.predictors.base import NO_PREDICTION, MDPredictor
{helpers}

    class Keyed(MDPredictor):
        def lookup(self, seq, pc, truth):
{body}
            return NO_PREDICTION

        def update(self, *args):
            pass
    """


class TestTruthArgument:
    """lookup's ``truth`` argument is tainted as a whole value."""

    def _leaks(self, box, source):
        box.write("keyed.py", source)
        return [f for f in box.lint() if f.rule == "oracle-leak"]

    def test_indexing_truth_is_caught(self, box):
        leaks = self._leaks(box, _lookup_predictor(
            "            if truth[0] > 0:\n                pass"))
        assert len(leaks) == 1
        assert "'truth'" in leaks[0].message
        assert leaks[0].symbol == "keyed:Keyed.lookup"

    def test_unpacking_truth_is_caught(self, box):
        leaks = self._leaks(box, _lookup_predictor(
            "            distance, store_seq, bypass = truth"))
        assert len(leaks) == 1

    def test_renamed_parameter_is_still_tainted(self, box):
        source = _lookup_predictor("            self.seen = answer")
        source = source.replace("def lookup(self, seq, pc, truth)",
                                "def lookup(self, seq, pc, answer)")
        assert len(self._leaks(box, source)) == 1

    def test_leak_through_alias_and_helper_call(self, box):
        leaks = self._leaks(box, _lookup_predictor(
            "            hint = truth\n"
            "            self.last = self._relay(hint)",
            helpers="""

    def peek(value):
        return value[1]
""").replace("        def update(self, *args):", """        def _relay(self, passed):
            return peek(passed)

        def update(self, *args):"""))
        assert len(leaks) == 1
        assert leaks[0].symbol == "keyed:peek"

    def test_passing_truth_to_unresolved_call_is_caught(self, box):
        leaks = self._leaks(box, _lookup_predictor(
            "            self.other.lookup(seq, pc, truth)"))
        assert len(leaks) == 1

    def test_ignoring_truth_is_clean(self, box):
        box.write("keyed.py", _lookup_predictor(
            "            self.other.lookup(seq, pc, None)\n"
            "            self.key = self._index(pc, truth)",
        ).replace("        def update(self, *args):", """        def _index(self, pc, unused):
            return pc & 0xFF

        def update(self, *args):"""))
        assert box.active_rules() == []

    def test_oracle_may_read_truth(self, box):
        box.write("keyed.py", _lookup_predictor(
            "            distance, store_seq, _ = truth",
        ).replace("class Keyed(MDPredictor):",
                  "class Keyed(MDPredictor):\n        is_oracle = True\n"))
        assert box.active_rules() == []
