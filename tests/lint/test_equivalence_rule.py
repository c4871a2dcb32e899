"""eq-*: scalar/batched engine semantic-surface comparison.

A miniature engine pair shaped like the real tree (``pkg/core/pipeline.py``
with ``Pipeline``, ``pkg/core/batched.py`` with ``BatchedPipeline``)
exercises the alias tracking, fused-hook normalisation and literal
pairing; each drift test injects one asymmetry and asserts exactly the
matching rule fires.
"""

from __future__ import annotations

import pytest

# A symmetric pair: the batched half hoists config fields into locals,
# primes the predictor, drives it through the fused predict_train hook,
# and uses a bound-method alias -- all of which must normalise to the
# scalar surface.
SCALAR = """
    class Pipeline:
        def __init__(self, predictor, config):
            self.config = config
            self.predictor = predictor
            self.stats = make_stats()

        def run(self, trace):
            cfg = self.config
            lat = 0
            for uop in trace:
                pred = self.predictor.predict(uop)
                self.predictor.train(uop, pred, uop)
                lat = cfg.alu_latency + uop.extra
                if uop.is_store:
                    self.predictor.on_store(uop)
                    lat = lat + cfg.sb_drain_latency + 64
                self.stats.instructions += 1
            self.stats.cycles = lat
            self.stats.record(trace)
"""

BATCHED = """
    class BatchedPipeline:
        def __init__(self, predictor, config):
            self.config = config
            self.predictor = predictor
            self.stats = make_stats()

        def run(self, trace):
            cfg = self.config
            alu_lat = cfg.alu_latency
            self.predictor.prime(trace)
            p_on_store = self.predictor.on_store
            lat = 0
            for uop in trace:
                self.predictor.predict_train(uop)
                lat = alu_lat + uop.extra
                if uop.is_store:
                    p_on_store(uop)
                    lat = lat + cfg.sb_drain_latency + 64
                self.stats.instructions += 1
            self.predictor.finish()
            self.stats.cycles = lat
            self.stats.record(trace)
"""


def write_pair(box, scalar=SCALAR, batched=BATCHED):
    box.write("pkg/__init__.py", "")
    box.write("pkg/core/__init__.py", "")
    box.write("pkg/core/pipeline.py", scalar)
    box.write("pkg/core/batched.py", batched)


def eq_rules(box):
    return [r for r in box.active_rules() if r.startswith("eq-")]


class TestCleanPairIsSilent:
    def test_symmetric_engines_produce_no_findings(self, box):
        write_pair(box)
        assert eq_rules(box) == []

    def test_single_engine_tree_is_not_compared(self, box):
        # Per-file lints and scalar-only fixtures must stay quiet.
        box.write("pkg/__init__.py", "")
        box.write("pkg/core/__init__.py", "")
        box.write("pkg/core/pipeline.py", SCALAR)
        assert eq_rules(box) == []


class TestConfigReadDrift:
    def test_hoisted_read_replaced_by_literal_fires(self, box):
        write_pair(box, batched=BATCHED.replace(
            "alu_lat = cfg.alu_latency", "alu_lat = 3"))
        assert "eq-config-read" in eq_rules(box)

    def test_scalar_only_field_fires_on_scalar_side(self, box):
        write_pair(box, scalar=SCALAR.replace(
            "lat = cfg.alu_latency + uop.extra",
            "lat = cfg.alu_latency + cfg.mul_latency + uop.extra"))
        findings = [f for f in box.lint()
                    if f.active and f.rule == "eq-config-read"]
        assert len(findings) == 1
        assert "mul_latency" in findings[0].message
        assert findings[0].module.endswith("core.pipeline")


class TestStatsWriteDrift:
    def test_missing_stats_write_fires(self, box):
        write_pair(box, batched=BATCHED.replace(
            "self.stats.instructions += 1", "pass"))
        assert "eq-stats-write" in eq_rules(box)

    def test_missing_stats_method_call_fires(self, box):
        write_pair(box, scalar=SCALAR.replace(
            "self.stats.record(trace)", "pass"))
        assert "eq-stats-write" in eq_rules(box)


class TestHookDrift:
    def test_dropped_session_hook_fires(self, box):
        # A hook dropped from its bound-method alias call site.
        write_pair(box, batched=BATCHED.replace(
            "p_on_store(uop)", "pass"))
        assert "eq-predictor-call" in eq_rules(box)

    def test_dropped_fused_hook_fires_for_both_halves(self, box):
        write_pair(box, batched=BATCHED.replace(
            "self.predictor.predict_train(uop)", "pass"))
        findings = [f for f in box.lint()
                    if f.active and f.rule == "eq-predictor-call"]
        hooks = sorted(f.message.split("hook ")[1].split()[0]
                       for f in findings)
        assert hooks == ["'predict'", "'train'"]

    def test_session_lifecycle_hooks_are_normalised_away(self, box):
        # prime()/finish() have no scalar counterpart by design and must
        # not fire -- covered by the clean-pair test, but spell out the
        # one-sided direction too: dropping finish() changes nothing the
        # comparison sees.
        write_pair(box, batched=BATCHED.replace(
            "self.predictor.finish()", "pass"))
        assert eq_rules(box) == []


class TestLiteralDrift:
    def test_changed_literal_fires_both_sides(self, box):
        write_pair(box, batched=BATCHED.replace(
            "cfg.sb_drain_latency + 64", "cfg.sb_drain_latency + 32"))
        findings = [f for f in box.lint()
                    if f.active and f.rule == "eq-config-literal"]
        # 64 is now scalar-only and 32 batched-only: one finding each.
        assert len(findings) == 2

    def test_pragma_suppresses_deliberate_asymmetry(self, box):
        write_pair(box, scalar=SCALAR.replace(
            "lat = lat + cfg.sb_drain_latency + 64",
            "lat = lat + cfg.sb_drain_latency + 64\n"
            "                    # repro-lint: allow(eq-config-literal) -- provisional slack\n"
            "                    lat = lat + cfg.sb_drain_latency + 96"))
        findings = [f for f in box.lint() if f.rule == "eq-config-literal"]
        assert findings and all(f.suppressed for f in findings)


class TestZeroAndOneAreNoise:
    def test_port_list_zeros_do_not_pair(self, box):
        write_pair(box, scalar=SCALAR.replace(
            "lat = 0", "ports = [0] * cfg.load_ports\n            lat = 0"))
        # cfg.load_ports is now scalar-only: the config-read asymmetry
        # fires, but no literal pairing does (0 is structural noise).
        rules = eq_rules(box)
        assert "eq-config-read" in rules
        assert "eq-config-literal" not in rules


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
