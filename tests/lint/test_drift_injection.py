"""Drift injection against a copy of the *real* tree.

The acceptance criterion for the interprocedural pass: seed one
asymmetry between ``core/pipeline.py`` and ``core/batched.py`` and the
lint run must go non-zero; likewise for a ground-truth read planted in a
predictor's ``lookup``.
The copy keeps the on-disk ``__init__.py`` chain, so module names (and
therefore the suffix-based engine/entry detection) match the shipped
package exactly.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro
from repro.lint import lint_paths

REPRO_PACKAGE = Path(repro.__file__).parent

INTERPROCEDURAL = ["eq", "conc"]


@pytest.fixture
def tree(tmp_path) -> Path:
    copy = tmp_path / "repro"
    shutil.copytree(REPRO_PACKAGE, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def mutate(tree: Path, relative: str, old: str, new: str) -> None:
    path = tree / relative
    text = path.read_text()
    assert old in text, f"fixture drifted: {old!r} not in {relative}"
    path.write_text(text.replace(old, new))


class TestCleanCopyStaysClean:
    def test_zero_active_findings(self, tree):
        result = lint_paths([tree], select=INTERPROCEDURAL)
        assert result.ok, [f.to_dict() for f in result.active]


class TestSeededEngineAsymmetry:
    def test_batched_literal_for_config_read_fails_lint(self, tree):
        # "Edited the batched engine, replaced a config read with a
        # tuned constant" -- the canonical drift the golden grid would
        # only catch hours later.
        mutate(tree, "core/batched.py",
               "alu_lat = cfg.alu_latency", "alu_lat = 3")
        result = lint_paths([tree], select=INTERPROCEDURAL)
        assert result.exit_code != 0
        assert any(f.rule == "eq-config-read" for f in result.active)

    def test_scalar_stats_write_dropped_fails_lint(self, tree):
        mutate(tree, "core/batched.py",
               "stats.memory_squashes = n_squash", "pass  # dropped")
        result = lint_paths([tree], select=INTERPROCEDURAL)
        assert result.exit_code != 0
        assert any(f.rule == "eq-stats-write" for f in result.active)

    def test_dropped_predictor_hook_fails_lint(self, tree):
        # The shared predictor replay (Phase A and the prediction-only
        # replay) stops telling the predictor about stores: Store Sets
        # and NoSQ would silently train on a different stream than the
        # scalar engine's.
        mutate(tree, "core/batched.py",
               "oseq = p_on_store(st_seq[si], st_pc[si])", "oseq = None")
        result = lint_paths([tree], select=INTERPROCEDURAL)
        assert result.exit_code != 0
        assert any(f.rule == "eq-predictor-call" and "on_store" in f.message
                   for f in result.active)

    def test_dropped_branch_hook_fails_lint(self, tree):
        # The shared replay stops telling the predictor about conditional
        # branches: a history-keyed predictor whose prime declined would
        # look its tables up under a stale history.
        mutate(tree, "core/batched.py",
               "p_on_branch(br_pc[bi], br_taken[bi])", "pass")
        result = lint_paths([tree], select=INTERPROCEDURAL)
        assert result.exit_code != 0
        assert any(f.rule == "eq-predictor-call" and "on_branch" in f.message
                   for f in result.active)


class TestOracleReadInLookupHalf:
    def test_ground_truth_read_in_mascot_lookup_fails_lint(self, tree):
        # lookup() is the predict-time half that both predict() and the
        # batched engine's predict_train() reach: a ground-truth read
        # there scores MASCOT as if it had hardware it cannot build.
        mutate(tree, "predictors/mascot.py",
               "        keys, table, entry = self.bank.lookup(pc)\n",
               "        keys, table, entry = self.bank.lookup(pc)\n"
               "        assert truth[0] >= 0\n")
        result = lint_paths([tree], select=["oracle"])
        assert result.exit_code != 0
        leaks = [f for f in result.active if f.rule == "oracle-leak"]
        assert len(leaks) == 1
        assert "Mascot.lookup" in leaks[0].message
        assert "'truth'" in leaks[0].message


class TestUnsanctionedWorkerState:
    def test_new_mutable_global_in_worker_path_fails_lint(self, tree):
        mutate(tree, "trace/generator.py",
               "def generate_trace(",
               "_SEEN = {}\n\n\ndef _note(benchmark):\n"
               "    _SEEN[benchmark] = True\n\n\ndef generate_trace(")
        result = lint_paths([tree], select=INTERPROCEDURAL)
        assert result.exit_code != 0
        assert any(f.rule == "conc-mutable-global" for f in result.active)


class TestProtocolBoundary:
    def test_socket_in_worker_path_module_fails_lint(self, tree):
        # "Phoned home a progress ping from trace generation" -- network
        # I/O from a cell is an unaudited channel into its result.
        mutate(tree, "trace/generator.py",
               "def generate_trace(",
               "import socket\n\n\ndef _ping(host):\n"
               "    return socket.create_connection((host, 80))\n\n\n"
               "def generate_trace(")
        result = lint_paths([tree], select=INTERPROCEDURAL)
        assert result.exit_code != 0
        assert any(f.rule == "conc-socket" for f in result.active)

    def test_socket_in_backends_fails_lint(self, tree):
        # The executor backend lost its socket exemption with the worker
        # protocol: cells run on local slots, so a connection creeping
        # back into the backend must fail lint.
        mutate(tree, "experiments/backends.py",
               "class LocalPoolBackend:",
               "import socket\n\n\ndef _dial(host, port):\n"
               "    return socket.create_connection((host, port))\n\n\n"
               "class LocalPoolBackend:")
        result = lint_paths([tree], select=INTERPROCEDURAL)
        assert result.exit_code != 0
        sockets = [f for f in result.active if f.rule == "conc-socket"]
        assert [f.module for f in sockets] == ["repro.experiments.backends"]

    def test_ad_hoc_file_lock_outside_cache_fails_lint(self, tree):
        # An ad-hoc O_EXCL lock in the table renderer: a second writer
        # discipline nobody audits.
        mutate(tree, "experiments/reporting.py",
               "def render_table(",
               "import os\n\n\ndef _grab(path):\n"
               "    return os.open(path, os.O_CREAT | os.O_EXCL)\n\n\n"
               "def render_table(")
        result = lint_paths([tree], select=INTERPROCEDURAL)
        assert result.exit_code != 0
        assert any(f.rule == "conc-file-lock" for f in result.active)

    def test_file_lock_inside_result_cache_fails_lint(self, tree):
        # The result cache lost its lock-file exemption: its writers
        # share a directory through atomic renames of per-writer temp
        # files, so a lock file creeping back in must fail lint.
        mutate(tree, "experiments/result_cache.py",
               "class ResultCache:",
               "def _grab(path):\n"
               "    return os.open(path, os.O_CREAT | os.O_EXCL)\n\n\n"
               "class ResultCache:")
        result = lint_paths([tree], select=INTERPROCEDURAL)
        assert result.exit_code != 0
        locks = [f for f in result.active if f.rule == "conc-file-lock"]
        assert [f.module for f in locks] == ["repro.experiments.result_cache"]

    def test_sanctioned_modules_stay_clean(self, tree):
        # No module opens sockets or locks files (both sanction lists
        # are empty); the clean copy must flag neither.
        result = lint_paths([tree], select=INTERPROCEDURAL)
        assert not any(f.rule in ("conc-socket", "conc-file-lock")
                       for f in result.active)


class TestWriteSurface:
    def test_file_write_in_resilience_fails_lint(self, tree):
        # The resilience module is not a sanctioned writer: a status
        # file planted there must fail det-write.
        mutate(tree, "experiments/resilience.py",
               "def parse_fault_spec(",
               "from pathlib import Path\n\n\ndef _mark(path):\n"
               "    Path(path).write_text(\"failed\\n\")\n\n\n"
               "def parse_fault_spec(")
        result = lint_paths([tree], select=["det"])
        assert result.exit_code != 0
        writes = [f for f in result.active if f.rule == "det-write"]
        assert [f.module for f in writes] == [
            "repro.experiments.resilience"]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
