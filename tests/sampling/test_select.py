"""Region selection: determinism, weight invariants, digest stability."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sampling import SamplingPolicy, kmeans_labels, select_regions
from repro.sampling.features import pc_frequency_vectors
from repro.trace.columns import TraceColumns
from repro.trace.uop import MicroOp, OpClass

from tests.conftest import small_trace


def policy(interval_length=2000, **kwargs):
    return SamplingPolicy(interval_length=interval_length, **kwargs)


def phase_trace(n_per_phase=2000, phases=(0x400000, 0x500000), repeats=2):
    """A synthetic trace alternating between distinct code regions."""
    trace = []
    seq = 0
    for _ in range(repeats):
        for base in phases:
            for i in range(n_per_phase):
                trace.append(MicroOp(seq, base + 4 * (i % 50), OpClass.ALU))
                seq += 1
    return trace


class TestSelectionInvariants:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        interval_length=st.sampled_from([1000, 2000, 3000, 5000]),
        max_k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=7),
    )
    def test_weights_partition_the_trace(self, interval_length, max_k, seed):
        trace = small_trace("xz", 20_000)
        selection = select_regions(
            trace, policy(interval_length, max_k=max_k, seed=seed))
        assert sum(r.weight for r in selection.regions) == pytest.approx(1.0)
        assert sum(r.cluster_size for r in selection.regions) \
            == selection.n_intervals
        assert 1 <= selection.k <= max_k
        assert len(selection.centroids) == selection.k
        indices = [r.index for r in selection.regions]
        assert indices == sorted(indices)
        assert all(r.dispersion >= 0.0 for r in selection.regions)
        for region in selection.regions:
            assert region.start == region.index * interval_length
            assert region.end == region.start + interval_length

    def test_coverage_is_selected_share(self):
        trace = small_trace("xz", 20_000)
        selection = select_regions(trace, policy(2000, max_k=4))
        assert selection.coverage == pytest.approx(
            selection.k / selection.n_intervals)

    def test_bic_scored_every_candidate_k(self):
        trace = small_trace("xz", 20_000)
        selection = select_regions(trace, policy(2000, max_k=4))
        assert sorted(selection.bic_by_k) == [1, 2, 3, 4]

    def test_weights_sum_to_one(self):
        trace = phase_trace(1000, repeats=2)
        selection = select_regions(trace, policy(1000, max_k=3))
        assert sum(r.weight for r in selection.regions) == pytest.approx(1.0)

    def test_identifies_two_phases(self):
        trace = phase_trace(1000, repeats=3)
        selection = select_regions(trace, policy(1000, max_k=2))
        assert selection.k == 2
        # Each representative comes from a different phase region.
        assert {trace[r.start].pc & 0xF00000
                for r in selection.regions} == {0x400000, 0x500000}

    def test_k_capped_by_interval_count(self):
        trace = phase_trace(500, repeats=1)  # 2 regions of 500
        selection = select_regions(trace, policy(500, max_k=8))
        assert selection.n_intervals == 2
        assert sorted(selection.bic_by_k) == [1, 2]

    def test_too_short_trace_raises(self):
        with pytest.raises(ValueError):
            select_regions(phase_trace(10, repeats=1), policy(10_000))


class TestKmeansEmptyClusters:
    """Regression: a cluster that empties mid-Lloyd used to keep its stale
    centroid, and selection silently returned fewer than k
    representatives.  Empty clusters are now re-seeded from the farthest
    point."""

    def duplicate_heavy_vectors(self):
        # 3 distinct rows, but one of them overwhelms the data: a
        # k-means++ seeding that lands two centroids near the heavy mode
        # empties one of them in the first Lloyd assignment.
        rows = [[0.0, 0.0]] * 60 + [[10.0, 0.0]] * 2 + [[0.0, 10.0]] * 2
        return np.asarray(rows)

    def test_all_k_clusters_survive(self):
        vectors = self.duplicate_heavy_vectors()
        for seed in range(20):
            labels = kmeans_labels(vectors, 3, seed=seed)
            assert set(np.unique(labels)) == {0, 1, 2}, f"seed {seed}"

    def test_reseed_is_deterministic(self):
        vectors = self.duplicate_heavy_vectors()
        a = kmeans_labels(vectors, 3, seed=5)
        b = kmeans_labels(vectors, 3, seed=5)
        assert np.array_equal(a, b)

    def test_degenerate_duplicates_do_not_loop(self):
        # Fewer distinct rows than k: repair must give up gracefully
        # rather than spin or crash; labels stay valid.
        vectors = np.zeros((8, 3))
        labels = kmeans_labels(vectors, 4, seed=0)
        assert labels.shape == (8,)
        assert set(np.unique(labels)) <= {0, 1, 2, 3}

    def test_dominant_phase_keeps_full_k(self):
        # Region fingerprints of a trace with 3 phases, one dominating;
        # before the fix a mid-iteration empty cluster could drop a label.
        trace = []
        seq = 0
        spec = [(0x400000, 12), (0x500000, 2), (0x600000, 2)]
        for base, blocks in spec:
            for _ in range(blocks):
                for i in range(500):
                    trace.append(
                        MicroOp(seq, base + 4 * (i % 25), OpClass.ALU)
                    )
                    seq += 1
        vectors = pc_frequency_vectors(TraceColumns.ensure(trace), 500)
        labels = kmeans_labels(vectors, 3, seed=0)
        assert set(np.unique(labels)) == {0, 1, 2}
        # One cluster per phase: the labels partition the 16 regions
        # exactly along the phase boundaries.
        assert len(set(labels[:12])) == 1
        assert len(set(labels[12:14])) == 1 and len(set(labels[14:])) == 1


class TestDeterminism:
    def test_repeated_selection_is_identical(self):
        trace = small_trace("perlbench1", 20_000)
        first = select_regions(trace, policy(2000, max_k=4))
        second = select_regions(trace, policy(2000, max_k=4))
        assert first.regions == second.regions
        assert first.digest == second.digest

    def test_seeded_selection_is_deterministic(self):
        trace = small_trace("gcc1", 12_000)
        first = select_regions(trace, policy(2000, max_k=3, seed=7))
        second = select_regions(trace, policy(2000, max_k=3, seed=7))
        assert [r.index for r in first.regions] \
            == [r.index for r in second.regions]

    def test_digest_distinguishes_policies(self):
        trace = small_trace("perlbench1", 20_000)
        a = select_regions(trace, policy(2000, max_k=4))
        b = select_regions(trace, policy(2000, max_k=4, seed=3))
        assert a.digest != b.digest

    def test_digest_is_pinned(self):
        """The digest of one fixed (trace, policy), recorded before the
        k-means helpers moved into this package: selection is byte-for-byte
        the computation it was, not merely self-consistent."""
        selection = select_regions(small_trace("lbm", 40_000),
                                   policy(2000, max_k=4))
        assert [(r.index, r.cluster_size) for r in selection.regions] \
            == [(3, 6), (6, 5), (16, 9)]
        assert selection.digest == (
            "8e317ec6a3d74f56bd7c32797aa22a97"
            "4531704a0ea60b1cf216c877d4f5db3c")

    def test_digest_is_bit_identical_across_processes(self):
        """Two interpreters must *prove* they selected the same regions."""
        trace = small_trace("perlbench1", 20_000)
        local = select_regions(trace, policy(2000, max_k=4)).digest
        script = (
            "from repro.sampling import SamplingPolicy, select_regions\n"
            "from repro.trace.generator import generate_trace\n"
            "trace = generate_trace('perlbench1', 20000)\n"
            "policy = SamplingPolicy(interval_length=2000, max_k=4)\n"
            "print(select_regions(trace, policy).digest)\n"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True,
        ).stdout.strip()
        assert remote == local
