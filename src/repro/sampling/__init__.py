"""Sampled simulation: SimPoint/LoopPoint region selection + reconstruction.

Full-trace cells are one axis of the suite's throughput ceiling; this
package removes it by simulating only *representative* regions and
reconstructing full-run metrics with explicit error bounds:

1. :mod:`~repro.sampling.features` slices the trace into fixed-length
   regions and fingerprints each with a concatenated **basic-block
   vector** (per-PC execution frequencies, the classic SimPoint feature)
   and **memory-access vector** (stride / footprint / dependence-distance
   histograms — "Memory Access Vectors": sampling fidelity on
   memory-bound workloads needs memory behaviour in the signature), all
   computed vectorised from :class:`~repro.trace.columns.TraceColumns`.
2. :mod:`~repro.sampling.select` projects the signatures with PCA and
   clusters them with BIC-selected k-means (empty clusters re-seeded
   deterministically), yielding each cluster's medoid region, its trace
   share as weight, and a content digest of the whole selection.
3. :mod:`~repro.sampling.reconstruct` simulates only the medoid regions
   (functionally warmed by the preceding interval), scales the measured
   per-instruction rates back to the full run, and attaches per-cell
   confidence intervals derived from intra-cluster dispersion.

:class:`~repro.sampling.policy.SamplingPolicy` is the value-typed knob
object carried on :class:`~repro.experiments.parallel.CellSpec` and
hashed into result-cache keys.
"""

from .features import (
    MAV_STRIDE_BUCKETS,
    MAV_DEP_BUCKETS,
    mav_dim,
    memory_access_vectors,
    num_intervals,
    pc_frequency_vectors,
    region_signatures,
)
from .policy import SamplingPolicy
from .reconstruct import (
    Interval,
    SampledTiming,
    rebase_interval,
    run_sampled_prediction,
    run_sampled_timing,
)
from .select import (
    Region,
    RegionSelection,
    kmeans_labels,
    pca_project,
    select_regions,
)

__all__ = [
    "MAV_STRIDE_BUCKETS",
    "MAV_DEP_BUCKETS",
    "mav_dim",
    "memory_access_vectors",
    "num_intervals",
    "pc_frequency_vectors",
    "region_signatures",
    "SamplingPolicy",
    "Region",
    "RegionSelection",
    "kmeans_labels",
    "pca_project",
    "select_regions",
    "Interval",
    "SampledTiming",
    "rebase_interval",
    "run_sampled_prediction",
    "run_sampled_timing",
]
