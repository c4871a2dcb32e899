"""Region selection: PCA projection + BIC-selected k-means + medoids.

Follows the LoopPoint/SimPoint recipe: project the high-dimensional
region signatures down with PCA, cluster the projections with k-means for
every candidate k, score each clustering with the Bayesian information
criterion under a spherical-Gaussian model (the X-means formulation), and
keep the best.  Each surviving cluster contributes its medoid region,
weighted by the cluster's share of the trace.

Selection is bit-deterministic for a given (trace, policy): seeded
k-means++, deterministic empty-cluster repair
(:func:`kmeans_labels`), deterministic SVD, and a
content digest over the integer-valued outcome so two processes can
*prove* they selected the same regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..common.hashing import stable_digest
from ..trace.uop import MicroOp
from .features import num_intervals, region_signatures
from .policy import SamplingPolicy

__all__ = ["Region", "RegionSelection", "kmeans_labels", "pca_project",
           "select_regions"]


@dataclass(frozen=True)
class Region:
    """One representative region and the trace share it stands for."""

    #: Region (interval) index within the trace.
    index: int
    #: First uop of the region (inclusive).
    start: int
    #: One past the last uop of the region.
    end: int
    #: Cluster share of the trace; weights over a selection sum to 1.
    weight: float
    #: Number of regions in the cluster this one represents.
    cluster_size: int
    #: Mean distance of the cluster's members to its centroid in the
    #: projected signature space — the dispersion that seeds this
    #: region's error-bound contribution.
    dispersion: float


@dataclass(frozen=True)
class RegionSelection:
    """Outcome of one region-selection run."""

    policy: SamplingPolicy
    n_intervals: int
    interval_length: int
    k: int
    regions: Tuple[Region, ...]
    #: BIC score per candidate k (higher is better).
    bic_by_k: Dict[int, float]
    #: Cluster centroids in projected space, row j for ``regions[j]``.
    centroids: Tuple[Tuple[float, ...], ...]
    #: Content digest of the selection (see :func:`selection_digest`).
    digest: str

    @property
    def coverage(self) -> float:
        """Fraction of the trace actually simulated (without warmup)."""
        total = self.n_intervals * self.interval_length
        simulated = sum(r.end - r.start for r in self.regions)
        return simulated / total if total else 0.0


def pca_project(signatures: np.ndarray, dims: int) -> np.ndarray:
    """Centre and project the signatures onto their top principal axes.

    Deterministic: SVD of a fixed matrix, with the conventional
    sign-fixing (largest-magnitude loading of each component made
    positive) so equivalent decompositions cannot flip component signs
    between platforms.
    """
    centred = signatures - signatures.mean(axis=0, keepdims=True)
    dims = max(1, min(dims, min(centred.shape)))
    _, _, vt = np.linalg.svd(centred, full_matrices=False)
    components = vt[:dims]
    signs = np.sign(components[np.arange(dims),
                               np.abs(components).argmax(axis=1)])
    signs[signs == 0.0] = 1.0
    return centred @ (components * signs[:, None]).T


def _reseed_empty_clusters(vectors: np.ndarray, centers: np.ndarray,
                           labels: np.ndarray, k: int) -> np.ndarray:
    """Give every empty cluster a fresh centroid; returns updated labels.

    A cluster that empties during Lloyd iterations would otherwise keep a
    stale centroid — and, worse, :func:`select_regions` would silently
    return fewer than k representatives.  Each empty cluster is re-seeded
    on the point farthest from its current centroid (the classic
    farthest-point repair), which is deterministic: ``argmax`` breaks
    ties on the lowest index.  As long as the data has at least k
    distinct rows, some assigned point sits strictly away from its
    centroid, so the repair always finds a non-degenerate seed.
    """
    for j in range(k):
        if np.any(labels == j):
            continue
        distances = ((vectors - centers[labels]) ** 2).sum(axis=1)
        farthest = int(np.argmax(distances))
        if distances[farthest] <= 0.0:
            continue  # fewer than k distinct points: nothing to steal
        centers[j] = vectors[farthest]
        labels[farthest] = j
    return labels


def kmeans_labels(vectors: np.ndarray, k: int, seed: int,
                  iterations: int = 50) -> np.ndarray:
    """Lloyd's k-means with k-means++ seeding; returns labels.

    Deterministic for a given ``(vectors, k, seed)``; empty clusters are
    re-seeded from the farthest point (see
    :func:`_reseed_empty_clusters`), so with at least k distinct rows
    every one of the k labels survives to the result.
    """
    rng = np.random.default_rng(seed)
    n = vectors.shape[0]
    # k-means++ seeding.
    centroids = [vectors[rng.integers(n)]]
    for _ in range(1, k):
        distances = np.min(
            [np.sum((vectors - c) ** 2, axis=1) for c in centroids], axis=0
        )
        total = distances.sum()
        if total <= 0:
            centroids.append(vectors[rng.integers(n)])
            continue
        centroids.append(vectors[rng.choice(n, p=distances / total)])
    centers = np.array(centroids)

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        distances = ((vectors[:, None, :] - centers[None, :, :]) ** 2).sum(
            axis=2
        )
        new_labels = distances.argmin(axis=1)
        new_labels = _reseed_empty_clusters(vectors, centers, new_labels, k)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = vectors[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return labels


def _bic(vectors: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Spherical-Gaussian BIC of one clustering (X-means, higher=better)."""
    n, dims = vectors.shape
    centers = np.vstack([
        vectors[labels == j].mean(axis=0) if np.any(labels == j)
        else np.zeros(dims)
        for j in range(k)
    ])
    distortion = float(((vectors - centers[labels]) ** 2).sum())
    # Pooled ML variance estimate; floor avoids log(0) on degenerate
    # (duplicate-region) data where the fit is exact.
    denominator = max(n - k, 1)
    variance = max(distortion / (denominator * dims), 1e-12)
    sizes = np.bincount(labels, minlength=k)
    log_likelihood = 0.0
    for j in range(k):
        size = int(sizes[j])
        if size <= 0:
            continue
        log_likelihood += (
            size * math.log(size / n)
            - 0.5 * size * dims * math.log(2.0 * math.pi * variance)
            - 0.5 * (size - 1) * dims
        )
    free_parameters = k * (dims + 1)
    return log_likelihood - 0.5 * free_parameters * math.log(n)


def _selection_digest(policy: SamplingPolicy, n_intervals: int,
                      regions: Sequence[Region]) -> str:
    """Content digest over the integer-valued selection outcome.

    Built from exact integers only (indices and cluster sizes; weights
    are ``cluster_size / n_intervals`` by construction), so equal
    selections digest equally on any host.
    """
    return stable_digest({
        "policy": policy.to_dict(),
        "n_intervals": n_intervals,
        "regions": [
            {"index": r.index, "cluster_size": r.cluster_size}
            for r in regions
        ],
    })


def select_regions(trace: Sequence[MicroOp],
                   policy: SamplingPolicy) -> RegionSelection:
    """Choose representative regions of ``trace`` under ``policy``."""
    n_regions = num_intervals(len(trace), policy.interval_length)
    if n_regions == 0:
        raise ValueError(
            f"trace of {len(trace)} uops yields no "
            f"{policy.interval_length}-uop regions"
        )
    signatures = region_signatures(trace, policy.interval_length)
    projected = pca_project(signatures, policy.projection_dims)

    max_k = min(policy.max_k, n_regions)
    best_k = 1
    best_labels = np.zeros(n_regions, dtype=np.int64)
    best_bic = -math.inf
    bic_by_k: Dict[int, float] = {}
    for k in range(1, max_k + 1):
        labels = (np.zeros(n_regions, dtype=np.int64) if k == 1
                  else kmeans_labels(projected, k, policy.seed))
        score = _bic(projected, labels, k)
        bic_by_k[k] = score
        if score > best_bic:
            best_k, best_labels, best_bic = k, labels, score

    regions: List[Region] = []
    centroids: List[Tuple[float, ...]] = []
    for j in range(best_k):
        member_ids = np.flatnonzero(best_labels == j)
        if len(member_ids) == 0:
            continue  # degenerate duplicate-heavy data: fewer clusters
        members = projected[member_ids]
        centroid = members.mean(axis=0)
        member_distances = np.sqrt(
            ((members - centroid) ** 2).sum(axis=1))
        medoid_pos = int(member_distances.argmin())
        index = int(member_ids[medoid_pos])
        regions.append(Region(
            index=index,
            start=index * policy.interval_length,
            end=(index + 1) * policy.interval_length,
            weight=len(member_ids) / n_regions,
            cluster_size=len(member_ids),
            dispersion=float(member_distances.mean()),
        ))
        centroids.append(tuple(float(c) for c in centroid))

    order = sorted(range(len(regions)), key=lambda i: regions[i].index)
    regions = [regions[i] for i in order]
    centroids = [centroids[i] for i in order]
    return RegionSelection(
        policy=policy,
        n_intervals=n_regions,
        interval_length=policy.interval_length,
        k=len(regions),
        regions=tuple(regions),
        bic_by_k=bic_by_k,
        centroids=tuple(centroids),
        digest=_selection_digest(policy, n_regions, regions),
    )
