"""Index/tag hash functions for tagged-table predictors.

All the TAGE-like structures in this package compute, per table:

* an **index** selecting a set, from the load PC, a folded window of global
  history and the path history;
* a **tag** stored in / compared against the entry, from the same inputs but
  folded with a different alignment so that index and tag decorrelate.

The exact hash in the paper is unspecified (as is traditional for TAGE
papers); we follow the standard TAGE recipe of XOR-ing PC shifts with one or
two differently-folded history registers.

This module also hosts :func:`stable_digest`, the content-addressing hash
used by the on-disk result cache (:mod:`repro.experiments.result_cache`):
unlike the table hashes above it must be stable across processes and
interpreter invocations, so it is built on canonical JSON + SHA-256 rather
than anything touching ``hash()``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Union

import numpy as np

from .bitops import fold_bits, mask

__all__ = ["table_index", "table_tag", "table_index_array",
           "table_tag_array", "mix64", "stable_digest"]

#: A per-PC array of folded-history values, or one value for all PCs.
Folds = Union[int, np.ndarray]


def stable_digest(payload: object) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``payload``.

    ``payload`` must be built from JSON-serialisable types (dicts, lists,
    tuples, strings, numbers, booleans, None).  Keys are sorted and
    separators fixed so the digest is independent of insertion order and
    whitespace; tuples encode identically to lists.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mix64(value: int) -> int:
    """A cheap 64-bit integer mixer (splitmix64 finaliser).

    Used where a software model needs a well-spread hash (e.g. direct-mapped
    Store Sets SSIT indexing) without pretending to be hardware-exact.
    """
    value &= mask(64)
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & mask(64)
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & mask(64)
    return value ^ (value >> 31)


def table_index(
    pc: int,
    index_bits: int,
    folded_index: int,
    path_history: int = 0,
    table_number: int = 0,
) -> int:
    """Compute a set index for one tagged table.

    ``folded_index`` must already be folded to ``index_bits`` (the caller owns
    the :class:`~repro.common.history.FoldedRegister`).  The table number is
    mixed in so that the zero-history table of two different predictors (or
    two tables with identical history lengths) do not collide systematically.
    """
    if index_bits <= 0:
        return 0
    pc >>= 1  # instruction alignment
    value = pc ^ (pc >> index_bits) ^ (pc >> (2 * index_bits))
    value ^= folded_index
    value ^= fold_bits(path_history, max(path_history.bit_length(), 1), index_bits)
    value ^= table_number * 0x9E37  # small odd-ish constant per table
    return value & mask(index_bits)


def table_tag(
    pc: int,
    tag_bits: int,
    folded_tag: int,
    folded_tag2: int = 0,
) -> int:
    """Compute an entry tag for one tagged table.

    Follows the TAGE convention ``tag = pc ^ fold(hist, W) ^ (fold(hist,
    W-1) << 1)``: the second fold (one bit narrower, shifted left) breaks the
    symmetry that would otherwise make tag collisions correlate with index
    collisions.
    """
    if tag_bits <= 0:
        return 0
    pc >>= 1
    value = pc ^ (pc >> tag_bits)
    value ^= folded_tag ^ (folded_tag2 << 1)
    return value & mask(tag_bits)


def table_index_array(pc: np.ndarray, index_bits: int, folded_index: Folds,
                      path_fold: Folds = 0,
                      table_number: int = 0) -> np.ndarray:
    """:func:`table_index` over an array of PCs (for whole-run key
    precomputation); ``path_fold`` is the path history already folded to
    ``index_bits``."""
    if index_bits <= 0:
        return np.zeros_like(pc)
    pc = pc >> 1
    value = pc ^ (pc >> index_bits) ^ (pc >> (2 * index_bits))
    value = value ^ folded_index ^ path_fold ^ (table_number * 0x9E37)
    return value & mask(index_bits)


def table_tag_array(pc: np.ndarray, tag_bits: int, folded_tag: Folds,
                    folded_tag2: Folds = 0) -> np.ndarray:
    """:func:`table_tag` over an array of PCs."""
    if tag_bits <= 0:
        return np.zeros_like(pc)
    pc = pc >> 1
    value = pc ^ (pc >> tag_bits) ^ folded_tag ^ (folded_tag2 << 1)
    return value & mask(tag_bits)
