"""repro-lint: AST-based simulator-correctness checks.

The reproduction's scientific contracts are social conventions the type
system cannot see:

* **oracle isolation** — :meth:`repro.predictors.base.MDPredictor.predict`
  must only read ``uop.pc``/``uop.seq``; the ground-truth annotations
  (``bypass``, ``store_distance``, ``dep_store_seq``, ``has_dependence``)
  are reserved for the oracle predictors.  A leak silently inflates a
  predictor's reported accuracy.
* **determinism / cache safety** — every experiment cell must compute
  bit-identically across runs and worker counts, or the PR-1 result cache
  and the ``jobs=N`` merge are unsound.  Unseeded RNGs, wall-clock reads,
  ``id()``/``hash()`` of objects and unsorted set iteration all break this.

Buildable-hardware rules (power-of-two tables, counter widths, the Table II
sizes) are not lint rules: they hold on live objects, in the predictor
constructors and the tier-1 registry tests over
:attr:`~repro.predictors.base.MDPredictor.storage`.

:mod:`repro.lint` walks the package's ASTs (no imports are executed) and
enforces both families, plus the interprocedural engine-equivalence and
worker-safety families (``eq-*``, ``conc-*``).  Run it as ``repro lint`` or
``python -m repro.lint``; see :mod:`repro.lint.engine` for the library
entry point and ``docs/lint.md`` for the rule catalogue and the
suppression workflow.
"""

from __future__ import annotations

from .engine import ALL_RULES, LintResult, lint_paths
from .findings import Finding

__all__ = ["ALL_RULES", "Finding", "LintResult", "lint_paths", "main"]


def main(argv=None) -> int:
    """CLI entry point (``python -m repro.lint``)."""
    from .cli import main as _main

    return _main(argv)
