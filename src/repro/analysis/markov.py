"""Markov-chain analysis of saturating-counter drain times.

Paper footnote 1: with a 3-bit confidence counter initialised to its maximum
and a load that is dependent 70 % of the time, "it would take an expected
1,625 predictions before the entry reaches confidence 0" — the quantitative
argument for why decrement-only unlearning (PHAST, TAGE-no-ND) adapts so
slowly, motivating MASCOT's non-dependence allocation.

We reproduce the computation: the counter is a birth-death chain on states
``0..2**bits - 1`` absorbing at 0, moving up with probability ``p`` (correct
prediction, saturating at the top) and down with probability ``1 - p``.
"""

from __future__ import annotations

from typing import List

__all__ = [
    "expected_drain_steps",
    "expected_drain_from_max",
]


def expected_drain_steps(bits: int, p_increment: float, start: int) -> float:
    """Expected predictions until the counter first hits 0 from ``start``.

    Solves the first-passage linear system

    .. math:: E_i = 1 + p \\cdot E_{\\min(i+1, M)} + (1-p) \\cdot E_{i-1}

    with :math:`E_0 = 0` and :math:`M = 2^{bits} - 1`, by back-substitution
    (the chain is tridiagonal, so Gaussian elimination specialises to a
    two-pass sweep).
    """
    if bits <= 0:
        raise ValueError("counter width must be positive")
    if not 0.0 <= p_increment < 1.0:
        raise ValueError("p_increment must be in [0, 1) — at 1.0 the counter never drains")
    maximum = (1 << bits) - 1
    if not 0 <= start <= maximum:
        raise ValueError(f"start {start} out of range for {bits}-bit counter")
    if start == 0:
        return 0.0

    p = p_increment
    q = 1.0 - p
    # Express E_i = a_i + b_i * E_{i+1} for i = 1..M-1, derived bottom-up
    # from E_i = 1 + p E_{i+1} + q E_{i-1}:
    #   E_1 = 1 + p E_2 + q E_0 = 1 + p E_2            -> a_1 = 1/?, ...
    # Standard sweep: assume E_{i-1} known in terms of E_i.
    # We use the substitution E_i = alpha_i + beta_i * E_{i+1}.
    alpha: List[float] = [0.0] * (maximum + 1)
    beta: List[float] = [0.0] * (maximum + 1)
    # i = 1: E_1 = 1 + p E_2 + q*0  ->  alpha=1, beta=p.
    alpha[1] = 1.0
    beta[1] = p
    for i in range(2, maximum):
        # E_i = 1 + p E_{i+1} + q (alpha_{i-1} + beta_{i-1} E_i)
        denom = 1.0 - q * beta[i - 1]
        alpha[i] = (1.0 + q * alpha[i - 1]) / denom
        beta[i] = p / denom
    # Top state M: E_M = 1 + p E_M + q E_{M-1}  (increment saturates).
    #   E_M (1 - p) = 1 + q (alpha_{M-1} + beta_{M-1} E_M)
    if maximum == 1:
        expectations = [0.0, 1.0 / q]
    else:
        denom = q * (1.0 - beta[maximum - 1])
        e_max = (1.0 + q * alpha[maximum - 1]) / denom
        expectations = [0.0] * (maximum + 1)
        expectations[maximum] = e_max
        for i in range(maximum - 1, 0, -1):
            expectations[i] = alpha[i] + beta[i] * expectations[i + 1]
    return expectations[start]


def expected_drain_from_max(bits: int, p_increment: float) -> float:
    """Footnote 1's quantity: drain time starting from the saturated state."""
    return expected_drain_steps(bits, p_increment, (1 << bits) - 1)

