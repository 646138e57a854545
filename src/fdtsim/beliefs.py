"""Odds-form Bayesian inference of an opponent's type from a noisy signal.

A signal names one of k types and is correct with probability p; the
remaining mass splits evenly over the other k - 1 types.
"""
from __future__ import annotations

import math
import operator

import numpy as np


class AllZeroPosteriorError(ValueError):
    """Prior and likelihood have disjoint support; posterior undefined."""


def signal_likelihoods(accuracy: float, k: int) -> np.ndarray:
    """L[s, t]: odds of a signal naming type s about an agent of type t, one row per signal."""
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    likelihoods = np.full((k, k), (1.0 - accuracy) / (k - 1), dtype=float)
    np.fill_diagonal(likelihoods, accuracy)
    return likelihoods


def posteriors(prior_shares, likelihoods, signals) -> list[tuple[float, float, float]]:
    """Posterior over three types after each of ``signals``, one row per signal.

    Row i is the normalized product of the prior odds (finite, nonnegative, not all 0) and the
    row ``likelihoods[signals[i]]`` of ``signal_likelihoods(accuracy, 3)``, an array or lists.
    The first signal the prior rules out raises ``AllZeroPosteriorError``.
    """
    prior = list(map(float, prior_shares))
    if len(prior) != 3 or not (all(map(math.isfinite, prior)) and min(prior) >= 0.0 and any(prior)):
        raise ValueError(f"prior must be 3 finite nonnegative odds, not all 0, got {prior}")
    rows = []
    for signal in signals:
        if not 0 <= signal < 3:
            raise IndexError(f"signal {signal} out of range for 3 types")
        weight_0, weight_1, weight_2 = map(operator.mul, prior, likelihoods[signal])
        total = (weight_0 + weight_1) + weight_2  # numpy's order; sum() rounds otherwise from 3.12
        if total <= 0.0:
            raise AllZeroPosteriorError(f"prior {prior} and signal {signal} have disjoint support")
        rows.append((weight_0 / total, weight_1 / total, weight_2 / total))
    return rows
