"""Odds-form Bayesian inference of an opponent's type from a noisy signal.

A signal names one of k types and is correct with probability p; the
remaining mass splits evenly over the other k - 1 types.
"""
from __future__ import annotations

import numpy as np


class AllZeroPosteriorError(ValueError):
    """Prior and likelihood have disjoint support; posterior undefined."""


def signal_likelihoods(accuracy: float, k: int) -> np.ndarray:
    """L[s, t]: odds of a signal naming type s about an agent of type t, one row per signal."""
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    likelihoods = np.full((k, k), (1.0 - accuracy) / (k - 1))
    np.fill_diagonal(likelihoods, accuracy)
    return likelihoods


def posteriors(prior_shares, likelihoods: np.ndarray, signals) -> np.ndarray:
    """Posterior over types after each of ``signals``, one row per signal.

    Row i is the normalized entrywise product of the prior odds and
    ``likelihoods[signals[i]]``, a row of ``signal_likelihoods``. The prior may
    be unnormalized odds. The first signal the prior rules out raises ``AllZeroPosteriorError``.
    """
    prior = np.asarray(prior_shares, dtype=float)
    k = likelihoods.shape[-1]
    if prior.shape != (k,) or (prior < 0.0).any():
        raise ValueError(f"prior must be {k} nonnegative odds, got {prior.tolist()}")
    if not all(0 <= signal < k for signal in signals):
        raise IndexError(f"signals {list(signals)} out of range for {k} types")
    product = prior * likelihoods[signals]
    total = product.sum(-1)
    if (total <= 0.0).any():
        raise AllZeroPosteriorError(
            f"prior {prior.tolist()} and signal {signals[np.argmax(total <= 0.0)]} have disjoint support"
        )
    return product / total[:, None]

