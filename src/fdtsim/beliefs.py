"""Odds-form Bayesian inference of an opponent's type from a noisy signal.

A signal names one of k types and is correct with probability p; the
remaining mass splits evenly over the other k - 1 types.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AllZeroPosteriorError(ValueError):
    """Prior and likelihood have disjoint support; posterior undefined."""


@dataclass(frozen=True)
class SignalModel:
    accuracy: float
    type_count: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        if self.type_count < 2:
            raise ValueError(f"type_count must be >= 2, got {self.type_count}")


def likelihood(signal_type: int, model: SignalModel) -> np.ndarray:
    """Odds over types for observing a signal naming ``signal_type``."""
    k = model.type_count
    if not 0 <= signal_type < k:
        raise IndexError(f"signal_type {signal_type} out of range for {k} types")
    odds = np.full(k, (1.0 - model.accuracy) / (k - 1))
    odds[signal_type] = model.accuracy
    return odds


def signal_likelihoods(model: SignalModel) -> np.ndarray:
    """L[s, t]: odds of a signal naming type s about an agent of type t, one row per signal."""
    return np.array([likelihood(s, model) for s in range(model.type_count)])


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


def posterior(prior_shares, signal_type: int, model: SignalModel) -> np.ndarray:
    """Posterior over types after one signal: the one-signal case of ``posteriors``."""
    return posteriors(prior_shares, signal_likelihoods(model), [signal_type])[0]
