"""Odds-form Bayesian inference of an opponent's type from a noisy signal.

A signal names one of three types and is correct with probability p; the
remaining mass splits evenly over the other two types.
"""
from __future__ import annotations

import operator

import numpy as np

from .graphs import _is_finite_number


def _check_shares(values, k: int, name: str, kinds=(list, tuple, np.ndarray)) -> tuple[float, ...]:
    """Type shares as a tuple of k floats: ``values`` must be a list, tuple or 1-D array (one of
    ``kinds``) of k finite, nonnegative numbers, not bools, that sum to 1 within 1e-9."""
    if isinstance(values, kinds) and getattr(values, "ndim", 1) == 1 and len(values) == k:
        if all(_is_finite_number(value) and value >= 0.0 for value in values):
            if abs(sum(shares := tuple(map(float, values))) - 1.0) <= 1e-9:
                return shares
    raise ValueError(f"{name} must be {k} finite, nonnegative numbers that sum to 1, got {values!r}")


def signal_likelihoods(accuracy: float) -> np.ndarray:
    """L[s, t]: odds of a signal naming type s about an agent of type t, one row per signal."""
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
    likelihoods = np.full((3, 3), (1.0 - accuracy) / 2, dtype=float)
    np.fill_diagonal(likelihoods, accuracy)
    return likelihoods


def _posteriors(prior_shares, likelihoods, signals) -> list[tuple[float, float, float]]:
    """Posterior over three types after each of ``signals``, one row per signal: the product of
    the prior shares and the row ``likelihoods[signal]`` of ``signal_likelihoods``, normalized.
    Some product must be positive for each signal: one that some agent sends."""
    rows = []
    for signal in signals:
        weight_0, weight_1, weight_2 = map(operator.mul, prior_shares, likelihoods[signal])
        total = (weight_0 + weight_1) + weight_2  # numpy's order; sum() rounds otherwise from 3.12
        rows.append((weight_0 / total, weight_1 / total, weight_2 / total))
    return rows
