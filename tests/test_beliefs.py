import numpy as np
import pytest
from hypothesis import given, strategies as st

from fdtsim.beliefs import _posteriors, _signal_likelihoods


def posterior(prior, signal, accuracy):
    """The posterior after one signal, from a three-type signal of the given accuracy."""
    return np.array(_posteriors(prior, _signal_likelihoods(accuracy), [signal])[0])


def test_likelihood_shape():
    assert _signal_likelihoods(0.8)[0] == pytest.approx([0.8, 0.1, 0.1])


def test_posterior_hand_computed():
    # prior (0.5, 0.25, 0.25), p=0.8, signal=0:
    # odds (0.4, 0.025, 0.025) -> (8/9, 1/18, 1/18)
    post = posterior((0.5, 0.25, 0.25), 0, 0.8)
    assert post == pytest.approx([8 / 9, 1 / 18, 1 / 18], abs=1e-12)


def test_uninformative_signal_returns_prior():
    prior = (0.2, 0.5, 0.3)
    post = posterior(prior, 1, 1 / 3)
    assert post == pytest.approx(list(prior), abs=1e-12)


def test_perfect_signal_is_point_mass():
    post = posterior((0.2, 0.5, 0.3), 2, 1.0)
    assert post == pytest.approx([0.0, 0.0, 1.0])


shares = st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3)


@given(prior=shares, p=st.floats(0.01, 0.99), signal=st.integers(0, 2))
def test_posterior_normalized(prior, p, signal):
    post = posterior(prior, signal, p)
    assert post.sum() == pytest.approx(1.0, abs=1e-9)
    assert (post >= 0).all()


@given(
    prior=shares,
    scale=st.floats(1e-3, 1e3),
    p=st.floats(0.01, 0.99),
    signal=st.integers(0, 2),
)
def test_posterior_invariant_under_prior_rescaling(prior, scale, p, signal):
    # Odds-form updating: any positive rescaling of the prior cancels.
    a = posterior(prior, signal, p)
    b = posterior(np.asarray(prior) * scale, signal, p)
    assert a == pytest.approx(b, abs=1e-9)
