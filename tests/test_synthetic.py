"""Stratum draws of the synthetic samplers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from werm.core import ValidationError
from werm.synthetic import (
    GaussianStrataSpec,
    StratifiedThresholdModel,
    _draw_strata,
    gaussian_strata_sample,
)


@st.composite
def _distributions(draw):
    """K from 1 to 9 probabilities, some of them zero, summing to 1."""
    K = draw(st.integers(1, 9))
    mass = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                                  min_size=K, max_size=K)))
    if mass.sum() == 0.0:
        mass[draw(st.integers(0, K - 1))] = 1.0
    return mass / mass.sum()


@settings(max_examples=300, deadline=None)
@given(_distributions(), st.integers(1, 3000), st.integers(0, 2**32 - 1))
def test_draw_strata_equals_generator_choice(pk, n, seed):
    """Same ids as rng.choice with p, and the generator left in the same state."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw_strata(ours, pk, n)
    want = theirs.choice(pk.size, size=n, p=pk)
    np.testing.assert_array_equal(got, want)
    assert ours.random() == theirs.random()


def _choice_strata_sample(spec, n, pk, seed):
    """gaussian_strata_sample's arrays as drawn with rng.choice."""
    rng = np.random.default_rng(seed)
    strata = rng.choice(spec.n_strata, size=n, p=pk)
    labels = rng.integers(spec.n_classes, size=n)
    angles = 2.0 * np.pi * labels / spec.n_classes + np.deg2rad(spec.rotation_deg * strata)
    means = spec.class_radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return means + spec.noise * rng.standard_normal((n, 2)), labels, strata


def _choice_threshold_sample(model, n, pk_train, seed):
    """StratifiedThresholdModel.sample's arrays as drawn with rng.choice."""
    rng = np.random.default_rng(seed)
    strata = rng.choice(model.n_strata, size=n, p=pk_train)
    labels = (rng.random(n) < np.asarray(model.pos_rates)[strata]).astype(int)
    return rng.random(n)[:, None], labels, strata


@pytest.mark.parametrize("seed", [0, 7, [3, 1]])
def test_samplers_draw_the_choice_arrays(seed):
    spec = GaussianStrataSpec()
    pk = [0.1, 0.0, 0.4, 0.2, 0.3]
    data = gaussian_strata_sample(spec, 500, pk, seed)
    want = _choice_strata_sample(spec, 500, pk, seed)
    for got, ref in zip((data.features, data.labels, data.strata), want):
        assert got.tobytes() == ref.tobytes()
    model = StratifiedThresholdModel(pos_rates=(0.2, 0.4, 0.6, 0.8))
    data = model.sample(500, [0.4, 0.3, 0.0, 0.3], seed)
    want = _choice_threshold_sample(model, 500, [0.4, 0.3, 0.0, 0.3], seed)
    for got, ref in zip((data.features, data.labels, data.strata), want):
        assert got.tobytes() == ref.tobytes()


BAD_PK = {
    "nan": [np.nan, 0.5, 0.5],
    "inf": [np.inf, 0.0, 0.0],
    "negative": [0.6, 0.6, -0.2],
    "sums to 0.9": [0.3, 0.3, 0.3],
    # numpy's choice accepts sums within about 1.5e-8 of 1; the samplers
    # keep the 1e-9 gaussian_strata_sample has always used
    "sums to 1 + 5e-9": [0.5, 0.25, 0.25 + 5e-9],
}


@pytest.mark.parametrize("name", sorted(BAD_PK))
def test_samplers_reject_bad_distributions_typed(name):
    pk = BAD_PK[name]
    with pytest.raises(ValidationError, match="stratum probabilities"):
        gaussian_strata_sample(GaussianStrataSpec(n_strata=3), 10, pk, 0)
    with pytest.raises(ValidationError, match="stratum probabilities"):
        StratifiedThresholdModel(pos_rates=(0.2, 0.5, 0.8)).sample(10, pk, 0)


def test_sum_within_tolerance_is_accepted():
    pk = [0.5, 0.25, 0.25 + 5e-10]
    assert gaussian_strata_sample(GaussianStrataSpec(n_strata=3), 10, pk, 0).n == 10
    assert StratifiedThresholdModel(pos_rates=(0.2, 0.5, 0.8)).sample(10, pk, 0).n == 10


def test_wrong_length_keeps_its_message():
    with pytest.raises(ValidationError, match="distribution over the strata"):
        gaussian_strata_sample(GaussianStrataSpec(n_strata=3), 10, [0.5, 0.5], 0)
    with pytest.raises(ValidationError, match="length must match"):
        StratifiedThresholdModel(pos_rates=(0.2, 0.5, 0.8)).sample(10, [0.5, 0.5], 0)
