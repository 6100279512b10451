"""The batched encoder-noise kernel against the per-row oracle, bitwise."""

import copy
import zlib

import numpy as np
import pytest

from oracles.encoder_noise import deterministic_noise
from repro.zoo.models import _seed_sequence_state


def _features(model, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, model.space.feature_dim))


def _assert_matches_oracle(model, features):
    shape = (len(features), model.hidden_dim)
    kernel = model._deterministic_noise(features, shape)
    oracle = deterministic_noise(features, model._noise_key, shape)
    assert kernel.shape == shape
    assert kernel.tobytes() == oracle.tobytes()


def test_seed_sequence_state_matches_numpy():
    values = [0, 1, 12345, 2**31 - 2, 2**31 - 1, 12345]
    batched = _seed_sequence_state(np.array(values, dtype=np.uint32))
    assert batched.dtype == np.uint64
    assert batched.shape == (len(values), 4)
    for row, v in enumerate(values):
        expected = np.random.SeedSequence(v).generate_state(4, np.uint64)
        assert batched[row].tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 7, 257])
@pytest.mark.parametrize("hub", ["nlp_hub_small", "cv_hub_small"])
def test_noise_matches_oracle(request, hub, n):
    models = request.getfixturevalue(hub)
    for name in models.model_names[:3]:
        model = models.get(name)
        _assert_matches_oracle(model, _features(model, n, seed=n))


def test_noise_matches_oracle_on_real_features(nlp_hub_small, nlp_suite_small):
    model = nlp_hub_small.get("bert-base-uncased")
    _assert_matches_oracle(model, nlp_suite_small.task("sst2").train.features)


def test_duplicated_rows_get_identical_noise(nlp_hub_small):
    model = nlp_hub_small.get("roberta-base")
    base = _features(model, 5)
    features = base[[0, 1, 0, 2, 1, 0, 3, 4, 4]]
    _assert_matches_oracle(model, features)
    noise = model._deterministic_noise(features, (len(features), model.hidden_dim))
    assert noise[0].tobytes() == noise[2].tobytes() == noise[5].tobytes()
    assert noise[7].tobytes() == noise[8].tobytes()


@pytest.mark.parametrize("seed", [0, 0x7FFFFFFF])
@pytest.mark.parametrize("high_bit", [0, 0x80000000])
def test_extreme_seeds_match_oracle(cv_hub_small, seed, high_bit):
    # The key is chosen so that the first row's masked digest is exactly
    # ``seed``; ``high_bit`` sets the bit the 31-bit mask drops.
    model = copy.copy(cv_hub_small.get(cv_hub_small.model_names[0]))
    features = _features(model, 4)
    crc = zlib.crc32(np.round(features, decimals=8)[0].tobytes())
    model._noise_key = crc ^ seed ^ high_bit
    assert (crc ^ model._noise_key) & 0x7FFFFFFF == seed
    _assert_matches_oracle(model, features)
    first = model._deterministic_noise(features[:1], (1, model.hidden_dim))[0]
    expected = np.random.default_rng(seed).standard_normal(model.hidden_dim)
    assert first.tobytes() == expected.tobytes()


def test_non_contiguous_features_match_oracle(nlp_hub_small):
    model = nlp_hub_small.get("albert-base-v2")
    wide = np.asfortranarray(_features(model, 11, seed=3))
    _assert_matches_oracle(model, wide)
    _assert_matches_oracle(model, _features(model, 22, seed=4)[::2])
