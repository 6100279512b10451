"""Tests for repro.zoo.models.PretrainedModel."""

import numpy as np
import pytest

from repro.utils.exceptions import ConfigurationError, DataError


class TestEncoder:
    def test_encode_shape(self, nlp_hub_small, nlp_suite_small):
        model = nlp_hub_small.get("bert-base-uncased")
        features = nlp_suite_small.task("sst2").train.features[:10]
        encoded = model.encode(features)
        assert encoded.shape == (10, model.hidden_dim)

    def test_encode_is_deterministic(self, nlp_hub_small, nlp_suite_small):
        model = nlp_hub_small.get("bert-base-uncased")
        features = nlp_suite_small.task("sst2").train.features[:5]
        assert model.encode(features).tobytes() == model.encode(features).tobytes()

    def test_encode_rows_are_independent(self, nlp_hub_small, nlp_suite_small):
        """A row's encoding never depends on the other rows of the batch."""
        model = nlp_hub_small.get("bert-base-uncased")
        features = nlp_suite_small.task("sst2").train.features[:40]
        shape = (len(features), model.hidden_dim)
        encoded = model.encode(features)
        noise = model._deterministic_noise(features, shape)
        perm = np.random.default_rng(0).permutation(len(features))
        permuted = model.encode(features[perm])
        permuted_noise = model._deterministic_noise(features[perm], shape)
        for j, i in enumerate(perm):
            assert permuted[j].tobytes() == encoded[i].tobytes()
            assert permuted_noise[j].tobytes() == noise[i].tobytes()
        for i in range(len(features)):
            row = features[i : i + 1]
            single_noise = model._deterministic_noise(row, (1, model.hidden_dim))
            assert single_noise[0].tobytes() == noise[i].tobytes()
            # A one-row projection takes BLAS's matrix-vector path, whose
            # rounding may differ from the batched product's in the last
            # bit; the noise added on top is checked bitwise above.
            np.testing.assert_allclose(model.encode(row)[0], encoded[i], rtol=0, atol=1e-12)

    def test_encode_rejects_wrong_dimension(self, nlp_hub_small):
        model = nlp_hub_small.get("bert-base-uncased")
        with pytest.raises(DataError):
            model.encode(np.ones((3, 7)))

    def test_different_models_encode_differently(self, nlp_hub_small, nlp_suite_small):
        features = nlp_suite_small.task("sst2").train.features[:5]
        a = nlp_hub_small.get("bert-base-uncased").encode(features)
        b = nlp_hub_small.get("roberta-base").encode(features)
        assert not np.allclose(a, b)

    def test_higher_quality_means_less_noise(self, nlp_hub_small):
        strong = nlp_hub_small.get("roberta-base")
        weak = nlp_hub_small.get("CAMeL-Lab/bert-base-arabic-camelbert-mix-did-nadi")
        assert strong.representation_noise < weak.representation_noise

    def test_concept_gains_reflect_domain(self, nlp_hub_small):
        model = nlp_hub_small.get("bert-base-uncased")
        # The most-covered concept should have a higher gain than the least covered.
        best = int(np.argmax(model.domain))
        worst = int(np.argmin(model.domain))
        assert model.concept_gains[best] > model.concept_gains[worst]


class TestSourceHead:
    def test_posterior_is_probability_matrix(self, nlp_hub_small, nlp_suite_small):
        model = nlp_hub_small.get("bert-base-uncased")
        features = nlp_suite_small.task("sst2").train.features[:8]
        posterior = model.source_posterior(features)
        assert posterior.shape == (8, model.num_source_classes)
        assert np.allclose(posterior.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(posterior >= 0)

    def test_source_head_is_cached(self, nlp_hub_small):
        model = nlp_hub_small.get("bert-base-uncased")
        assert model.source_head() is model.source_head()


class TestTransferStructure:
    def test_domain_affinity_bounds(self, nlp_hub_small, nlp_suite_small):
        model = nlp_hub_small.get("bert-base-uncased")
        affinity = model.domain_affinity(nlp_suite_small.spec("mnli").domain)
        assert 0.0 <= affinity <= 1.0

    def test_finetuned_sibling_models_have_similar_domains(self, nlp_hub_small):
        """Checkpoints fine-tuned on the same dataset share most of their domain."""
        a = nlp_hub_small.get("Jeevesh8/bert_ft_qqp-68")
        b = nlp_hub_small.get("Jeevesh8/bert_ft_qqp-9")
        unrelated = nlp_hub_small.get("aliosm/sha3bor-metre-detector-arabertv2-base")
        sibling_affinity = a.domain_affinity(b.domain)
        unrelated_affinity = a.domain_affinity(unrelated.domain)
        assert sibling_affinity > unrelated_affinity

    def test_better_matched_model_transfers_better(
        self, nlp_hub_small, nlp_suite_small, fine_tuner
    ):
        """A strong in-domain model must beat a weak out-of-domain one on average."""
        task = nlp_suite_small.task("mnli")
        strong = nlp_hub_small.get("ishan/bert-base-uncased-mnli")
        weak = nlp_hub_small.get("CAMeL-Lab/bert-base-arabic-camelbert-mix-did-nadi")
        strong_acc = fine_tuner.fine_tune(strong, task, epochs=3).final_test
        weak_acc = fine_tuner.fine_tune(weak, task, epochs=3).final_test
        assert strong_acc > weak_acc

    def test_modality_mismatch_rejected(self, cv_hub_small, nlp_suite_small, fine_tuner):
        cv_model = cv_hub_small.get("google/vit-base-patch16-224")
        nlp_task = nlp_suite_small.task("sst2")
        with pytest.raises(ConfigurationError):
            fine_tuner.start_session(cv_model, nlp_task)
