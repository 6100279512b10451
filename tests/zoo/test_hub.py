"""Tests for repro.zoo.hub.ModelHub."""

import dataclasses

import numpy as np
import pytest

from repro.data.workloads import DataScale, cv_suite, nlp_suite
from repro.utils.exceptions import HubError
from repro.zoo.hub import ModelHub


class TestConstruction:
    def test_full_hub_sizes(self):
        nlp_hub = ModelHub(nlp_suite(seed=0, scale=DataScale.small()))
        cv_hub = ModelHub(cv_suite(seed=0, scale=DataScale.small()))
        assert len(nlp_hub) == 40
        assert len(cv_hub) == 30

    def test_subset(self, nlp_hub_small):
        sub = nlp_hub_small.subset(["bert-base-uncased", "roberta-base"])
        assert sub.model_names == ["bert-base-uncased", "roberta-base"]

    def test_unknown_model(self, nlp_hub_small):
        with pytest.raises(HubError):
            nlp_hub_small.get("not-a-model")
        with pytest.raises(HubError):
            nlp_hub_small.entry("not-a-model")

    def test_contains(self, nlp_hub_small):
        assert "bert-base-uncased" in nlp_hub_small
        assert "nonexistent" not in nlp_hub_small

    def test_modality_mismatch_rejected(self):
        suite = nlp_suite(seed=0, scale=DataScale.small())
        from repro.zoo.catalog import cv_catalog

        with pytest.raises(HubError):
            ModelHub(suite, entries=cv_catalog()[:2])


class TestModelConstruction:
    def test_models_are_cached(self, nlp_hub_small):
        assert nlp_hub_small.get("bert-base-uncased") is nlp_hub_small.get("bert-base-uncased")

    def test_model_reproducible_across_hub_instances(self, nlp_suite_small):
        hub_a = ModelHub(nlp_suite_small, seed=0).subset(["bert-base-uncased"])
        hub_b = ModelHub(nlp_suite_small, seed=0).subset(["bert-base-uncased"])
        features = nlp_suite_small.task("sst2").train.features[:5]
        assert np.allclose(
            hub_a.get("bert-base-uncased").encode(features),
            hub_b.get("bert-base-uncased").encode(features),
        )

    def test_different_seed_changes_models(self, nlp_suite_small):
        features = nlp_suite_small.task("sst2").train.features[:5]
        a = ModelHub(nlp_suite_small, seed=0).get("bert-base-uncased").encode(features)
        b = ModelHub(nlp_suite_small, seed=1).get("bert-base-uncased").encode(features)
        assert not np.allclose(a, b)

    def test_family_members_share_domain_structure(self, nlp_hub_small):
        qqp_models = [
            nlp_hub_small.get(name)
            for name in nlp_hub_small.model_names
            if "bert_ft_qqp" in name and "init" not in name
        ]
        assert len(qqp_models) >= 2
        base = nlp_hub_small.get("aliosm/sha3bor-metre-detector-arabertv2-base")
        intra = qqp_models[0].domain_affinity(qqp_models[1].domain)
        inter = qqp_models[0].domain_affinity(base.domain)
        assert intra > inter

    def test_finetune_anchor_skips_only_unknown_datasets(
        self, nlp_suite_small, monkeypatch
    ):
        hub = ModelHub(nlp_suite_small, seed=0)
        entry = hub.entry("ishan/bert-base-uncased-mnli")
        unknown = dataclasses.replace(entry, finetune_datasets=("no-such-set",))
        assert hub._finetune_anchor(unknown) is None  # DataError: skipped

        def broken_spec(name):
            raise RuntimeError("spec table corrupted")

        monkeypatch.setattr(hub.suite, "spec", broken_spec)
        with pytest.raises(RuntimeError, match="corrupted"):
            hub._finetune_anchor(entry)

    def test_model_cards_generated_for_all(self, nlp_hub_small):
        cards = nlp_hub_small.model_cards()
        assert set(cards) == set(nlp_hub_small.model_names)
        assert all(len(card) > 50 for card in cards.values())


class TestZooVersion:
    def test_fresh_hub_is_epoch_zero(self, nlp_hub_small):
        version = nlp_hub_small.version
        assert version.epoch == 0
        assert version.key.startswith("v0-")

    def test_fingerprint_is_content_based(self, nlp_suite_small, nlp_hub_small):
        same = ModelHub(nlp_suite_small, seed=0).subset(nlp_hub_small.model_names)
        assert same.version.fingerprint == nlp_hub_small.version.fingerprint
        other_seed = ModelHub(nlp_suite_small, seed=1).subset(nlp_hub_small.model_names)
        assert other_seed.version.fingerprint != nlp_hub_small.version.fingerprint

    def test_with_changes_bumps_epoch_and_fingerprint(self, nlp_hub_small):
        removed = nlp_hub_small.model_names[0]
        updated = nlp_hub_small.with_changes(removed=[removed])
        assert updated.version.epoch == 1
        assert updated.version.fingerprint != nlp_hub_small.version.fingerprint
        assert removed not in updated.model_names
        # The original hub is untouched.
        assert removed in nlp_hub_small.model_names
        assert nlp_hub_small.version.epoch == 0

    def test_with_changes_resolves_names_from_catalogue(self, nlp_hub_small):
        new_name = "aviator-neural/bert-base-uncased-sst2"
        assert new_name not in nlp_hub_small.model_names
        updated = nlp_hub_small.with_changes(added=[new_name])
        assert updated.model_names[-1] == new_name
        assert len(updated) == len(nlp_hub_small) + 1

    def test_with_changes_shares_built_models(self, nlp_hub_small):
        kept = nlp_hub_small.model_names[1]
        built = nlp_hub_small.get(kept)
        updated = nlp_hub_small.with_changes(removed=[nlp_hub_small.model_names[0]])
        assert updated.get(kept) is built

    def test_shared_models_match_a_cold_build(self, nlp_suite_small, nlp_hub_small):
        updated = nlp_hub_small.with_changes(removed=[nlp_hub_small.model_names[0]])
        cold = ModelHub(nlp_suite_small, seed=0).subset(updated.model_names)
        name = updated.model_names[0]
        assert np.array_equal(
            updated.get(name).concept_gains, cold.get(name).concept_gains
        )

    def test_invalid_updates_rejected(self, nlp_hub_small):
        with pytest.raises(HubError):
            nlp_hub_small.with_changes(removed=["not-a-model"])
        with pytest.raises(HubError):
            nlp_hub_small.with_changes(added=[nlp_hub_small.model_names[0]])
        with pytest.raises(HubError):
            nlp_hub_small.with_changes(added=["definitely-not-in-catalogue"])
        new_name = "connectivity/bert_ft_qqp-1"
        with pytest.raises(HubError):
            nlp_hub_small.with_changes(added=[new_name], removed=[new_name])
        with pytest.raises(HubError):
            nlp_hub_small.with_changes(removed=list(nlp_hub_small.model_names))

    def test_fingerprint_covers_entry_contents(self, nlp_hub_small):
        from repro.zoo.catalog import ModelCatalogEntry

        strong = ModelCatalogEntry(
            name="custom-x", modality="nlp", architecture="bert",
            family="a", quality=0.9,
        )
        weak = ModelCatalogEntry(
            name="custom-x", modality="nlp", architecture="bert",
            family="b", quality=0.3,
        )
        v_strong = nlp_hub_small.with_changes(added=[strong]).version
        v_weak = nlp_hub_small.with_changes(added=[weak]).version
        assert v_strong.fingerprint != v_weak.fingerprint
