"""Tests for the end-to-end two-phase pipeline."""

import gc
import weakref

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import OfflineArtifacts, TwoPhaseSelector
from repro.utils.exceptions import SelectionError


@pytest.fixture(scope="module")
def artifacts(nlp_hub_small, nlp_suite_small, nlp_matrix_small, nlp_clustering_small, test_pipeline_config):
    return OfflineArtifacts(
        hub=nlp_hub_small,
        suite=nlp_suite_small,
        matrix=nlp_matrix_small,
        clustering=nlp_clustering_small,
        config=test_pipeline_config,
    )


@pytest.fixture(scope="module")
def selector(artifacts, fine_tuner):
    return TwoPhaseSelector(artifacts, fine_tuner=fine_tuner)


class TestOfflineArtifacts:
    def test_build_from_hub(self, nlp_hub_small, nlp_suite_small, fine_tuner, test_pipeline_config):
        small_hub = nlp_hub_small.subset(nlp_hub_small.model_names[:4])
        artifacts = OfflineArtifacts.build(
            small_hub, nlp_suite_small, config=test_pipeline_config, fine_tuner=fine_tuner
        )
        assert artifacts.matrix.model_names == small_hub.model_names
        assert artifacts.clustering.assignment.num_clusters >= 1


class TestTwoPhaseSelector:
    def test_select_by_name(self, selector, nlp_hub_small, test_pipeline_config):
        result = selector.select("mnli", top_k=5)
        assert result.selected_model in nlp_hub_small.model_names
        assert result.selected_model in result.recall.recalled_models
        assert 0.0 <= result.selected_accuracy <= 1.0
        # Total cost: proxy inference + fine-tuning epochs, well below brute force.
        brute_force_cost = len(nlp_hub_small) * test_pipeline_config.fine_selection.total_epochs
        assert result.total_cost < brute_force_cost

    def test_select_by_task_object(self, selector, nlp_suite_small):
        task = nlp_suite_small.task("boolq")
        result = selector.select(task, top_k=4)
        assert result.target_name == "boolq"
        assert len(result.recall.recalled_models) == 4

    def test_unknown_target_rejected(self, selector):
        with pytest.raises(SelectionError):
            selector.select("imagenet")

    def test_recall_only(self, selector):
        recall = selector.recall_only("mnli", top_k=3)
        assert len(recall.recalled_models) == 3

    def test_cluster_summary(self, selector, nlp_hub_small):
        summary = selector.cluster_summary()
        assert summary["num_models"] == len(nlp_hub_small)

    def test_results_reproducible(self, artifacts, fine_tuner):
        a = TwoPhaseSelector(artifacts, fine_tuner=fine_tuner).select("mnli", top_k=5)
        b = TwoPhaseSelector(artifacts, fine_tuner=fine_tuner).select("mnli", top_k=5)
        assert a.selected_model == b.selected_model
        assert a.recall.recalled_models == b.recall.recalled_models
        assert a.total_cost == b.total_cost

    def test_select_releases_its_sessions_without_cyclic_gc(
        self, artifacts, fine_tuner, monkeypatch
    ):
        """A finished blocking select leaves nothing that pins its pool.

        ``select`` runs a one-request scheduler whose pool owns every
        session it trained; a reference cycle through the finished request
        would keep them alive until a cyclic collection — measurable as
        peak-RSS growth across many distinct requests.  With the collector
        off, plain reference counting must free them on return.
        """
        selector = TwoPhaseSelector(artifacts, fine_tuner=fine_tuner)
        sessions = []
        start_session = selector.fine_tuner.start_session

        def recording_start(model, task):
            session = start_session(model, task)
            sessions.append(weakref.ref(session))
            return session

        monkeypatch.setattr(selector.fine_tuner, "start_session", recording_start)
        gc.collect()
        gc.disable()
        try:
            result = selector.select("mnli", top_k=4)
            assert len(sessions) == len(result.recall.recalled_models)
            assert [ref for ref in sessions if ref() is not None] == []
        finally:
            gc.enable()
