"""The model hub: builds and serves the simulated checkpoint repository.

A :class:`ModelHub` wires a catalogue (:mod:`repro.zoo.catalog`) to a
workload suite (:mod:`repro.data.workloads`) of the same modality.  For each
catalogue entry it derives the checkpoint's domain vector from the entry's
pre-training corpus and fine-tuning datasets, instantiates the
:class:`~repro.zoo.models.PretrainedModel` and caches it.  Checkpoints in the
same *family* share most of their domain (with a small per-checkpoint
perturbation), which is what makes them cluster together in the coarse-recall
phase — exactly the behaviour the paper observes for the ``bert_ft_qqp-*``
and ``feather_berts`` groups.

Real hubs gain and lose checkpoints continuously, so the repository is
*versioned*: every hub carries a :class:`ZooVersion` (monotonic epoch plus a
content fingerprint of its catalogue) and :meth:`ModelHub.with_changes`
derives the next epoch from the current one without rebuilding the surviving
checkpoints.  Model construction is keyed by name (named random streams),
which is what makes an incrementally updated hub bitwise-identical to one
built from scratch over the same entries — the property the incremental
offline-artifact refresh (``docs/zoo-updates.md``) relies on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.cache.keys import fingerprint_text
from repro.data.workloads import WorkloadSuite
from repro.utils.exceptions import DataError, HubError
from repro.utils.rng import RngFactory
from repro.zoo.catalog import ModelCatalogEntry, catalog_for_modality
from repro.zoo.model_cards import render_model_card
from repro.zoo.models import PretrainedModel


@dataclass(frozen=True)
class ZooVersion:
    """Version stamp of one model-repository state.

    Attributes
    ----------
    epoch:
        Monotonic update counter: 0 for a freshly built hub, incremented by
        every :meth:`ModelHub.with_changes`.
    fingerprint:
        Content fingerprint of the hub's identity — modality, root seed,
        encoder width and the full **ordered** catalogue entries (name,
        family, quality, corpora, fine-tune lineage, …).  Same-named
        entries with different configurations never collide.  Entry order
        is deliberately part of the identity (it fixes the performance
        matrix's column layout), so two hubs with the same checkpoint set
        in different catalogue orders are different versions — e.g.
        removing and re-adding a model does not restore the old
        fingerprint.
    """

    epoch: int
    fingerprint: str

    @property
    def key(self) -> str:
        """Compact printable form used in cache keys, logs and stats."""
        return f"v{self.epoch}-{self.fingerprint}"

    def __str__(self) -> str:
        return self.key

#: How strongly a corpus anchor mixes the benchmark-task domains vs a broad
#: uniform component.  ``(benchmark names, uniform weight, breadth noise)``.
_CORPUS_RECIPES = {
    "english": ("__all__", 0.45),
    "foreign": ("__none__", 0.15),
    "imagenet1k": (("cifar10", "stl10", "food101", "cc6204_hackaton_cub", "cats_vs_dogs"), 0.3),
    "imagenet21k": ("__all__", 0.4),
    "faces": (("fer2013",), 0.25),
    "artwork": ("__none__", 0.2),
}


class ModelHub:
    """Container of all simulated checkpoints for one modality.

    Parameters
    ----------
    suite:
        Workload suite providing the domain space and benchmark-task domains
        used to position the checkpoints.
    entries:
        Catalogue entries to include; defaults to the full catalogue for the
        suite's modality.  Passing a subset keeps tests fast.
    seed:
        Root seed of all per-model randomness.
    hidden_dim:
        Encoder output dimensionality shared by all checkpoints.
    version_epoch:
        Update epoch of this hub state; 0 for freshly built hubs.  Callers
        normally leave this alone — :meth:`with_changes` advances it.
    """

    def __init__(
        self,
        suite: WorkloadSuite,
        *,
        entries: Optional[Sequence[ModelCatalogEntry]] = None,
        seed: int = 0,
        hidden_dim: int = 24,
        version_epoch: int = 0,
    ) -> None:
        self.suite = suite
        self.entries: List[ModelCatalogEntry] = list(
            entries if entries is not None else catalog_for_modality(suite.modality)
        )
        for entry in self.entries:
            if entry.modality != suite.modality:
                raise HubError(
                    f"catalogue entry {entry.name!r} is {entry.modality!r} but the "
                    f"suite is {suite.modality!r}"
                )
        if version_epoch < 0:
            raise HubError("version_epoch must be >= 0")
        self.hidden_dim = int(hidden_dim)
        self._version_epoch = int(version_epoch)
        self._rng_factory = RngFactory(seed)
        self._models: Dict[str, PretrainedModel] = {}
        self._entries_by_name = {entry.name: entry for entry in self.entries}
        if len(self._entries_by_name) != len(self.entries):
            raise HubError("catalogue entries contain duplicate model names")
        self._build_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # The build lock makes lazy model construction safe under the thread
    # executor; it is recreated (not copied) across pickling so hubs can
    # cross process boundaries with the fork-based executor.
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_build_lock", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._build_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def modality(self) -> str:
        """Modality served by this hub."""
        return self.suite.modality

    @property
    def version(self) -> ZooVersion:
        """Current :class:`ZooVersion` of this repository state."""
        # repr of the frozen dataclass covers every entry field, so two
        # same-named entries with different quality/family/lineage (legal
        # via `with_changes(added=[ModelCatalogEntry(...)])`) fingerprint
        # differently.
        fingerprint = fingerprint_text(
            self.modality,
            str(self._rng_factory.root_seed),
            str(self.hidden_dim),
            *(repr(entry) for entry in self.entries),
        )
        return ZooVersion(epoch=self._version_epoch, fingerprint=fingerprint)

    @property
    def model_names(self) -> List[str]:
        """Names of every checkpoint in catalogue order."""
        return [entry.name for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries_by_name

    def entry(self, name: str) -> ModelCatalogEntry:
        """Catalogue entry for ``name``."""
        if name not in self._entries_by_name:
            raise HubError(f"unknown model {name!r}")
        return self._entries_by_name[name]

    def get(self, name: str) -> PretrainedModel:
        """Return (building and caching on first use) the checkpoint ``name``.

        Construction is deterministic per name (named random streams), and
        serialised by a lock so concurrent callers never build twice.
        """
        model = self._models.get(name)
        if model is not None:
            return model
        with self._build_lock:
            if name not in self._models:
                self._models[name] = self._build_model(self.entry(name))
            return self._models[name]

    def models(self) -> List[PretrainedModel]:
        """All checkpoints in catalogue order."""
        return [self.get(name) for name in self.model_names]

    def model_card(self, name: str) -> str:
        """Synthetic model-card text for ``name``."""
        return render_model_card(self.entry(name))

    def model_cards(self) -> Dict[str, str]:
        """Model cards for every checkpoint, keyed by name."""
        return {name: self.model_card(name) for name in self.model_names}

    def subset(self, names: Sequence[str]) -> "ModelHub":
        """A new hub restricted to ``names`` (sharing the same suite and seed)."""
        entries = [self.entry(name) for name in names]
        return ModelHub(
            self.suite,
            entries=entries,
            seed=self._rng_factory.root_seed,
            hidden_dim=self.hidden_dim,
        )

    # ------------------------------------------------------------------ #
    # incremental updates
    # ------------------------------------------------------------------ #
    def resolve_entry(self, entry: Union[str, ModelCatalogEntry]) -> ModelCatalogEntry:
        """Normalise an entry-or-name into a :class:`ModelCatalogEntry`.

        Names are looked up in this hub first, then in the full catalogue of
        the hub's modality, so callers can add checkpoints by their public
        name without constructing catalogue entries by hand.
        """
        if isinstance(entry, ModelCatalogEntry):
            return entry
        if entry in self._entries_by_name:
            return self._entries_by_name[entry]
        for candidate in catalog_for_modality(self.modality):
            if candidate.name == entry:
                return candidate
        raise HubError(
            f"unknown model {entry!r}: not in this hub nor in the "
            f"{self.modality} catalogue"
        )

    def with_changes(
        self,
        *,
        added: Iterable[Union[str, ModelCatalogEntry]] = (),
        removed: Iterable[str] = (),
    ) -> "ModelHub":
        """The next repository epoch with ``added``/``removed`` checkpoints.

        Returns a **new** hub (the current one stays intact, so a service
        can keep answering requests against the old epoch while the new one
        warms up).  Surviving checkpoints that were already built are shared
        with the new hub — construction is deterministic per name, so the
        shared instances are exactly what a from-scratch build would create.

        ``added`` entries are appended in the given order after the
        surviving catalogue entries; ``removed`` names must exist and a name
        cannot be both added and removed in one update.
        """
        added_entries = [self.resolve_entry(entry) for entry in added]
        removed_names = list(removed)
        for name in removed_names:
            if name not in self._entries_by_name:
                raise HubError(f"cannot remove unknown model {name!r}")
        removed_set = set(removed_names)
        added_names = {entry.name for entry in added_entries}
        if added_names & removed_set:
            overlap = sorted(added_names & removed_set)
            raise HubError(f"models both added and removed: {overlap[:3]}")
        for entry in added_entries:
            if entry.name in self._entries_by_name:
                raise HubError(f"model {entry.name!r} is already in the hub")
        entries = [
            entry for entry in self.entries if entry.name not in removed_set
        ] + added_entries
        if not entries:
            raise HubError("update would leave the hub empty")
        hub = ModelHub(
            self.suite,
            entries=entries,
            seed=self._rng_factory.root_seed,
            hidden_dim=self.hidden_dim,
            version_epoch=self._version_epoch + 1,
        )
        # Share already-built checkpoints: per-name named random streams make
        # them identical to what the new hub would build on first access.
        with self._build_lock:
            survivors = {
                name: model
                for name, model in self._models.items()
                if name not in removed_set
            }
        hub._models.update(survivors)
        return hub

    # ------------------------------------------------------------------ #
    def _corpus_domain(self, corpus: str, rng: np.random.Generator) -> np.ndarray:
        """Domain vector of a pre-training corpus."""
        space = self.suite.space
        recipe = _CORPUS_RECIPES.get(corpus, ("__none__", 0.2))
        benchmark_names, uniform_weight = recipe
        uniform = np.full(space.num_concepts, 1.0 / space.num_concepts)
        if benchmark_names == "__all__":
            anchors = [self.suite.spec(name).domain for name in self.suite.benchmark_names]
        elif benchmark_names == "__none__":
            anchors = []
        else:
            anchors = [
                self.suite.spec(name).domain
                for name in benchmark_names
                if name in self.suite.benchmark_names
            ]
        if anchors:
            anchor_mix = space.normalize_domain(np.mean(anchors, axis=0))
            domain = uniform_weight * uniform + (1.0 - uniform_weight) * anchor_mix
        else:
            # Corpus unrelated to the benchmarks (foreign language, artwork):
            # a concentrated random domain far from most benchmark tasks.
            domain = space.random_domain_vector(rng, concentration=0.35)
            domain = uniform_weight * uniform + (1.0 - uniform_weight) * domain
        return space.normalize_domain(domain)

    def _finetune_anchor(self, entry: ModelCatalogEntry) -> Optional[np.ndarray]:
        """Mean domain of the datasets the checkpoint was fine-tuned on."""
        domains = []
        for dataset_name in entry.finetune_datasets:
            try:
                domains.append(self.suite.spec(dataset_name).domain)
            except DataError:
                # Fine-tune dataset not part of this suite (e.g. a target-only
                # dataset filtered out in a reduced suite) — skip it.
                continue
        if not domains:
            return None
        return self.suite.space.normalize_domain(np.mean(domains, axis=0))

    def _build_model(self, entry: ModelCatalogEntry) -> PretrainedModel:
        space = self.suite.space
        corpus_rng = self._rng_factory.named("corpus", self.modality, entry.pretrain_corpus)
        family_rng = self._rng_factory.named("family", self.modality, entry.family)
        model_rng = self._rng_factory.named("model", self.modality, entry.name)

        corpus_domain = self._corpus_domain(entry.pretrain_corpus, corpus_rng)
        # Family-level tilt: checkpoints in the same family share this
        # component, which is what makes them cluster together.
        family_tilt = space.random_domain_vector(family_rng, concentration=0.8)
        domain = 0.72 * corpus_domain + 0.28 * family_tilt

        finetune_anchor = self._finetune_anchor(entry)
        if finetune_anchor is not None and entry.finetune_weight > 0:
            domain = (1.0 - entry.finetune_weight) * domain + entry.finetune_weight * finetune_anchor

        # Small per-checkpoint perturbation so siblings are similar, not equal.
        perturbation = space.random_domain_vector(model_rng, concentration=1.0)
        domain = 0.93 * domain + 0.07 * perturbation

        return PretrainedModel(
            entry,
            space,
            domain,
            hidden_dim=self.hidden_dim,
            rng=model_rng,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ModelHub(modality={self.modality!r}, models={len(self)})"
