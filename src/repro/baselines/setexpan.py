"""SetExpan (Shen et al., 2017): corpus-based set expansion via context
feature selection and rank ensemble.

The original algorithm iterates two steps: (1) select the skip-gram context
features most distinctive of the current seed set, and (2) rank candidate
entities by an ensemble of rankings, one per sampled feature subset, adding
the top consensus entities to the set.  Being purely statistical and driven
by positive seeds only, it has no notion of ultra-fine-grained attributes or
negative seeds — which is why the paper reports low Pos *and* low Neg scores
for it (it simply fails to recall the fine-grained class members).

Hot path: fit and restore index every feature as an int array of the
positions (in ascending entity-id order) of the entities exhibiting it, so
one ensemble sample's overlap counts are one ``np.bincount`` over its
sampled features' arrays.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from repro.core.base import Expander
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.text.tokenizer import WordTokenizer
from repro.types import ExpansionResult, Query
from repro.utils.rng import RandomState


class SetExpan(Expander):
    """Iterative context-feature-selection / rank-ensemble expansion."""

    name = "SetExpan"
    supports_persistence = True
    state_version = 1

    def __init__(
        self,
        num_iterations: int = 5,
        entities_per_iteration: int = 20,
        num_feature_samples: int = 10,
        features_per_sample: int = 30,
        top_features: int = 60,
        seed: int = 41,
    ):
        super().__init__()
        self.num_iterations = num_iterations
        self.entities_per_iteration = entities_per_iteration
        self.num_feature_samples = num_feature_samples
        self.features_per_sample = features_per_sample
        self.top_features = top_features
        self._rng = RandomState(seed)
        self._tokenizer = WordTokenizer()
        #: entity id -> Counter of skip-gram context features.
        self._entity_features: dict[int, Counter] = {}
        #: the fitted entity ids, ascending; positions index the count vectors.
        self._ids = np.empty(0, dtype=np.int64)
        #: feature -> ascending positions of the entities exhibiting it (its
        #: support is the array's length).
        self._feature_entities: dict[str, np.ndarray] = {}

    # -- fitting --------------------------------------------------------------------
    def _fit(self, dataset: UltraWikiDataset) -> None:
        self._entity_features = {}
        for entity in dataset.entities():
            features: Counter = Counter()
            for sentence in dataset.corpus.sentences_of(entity.entity_id):
                masked = dataset.corpus.masked_text(sentence, entity.name)
                tokens = self._tokenizer.tokenize(masked)
                features.update(self._skipgrams(tokens))
            self._entity_features[entity.entity_id] = features
        self._index_features()

    def _index_features(self) -> None:
        """Derive the entity positions and the feature -> positions arrays."""
        self._ids = np.array(sorted(self._entity_features), dtype=np.int64)
        members: dict[str, list[int]] = defaultdict(list)
        for position, entity_id in enumerate(self._ids.tolist()):
            for feature in self._entity_features[entity_id]:
                members[feature].append(position)
        self._feature_entities = {
            feature: np.array(positions, dtype=np.intp)
            for feature, positions in members.items()
        }

    # -- persistence ----------------------------------------------------------------
    def _save_state(self, directory: Path) -> None:
        from repro.store.serialization import save_count_table

        save_count_table(
            directory / "entity_features.json",
            {str(entity_id): features for entity_id, features in self._entity_features.items()},
        )

    def _load_state(self, directory: Path, dataset: UltraWikiDataset) -> None:
        from repro.store.serialization import load_count_table

        table = load_count_table(directory / "entity_features.json")
        self._entity_features = {
            int(entity_id): Counter(features) for entity_id, features in table.items()
        }
        # The inverse index is derived state; rebuilding it beats storing it.
        self._index_features()

    @staticmethod
    def _skipgrams(tokens: list[str]) -> list[str]:
        """Skip-gram features around the [MASK] position (window of two words)."""
        if "[MASK]" not in tokens:
            return []
        position = tokens.index("[MASK]")
        grams = []
        left = tokens[max(0, position - 2) : position]
        right = tokens[position + 1 : position + 3]
        if left:
            grams.append("L:" + " ".join(left))
        if right:
            grams.append("R:" + " ".join(right))
        if left and right:
            grams.append("B:" + left[-1] + "|" + right[0])
        return grams

    # -- expansion --------------------------------------------------------------------
    def _feature_scores(self, current_set: set[int]) -> list[tuple[str, float]]:
        """Score features by how distinctive they are of the current set."""
        scores: dict[str, float] = {}
        for entity_id in current_set:
            for feature, count in self._entity_features.get(entity_id, {}).items():
                support = len(self._feature_entities[feature])
                if support <= 1:
                    continue
                scores[feature] = scores.get(feature, 0.0) + count / support
        return sorted(scores.items(), key=lambda item: (-item[1], item[0]))

    def _ensemble(self, pool: list[str], blocked: np.ndarray, rng: RandomState) -> np.ndarray:
        """Rank ensemble: every entity's summed reciprocal rank over sampled
        feature subsets (0 for an entity no sample ranks).

        Each sample ranks the entities not ``blocked`` that exhibit a sampled
        feature by (-overlap count, id).  Reciprocal ranks are added one
        sample at a time, in sample order, so every entity's sum adds the
        same terms in the same order as a per-entity running total.
        """
        mrr = np.zeros(len(self._ids))
        sample_size = min(self.features_per_sample, len(pool))
        for sample_index in range(self.num_feature_samples):
            sampled = rng.child(sample_index).sample(pool, sample_size)
            members = [self._feature_entities[feature] for feature in sampled]
            counts = np.bincount(
                np.concatenate(members or [np.empty(0, dtype=np.intp)]),
                minlength=len(self._ids),
            )
            counts[blocked] = 0
            ranked = np.flatnonzero(counts)
            ranked = ranked[np.lexsort((ranked, -counts[ranked]))]
            mrr[ranked] += 1.0 / np.arange(1, len(ranked) + 1)
        return mrr

    def _expand(self, query: Query, top_k: int) -> ExpansionResult:
        current = set(query.positive_seed_ids)
        # no ranking holds the growing set or a negative seed
        blocked = np.isin(self._ids, [*query.positive_seed_ids, *query.negative_seed_ids])
        expansion_order: list[int] = []

        for iteration in range(self.num_iterations):
            feature_scores = self._feature_scores(current)
            pool = [feature for feature, _ in feature_scores[: self.top_features]]
            if not pool:
                break
            rng = self._rng.child(query.query_id, iteration)
            mrr = self._ensemble(pool, blocked, rng)
            # the entities ranked at least once, by (-MRR, id)
            ranked = np.flatnonzero(mrr)
            added = ranked[np.lexsort((ranked, -mrr[ranked]))][: self.entities_per_iteration]
            if not len(added):
                break
            blocked[added] = True
            for entity_id in self._ids[added].tolist():
                expansion_order.append(entity_id)
                current.add(entity_id)

        scored = [
            (entity_id, 1.0 / (rank + 1))
            for rank, entity_id in enumerate(expansion_order[:top_k])
        ]
        return ExpansionResult.from_scores(query.query_id, scored)
