"""Tests for the four-step dataset construction pipeline."""

import json
from pathlib import Path

import pytest

from repro.config import DatasetConfig
from repro.dataset.builder import UltraWikiBuilder, build_dataset
from repro.exceptions import ConfigurationError


class TestBuilderValidation:
    def test_invalid_config_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            UltraWikiBuilder(DatasetConfig(entities_per_class=5))


class TestBuiltDataset:
    def test_entity_counts(self, tiny_dataset, tiny_config):
        expected_class_entities = tiny_config.num_fine_classes * tiny_config.entities_per_class
        assert tiny_dataset.num_entities == expected_class_entities + tiny_config.num_distractors
        assert len(tiny_dataset.distractors()) == tiny_config.num_distractors

    def test_fine_class_count(self, tiny_dataset, tiny_config):
        assert len(tiny_dataset.fine_classes) == tiny_config.num_fine_classes

    def test_every_class_entity_has_all_attributes(self, tiny_dataset):
        for entity in tiny_dataset.entities():
            if entity.fine_class is None:
                continue
            schema_attributes = tiny_dataset.fine_classes[entity.fine_class].attributes
            assert set(entity.attributes) == set(schema_attributes)
            for attribute, value in entity.attributes.items():
                assert value in schema_attributes[attribute]

    def test_every_entity_has_context_sentences(self, tiny_dataset):
        counts = tiny_dataset.corpus.entity_mention_counts()
        for entity in tiny_dataset.entities():
            assert counts.get(entity.entity_id, 0) >= 2

    def test_ultra_classes_generated_for_each_fine_class(self, tiny_dataset):
        fine_with_ultra = {u.fine_class for u in tiny_dataset.ultra_classes.values()}
        assert fine_with_ultra == set(tiny_dataset.fine_classes)

    def test_every_ultra_class_has_queries(self, tiny_dataset, tiny_config):
        for class_id in tiny_dataset.ultra_classes:
            queries = tiny_dataset.queries_of_class(class_id)
            assert len(queries) == tiny_config.queries_per_class

    def test_targets_meet_threshold(self, tiny_dataset, tiny_config):
        for ultra in tiny_dataset.ultra_classes.values():
            assert len(ultra.positive_entity_ids) >= tiny_config.min_targets
            assert len(ultra.negative_entity_ids) >= tiny_config.min_targets

    def test_targets_reference_existing_entities(self, tiny_dataset):
        ids = set(tiny_dataset.entity_ids())
        for ultra in tiny_dataset.ultra_classes.values():
            assert set(ultra.positive_entity_ids) <= ids
            assert set(ultra.negative_entity_ids) <= ids

    def test_target_entities_belong_to_the_fine_class(self, tiny_dataset):
        for ultra in tiny_dataset.ultra_classes.values():
            for eid in (*ultra.positive_entity_ids, *ultra.negative_entity_ids):
                assert tiny_dataset.entity(eid).fine_class == ultra.fine_class

    def test_annotation_metadata_recorded(self, tiny_dataset):
        annotation = tiny_dataset.metadata["annotation"]
        assert annotation["wikidata_statements"] > 0
        assert annotation["manual_items"] > 0
        assert annotation["annotator_agreement"] > 0.8

    def test_hard_negatives_are_distractors_with_classlike_sentences(self, tiny_dataset):
        hard_ids = tiny_dataset.metadata["hard_negative_ids"]
        assert hard_ids
        for entity_id in hard_ids[:20]:
            assert tiny_dataset.entity(entity_id).fine_class is None

    def test_config_stored_in_metadata(self, tiny_dataset, tiny_config):
        assert tiny_dataset.metadata["config"]["seed"] == tiny_config.seed

    def test_class_overlap_is_high(self, tiny_dataset):
        """The paper reports ~99% of ultra-fine-grained classes overlap with a sibling."""
        from repro.dataset.analysis import compute_statistics

        stats = compute_statistics(tiny_dataset)
        assert stats.class_overlap_fraction > 0.9

    def test_determinism(self, tiny_config, tiny_dataset):
        rebuilt = build_dataset(tiny_config)
        assert rebuilt.num_entities == tiny_dataset.num_entities
        assert rebuilt.num_sentences == tiny_dataset.num_sentences
        assert set(rebuilt.ultra_classes) == set(tiny_dataset.ultra_classes)
        assert [q.query_id for q in rebuilt.queries] == [
            q.query_id for q in tiny_dataset.queries
        ]

    def test_different_seed_changes_dataset(self, tiny_config, tiny_dataset):
        other = build_dataset(DatasetConfig.tiny(seed=tiny_config.seed + 1))
        assert [e.name for e in other.entities()[:20]] != [
            e.name for e in tiny_dataset.entities()[:20]
        ]


class TestGoldenFingerprints:
    """The benchmark's datasets, built at its seed, have the fingerprints its
    reference rankings were recorded on.  One reordered hard negative (the
    BM25 mining) changes the corpus, and with it every ranking."""

    REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

    @pytest.mark.parametrize("profile", ["tiny", "small"])
    def test_fingerprint_matches_the_benchmark_reference(self, profile):
        reference = json.loads(self.REFERENCE.read_text(encoding="utf-8"))
        config = getattr(DatasetConfig, profile)(seed=reference["dataset_seed"])
        dataset = build_dataset(config)
        assert dataset.fingerprint() == reference["profiles"][profile]["fingerprint"]
