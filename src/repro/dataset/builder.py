"""The four-step UltraWiki construction pipeline (Section IV-A).

Step 1 — semantic classes and entities collection: instantiate the ten
fine-grained class schemas and mint their entities plus a distractor pool
("entities sampled from Wikipedia pages").

Step 2 — entity-labelled sentence collection: generate context sentences for
every entity; BM25-mined hard distractors additionally receive sentences that
mimic the class wording so they are textually confusable with real targets.

Step 3 — entity attribute annotation: query the simulated Wikidata client for
attribute values and fall back to the three-annotator simulation for the
remainder; the resulting labels (not the generator's hidden ground truth) are
what the ultra-fine-grained classes are built from, exactly as in the paper.

Step 4 — negative-aware semantic class generation: enumerate and sample
(A_pos, A_neg) configurations, materialise P and N, and sample queries.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace

from repro.config import DatasetConfig
from repro.dataset.queries import QueryGenerator
from repro.dataset.semantic_class import SemanticClassGenerator
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.exceptions import DatasetError
from repro.kb.corpus import Corpus
from repro.kb.generator import EntityGenerator
from repro.kb.schema import ClassSchema, default_schemas
from repro.kb.sentences import SentenceGenerator
from repro.kb.wikidata import AnnotationSimulator, WikidataClient
from repro.text.tokenizer import WordTokenizer
from repro.types import Entity, FineGrainedClass, Sentence
from repro.utils.rng import RandomState


class UltraWikiBuilder:
    """Builds a synthetic UltraWiki dataset from a :class:`DatasetConfig`."""

    def __init__(self, config: DatasetConfig | None = None):
        self.config = config or DatasetConfig()
        self.config.validate()
        self._rng = RandomState(self.config.seed)
        self._tokenizer = WordTokenizer()

    # -- step 1 -----------------------------------------------------------------
    def _collect_entities(
        self, schemas: list[ClassSchema]
    ) -> tuple[list[Entity], list[Entity]]:
        generator = EntityGenerator(self._rng.child("generator"))
        class_entities: list[Entity] = []
        for schema in schemas:
            class_entities.extend(
                generator.generate_class_entities(
                    schema,
                    self.config.entities_per_class,
                    long_tail_fraction=self.config.long_tail_fraction,
                )
            )
        distractors = generator.generate_distractors(self.config.num_distractors)
        return class_entities, distractors

    # -- step 2 -----------------------------------------------------------------
    def _collect_sentences(
        self,
        class_entities: list[Entity],
        distractors: list[Entity],
        schemas: dict[str, ClassSchema],
    ) -> tuple[Corpus, set[int]]:
        sentence_gen = SentenceGenerator(self._rng.child("sentences"))
        sentences = sentence_gen.generate_corpus(
            class_entities + distractors, schemas, self.config.sentences_per_entity
        )
        corpus = Corpus(sentences)
        hard_negative_ids = self._mine_hard_negatives(
            corpus, class_entities, distractors, schemas
        )
        return corpus, hard_negative_ids

    def _mine_hard_negatives(
        self,
        corpus: Corpus,
        class_entities: list[Entity],
        distractors: list[Entity],
        schemas: dict[str, ClassSchema],
    ) -> set[int]:
        """BM25-mine distractors similar to each class and make them harder.

        The paper incorporates entities highly similar to the targets as hard
        negatives in the candidate vocabulary.  Here, for each fine-grained
        class, the distractor sentences most similar (by BM25) to the class's
        generic wording are identified and those distractors receive extra
        sentences phrased with the class's generic templates, so that they
        become textually confusable with genuine class members while having no
        attribute annotations.
        """
        if self.config.hard_negatives_per_class <= 0 or not distractors:
            return set()
        rng = self._rng.child("hard_negatives")
        bm25 = corpus.build_bm25()
        sentence_to_entity = {
            sentence.sentence_id: sentence.entity_ids[0] for sentence in corpus
        }
        distractor_ids = {d.entity_id for d in distractors}
        hard_ids: set[int] = set()
        next_sentence_id = max(s.sentence_id for s in corpus) + 1

        for schema in schemas.values():
            query_text = " ".join(schema.generic_templates).replace("{name}", "")
            query_tokens = self._tokenizer.tokenize(query_text)
            ranked = bm25.search(query_tokens, top_k=len(sentence_to_entity))
            chosen: list[int] = []
            for sentence_id, _score in ranked:
                entity_id = sentence_to_entity[sentence_id]
                if entity_id in distractor_ids and entity_id not in chosen:
                    chosen.append(entity_id)
                if len(chosen) >= self.config.hard_negatives_per_class:
                    break
            for entity_id in chosen:
                hard_ids.add(entity_id)
                entity = next(d for d in distractors if d.entity_id == entity_id)
                template = schema.generic_templates[
                    rng.integers(0, len(schema.generic_templates))
                ]
                corpus.add(
                    Sentence(
                        sentence_id=next_sentence_id,
                        text=template.format(name=entity.name),
                        entity_ids=(entity_id,),
                    )
                )
                next_sentence_id += 1
        return hard_ids

    # -- step 3 -----------------------------------------------------------------
    def _annotate_attributes(
        self, class_entities: list[Entity], schemas: dict[str, ClassSchema]
    ) -> tuple[list[Entity], dict]:
        """Annotate attribute values via Wikidata + simulated human annotation.

        Returns new entity objects whose ``attributes`` hold the *annotated*
        values (which may rarely differ from ground truth due to annotation
        noise), plus an annotation report for the metadata block.
        """
        wikidata = WikidataClient(
            class_entities, self.config.wikidata_coverage, self._rng.child("wikidata")
        )
        manual_items: list[tuple[Entity, str, tuple[str, ...]]] = []
        annotated_values: dict[tuple[int, str], str] = {}
        for entity in class_entities:
            schema = schemas[entity.fine_class]
            for attribute in entity.attributes:
                value = wikidata.query(entity.entity_id, attribute)
                if value is not None:
                    annotated_values[(entity.entity_id, attribute)] = value
                else:
                    manual_items.append(
                        (entity, attribute, schema.attributes[attribute])
                    )
        annotator = AnnotationSimulator(self._rng.child("annotators"))
        report = annotator.annotate(manual_items)
        annotated_values.update(report.labels)

        annotated_entities = [
            dataclass_replace(
                entity,
                attributes={
                    attribute: annotated_values[(entity.entity_id, attribute)]
                    for attribute in entity.attributes
                },
            )
            for entity in class_entities
        ]
        annotation_meta = {
            "wikidata_statements": wikidata.num_statements(),
            "manual_items": report.num_items,
            "annotator_agreement": report.agreement,
        }
        return annotated_entities, annotation_meta

    # -- step 4 -----------------------------------------------------------------
    def _generate_classes_and_queries(
        self,
        schemas: list[ClassSchema],
        class_entities: list[Entity],
    ):
        class_gen = SemanticClassGenerator(
            self._rng.child("semantic_classes"),
            min_targets=self.config.min_targets,
            max_classes_per_fine_class=self.config.max_ultra_classes_per_fine_class,
        )
        query_gen = QueryGenerator(
            self._rng.child("query_gen"),
            queries_per_class=self.config.queries_per_class,
            min_seeds=self.config.min_seeds,
            max_seeds=self.config.max_seeds,
        )
        entities_by_class: dict[str, list[Entity]] = {}
        for entity in class_entities:
            entities_by_class.setdefault(entity.fine_class, []).append(entity)
        entities_by_id = {entity.entity_id: entity for entity in class_entities}

        ultra_classes = []
        for schema in schemas:
            ultra_classes.extend(
                class_gen.generate(schema, entities_by_class.get(schema.name, []))
            )
        queries = query_gen.generate(ultra_classes, entities_by_id)
        # Drop classes that ended up with no queries so every class in the
        # dataset is actually evaluable.
        queried_class_ids = {query.class_id for query in queries}
        ultra_classes = [uc for uc in ultra_classes if uc.class_id in queried_class_ids]
        return ultra_classes, queries

    # -- public API ----------------------------------------------------------------
    def build(self) -> UltraWikiDataset:
        """Run all four steps and return the dataset."""
        schemas = default_schemas(limit=self.config.num_fine_classes)
        schema_map = {schema.name: schema for schema in schemas}

        raw_class_entities, distractors = self._collect_entities(schemas)
        corpus, hard_negative_ids = self._collect_sentences(
            raw_class_entities, distractors, schema_map
        )
        class_entities, annotation_meta = self._annotate_attributes(
            raw_class_entities, schema_map
        )
        ultra_classes, queries = self._generate_classes_and_queries(
            schemas, class_entities
        )
        if not ultra_classes:
            raise DatasetError(
                "no ultra-fine-grained classes could be generated; "
                "increase entities_per_class or lower min_targets"
            )

        fine_classes = [
            FineGrainedClass(
                name=schema.name,
                description=schema.description,
                attributes=dict(schema.attributes),
            )
            for schema in schemas
        ]
        metadata = {
            "config": self.config.to_dict(),
            "annotation": annotation_meta,
            "hard_negative_ids": sorted(hard_negative_ids),
        }
        return UltraWikiDataset(
            entities=class_entities + distractors,
            corpus=corpus,
            fine_classes=fine_classes,
            ultra_classes=ultra_classes,
            queries=queries,
            metadata=metadata,
        )


def build_dataset(config: DatasetConfig | None = None) -> UltraWikiDataset:
    """Convenience wrapper: build an UltraWiki dataset from ``config``."""
    return UltraWikiBuilder(config).build()
