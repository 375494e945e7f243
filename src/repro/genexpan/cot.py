"""Chain-of-thought reasoning for GenExpan (Section V-B.2, Table VIII).

Before generating entities, the model first reasons about (a) the
fine-grained class name of the positive seeds, (b) the positive attribute
values they share and, optionally, (c) the negative attribute values that
distinguish the negative seeds.  That reasoning is then injected into the
generation prompt.

In this reproduction the reasoning outputs are produced either by the
simulated GPT-4/LLaMA oracle ("Gen" rows of Table VIII: noisy, long-tail
errors) or taken from the dataset's ground-truth annotations ("GT" rows).
The reasoning is consumed through a :class:`ConceptMatcher`: every reasoning
phrase is scored against each candidate entity by lexical overlap with the
candidate's context sentences, and the resulting concept score biases the
entity-selection stage — the corpus-level analogue of the LLM reading the
augmented prompt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.dataset.ultrawiki import UltraWikiDataset
from repro.exceptions import ExpansionError
from repro.kb.schema import ClassSchema, schema_by_name
from repro.lm.oracle import OracleLLM
from repro.text.tokenizer import WordTokenizer
from repro.types import Query

#: tokens too generic to carry attribute signal.
_STOPWORDS = frozenset(
    "the a an is are was were of in on at to by with and or for its it this "
    "that as from not no".split()
)

#: whether the builtin ``sum`` compensates the rounding of a float sum
#: (Neumaier's algorithm, CPython 3.12 and later); the plain left-to-right
#: sum of earlier versions gives 0.0 here.
_SUM_COMPENSATES = sum([1.0, 1e100, 1.0, -1e100]) == 2.0


@dataclass
class CoTInfo:
    """The reasoning produced for one query."""

    class_name: str | None = None
    positive_phrases: list[str] = field(default_factory=list)
    negative_phrases: list[str] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.class_name or self.positive_phrases or self.negative_phrases)


class ConceptMatcher:
    """Scores candidate entities against reasoning phrases by lexical overlap.

    Phrase tokens are weighted by inverse document frequency so that the
    attribute-bearing words ("android", "coastal", ...) dominate the score
    and the template filler ("operating", "system", ...) barely matters.
    """

    def __init__(self, dataset: UltraWikiDataset):
        self._tokenizer = WordTokenizer()
        self._entity_tokens: dict[int, set[str]] = {}
        #: token -> rows (in ascending entity-id order) of the entities whose
        #: contexts hold it; a token's document frequency is its row count.
        token_rows: dict[str, list[int]] = {}
        corpus = dataset.corpus
        for row, entity in enumerate(dataset.entities()):
            tokens: set[str] = set()
            for sentence in corpus.sentences_of(entity.entity_id):
                tokens.update(t for t in corpus.tokens(sentence) if t not in _STOPWORDS)
            self._entity_tokens[entity.entity_id] = tokens
            for token in tokens:
                token_rows.setdefault(token, []).append(row)
        self._entity_ids = np.fromiter(
            self._entity_tokens, dtype=np.int64, count=len(self._entity_tokens)
        )
        self._token_rows = {
            token: np.array(rows, dtype=np.intp) for token, rows in token_rows.items()
        }
        num_entities = max(len(self._entity_tokens), 1)
        self._idf = {
            token: math.log((1.0 + num_entities) / (1.0 + len(rows)))
            for token, rows in token_rows.items()
        }
        self._default_idf = math.log(1.0 + num_entities)

    def _phrase_weights(self, phrase: str) -> dict[str, float]:
        return {
            token: self._idf.get(token, self._default_idf)
            for token in self._tokenizer.tokenize(phrase)
            if token not in _STOPWORDS
        }

    def score(self, entity_id: int, phrase: str) -> float:
        """IDF-weighted fraction of the phrase's tokens found in the entity's contexts."""
        weights = self._phrase_weights(phrase)
        if not weights:
            return 0.0
        entity_tokens = self._entity_tokens.get(entity_id, set())
        matched = sum(weight for token, weight in weights.items() if token in entity_tokens)
        return matched / sum(weights.values())

    def score_batch(self, entity_ids: np.ndarray, phrase: str) -> np.ndarray:
        """:meth:`score` for one phrase across many entities, as an array.

        The phrase is tokenized and IDF-weighted once.  Each token's weight
        is added, in phrase order, into the rows of the entities holding it,
        and the sums are divided by the total weight: per entity the same
        float operations, in the same order, as sequential ``score`` calls.
        From Python 3.12 the builtin ``sum`` in ``score`` compensates its
        rounding (:data:`_SUM_COMPENSATES`), and this repeats that
        compensation step for step.
        """
        entity_ids = np.asarray(entity_ids, dtype=np.int64)
        weights = self._phrase_weights(phrase)
        if not weights:
            return np.zeros(len(entity_ids))
        known = self._entity_ids
        # one extra, never-matched row stands in for an entity without contexts.
        matched = np.zeros(len(known) + 1)
        compensation = np.zeros(len(known) + 1)
        for token, weight in weights.items():
            rows = self._token_rows.get(token)
            if rows is None:
                continue
            if not _SUM_COMPENSATES:
                matched[rows] += weight
                continue
            # the builtin sum's step: t = s + x, c += the rounding error of t
            before = matched[rows]
            after = before + weight
            compensation[rows] += np.where(
                np.abs(before) >= abs(weight),
                (before - after) + weight,
                (weight - after) + before,
            )
            matched[rows] = after
        # sum adds a non-zero, finite compensation once, at the end.
        add = (compensation != 0.0) & np.isfinite(compensation)
        matched[add] += compensation[add]
        rows = np.searchsorted(known, entity_ids)
        found = rows < len(known)
        found[found] = known[rows[found]] == entity_ids[found]
        rows[~found] = len(known)
        return matched[rows] / sum(weights.values())

    def mean_score(self, entity_id: int, phrases: list[str]) -> float:
        if not phrases:
            return 0.0
        return sum(self.score(entity_id, phrase) for phrase in phrases) / len(phrases)


class ChainOfThoughtReasoner:
    """Produces :class:`CoTInfo` for a query according to the configured mode.

    Modes follow Table VIII: ``gt_class``, ``gen_class``, ``gen_class_gen_pos``,
    ``gen_class_gt_pos``, ``gen_class_gen_pos_gen_neg`` and
    ``gen_class_gt_pos_gt_neg``; ``none`` disables reasoning.
    """

    VALID_MODES = (
        "none",
        "gt_class",
        "gen_class",
        "gen_class_gen_pos",
        "gen_class_gt_pos",
        "gen_class_gen_pos_gen_neg",
        "gen_class_gt_pos_gt_neg",
    )

    def __init__(self, dataset: UltraWikiDataset, oracle: OracleLLM, mode: str = "none"):
        if mode not in self.VALID_MODES:
            raise ExpansionError(f"unknown chain-of-thought mode {mode!r}")
        self.dataset = dataset
        self.oracle = oracle
        self.mode = mode

    # -- phrase helpers ----------------------------------------------------------
    def _schema(self, query: Query) -> ClassSchema:
        fine_class = self.dataset.ultra_class(query.class_id).fine_class
        return schema_by_name(fine_class)

    def _assignment_phrases(self, query: Query, assignment: dict[str, str]) -> list[str]:
        """Turn an attribute assignment into natural-language phrases."""
        schema = self._schema(query)
        phrases = []
        for attribute, value in sorted(assignment.items()):
            try:
                phrases.append(schema.phrase(attribute, value))
            except Exception:  # unknown value (oracle confusion): keep raw text
                phrases.append(f"{attribute} {value}")
        return phrases

    # -- reasoning --------------------------------------------------------------------
    def reason(self, query: Query) -> CoTInfo:
        """Produce the reasoning for one query according to ``self.mode``."""
        if self.mode == "none":
            return CoTInfo()
        ultra = self.dataset.ultra_class(query.class_id)
        schema = self._schema(query)
        info = CoTInfo()

        if self.mode == "gt_class":
            info.class_name = schema.description
            return info
        if self.mode == "gen_class":
            info.class_name = self.oracle.infer_class_name(query.positive_seed_ids)
            return info

        # All remaining modes use a generated class name plus attribute reasoning.
        if not self.mode.startswith("gen_class_"):
            raise ExpansionError(f"unknown chain-of-thought mode {self.mode!r}")
        info.class_name = self.oracle.infer_class_name(query.positive_seed_ids)

        if "gt_pos" in self.mode:
            info.positive_phrases = self._assignment_phrases(
                query, dict(ultra.positive_assignment)
            )
        elif "gen_pos" in self.mode:
            inferred = self.oracle.infer_positive_attributes(query.positive_seed_ids)
            info.positive_phrases = self._assignment_phrases(query, inferred)

        if "gt_neg" in self.mode:
            info.negative_phrases = self._assignment_phrases(
                query, dict(ultra.negative_assignment)
            )
        elif "gen_neg" in self.mode:
            inferred = self.oracle.infer_negative_attributes(
                query.positive_seed_ids, query.negative_seed_ids
            )
            info.negative_phrases = self._assignment_phrases(query, inferred)
        return info
