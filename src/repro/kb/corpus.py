"""Corpus container: sentences, entity mentions, and derived indexes."""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator

from repro.exceptions import DatasetError
from repro.text.bm25 import BM25Index
from repro.text.tokenizer import MASK_TOKEN, WordTokenizer
from repro.types import Sentence
from repro.utils.iox import read_jsonl, write_jsonl

_TOKENIZER = WordTokenizer()


class Corpus:
    """Holds the sentence collection and entity → sentence alignment.

    The corpus supports the two access patterns the models need:

    * ``sentences_of(entity_id)`` — all sentences mentioning an entity
      (the paper aligns these through Wikipedia hyperlinks);
    * ``masked_text(sentence, entity)`` — the sentence with the entity
      mention replaced by ``[MASK]``, the input of the context encoder.

    ``tokens(sentence)`` tokenizes each sentence's plain text once for every
    model fitted on the corpus.
    """

    def __init__(self, sentences: Iterable[Sentence] = ()):
        self._sentences: dict[int, Sentence] = {}
        self._by_entity: dict[int, list[int]] = defaultdict(list)
        #: sentence id -> its plain-text tokens.  Never invalidated: ``add``
        #: refuses a known id and a ``Sentence`` is frozen.
        self._tokens: dict[int, tuple[str, ...]] = {}
        for sentence in sentences:
            self.add(sentence)

    # -- construction --------------------------------------------------------
    def add(self, sentence: Sentence) -> None:
        if sentence.sentence_id in self._sentences:
            raise DatasetError(f"duplicate sentence id {sentence.sentence_id}")
        self._sentences[sentence.sentence_id] = sentence
        for entity_id in sentence.entity_ids:
            self._by_entity[entity_id].append(sentence.sentence_id)

    # -- access ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self._sentences.values())

    def sentence(self, sentence_id: int) -> Sentence:
        try:
            return self._sentences[sentence_id]
        except KeyError as exc:
            raise DatasetError(f"unknown sentence id {sentence_id}") from exc

    def sentences_of(self, entity_id: int) -> list[Sentence]:
        """All sentences mentioning ``entity_id`` (may be empty)."""
        return [self._sentences[sid] for sid in self._by_entity.get(entity_id, [])]

    def entity_mention_counts(self) -> dict[int, int]:
        """Number of sentences mentioning each entity."""
        return {entity_id: len(sids) for entity_id, sids in self._by_entity.items()}

    def tokens(self, sentence: Sentence) -> tuple[str, ...]:
        """The default :class:`WordTokenizer`'s tokens of one sentence of this
        corpus, tokenized on first use and kept (the strings interned: the
        vocabulary is small, the corpus large)."""
        tokens = self._tokens.get(sentence.sentence_id)
        if tokens is None:
            tokens = tuple(map(sys.intern, _TOKENIZER.tokenize(sentence.text)))
            self._tokens[sentence.sentence_id] = tokens
        return tokens

    @staticmethod
    def masked_text(sentence: Sentence, entity_name: str) -> str:
        """The sentence text with ``entity_name`` replaced by ``[MASK]``.

        If the surface form does not appear verbatim (should not happen with
        the synthetic generator) the mask token is prepended so the encoder
        still has a mask position to read.
        """
        if entity_name and entity_name in sentence.text:
            return sentence.text.replace(entity_name, MASK_TOKEN)
        return f"{MASK_TOKEN} {sentence.text}"

    # -- derived indexes -------------------------------------------------------
    def build_bm25(self) -> BM25Index:
        """Build a BM25 index over all sentences."""
        index = BM25Index()
        for sentence in self:
            index.add_document(sentence.sentence_id, self.tokens(sentence))
        return index

    # -- persistence -----------------------------------------------------------
    def save(self, path: str | Path) -> int:
        """Persist the corpus as JSON lines; returns the number of rows."""
        return write_jsonl(path, (s.to_dict() for s in self))

    @classmethod
    def load(cls, path: str | Path) -> "Corpus":
        return cls(Sentence.from_dict(row) for row in read_jsonl(path))
