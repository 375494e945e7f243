"""Token vocabulary with special tokens and frequency-based construction."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from repro.exceptions import VocabularyError

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
MASK_TOKEN = "[MASK]"
BOS_TOKEN = "[BOS]"
EOS_TOKEN = "[EOS]"

SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN, BOS_TOKEN, EOS_TOKEN)


class Vocabulary:
    """A bidirectional token ↔ id mapping.

    Ids 0..4 are reserved for the special tokens; the remaining ids are
    assigned by descending frequency (ties broken alphabetically) so the
    mapping is deterministic for a given corpus.
    """

    def __init__(self, tokens: Iterable[str] = ()):
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: list[str] = []
        for token in SPECIAL_TOKENS:
            self._add(token)
        for token in tokens:
            self.add(token)

    # -- construction --------------------------------------------------------
    def _add(self, token: str) -> int:
        token_id = len(self._id_to_token)
        self._token_to_id[token] = token_id
        self._id_to_token.append(token)
        return token_id

    def add(self, token: str) -> int:
        """Add ``token`` if absent; return its id."""
        existing = self._token_to_id.get(token)
        if existing is not None:
            return existing
        return self._add(token)

    @classmethod
    def from_token_lists(
        cls, token_lists: Iterable[list[str]], min_count: int = 1, max_size: int | None = None
    ) -> "Vocabulary":
        """Build a vocabulary from an iterable of token lists.

        Tokens appearing fewer than ``min_count`` times are dropped; if
        ``max_size`` is given only the most frequent tokens are kept.
        """
        counts: Counter[str] = Counter()
        for tokens in token_lists:
            counts.update(tokens)
        items = [(t, c) for t, c in counts.items() if c >= min_count and t not in SPECIAL_TOKENS]
        items.sort(key=lambda pair: (-pair[1], pair[0]))
        if max_size is not None:
            items = items[: max(0, max_size - len(SPECIAL_TOKENS))]
        return cls(token for token, _ in items)

    # -- lookup ---------------------------------------------------------------
    def id_of(self, token: str) -> int:
        """Id of ``token``, or the [UNK] id when unknown."""
        return self._token_to_id.get(token, self._token_to_id[UNK_TOKEN])

    def strict_id_of(self, token: str) -> int:
        """Id of ``token``; raises :class:`VocabularyError` when unknown."""
        try:
            return self._token_to_id[token]
        except KeyError as exc:
            raise VocabularyError(f"unknown token {token!r}") from exc

    def token_of(self, token_id: int) -> str:
        try:
            return self._id_to_token[token_id]
        except IndexError as exc:
            raise VocabularyError(f"unknown token id {token_id}") from exc

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """:meth:`id_of` of every token."""
        unknown = self._token_to_id[UNK_TOKEN]
        return [self._token_to_id.get(token, unknown) for token in tokens]

    def decode(self, token_ids: Iterable[int]) -> list[str]:
        return [self.token_of(i) for i in token_ids]

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_token)

    @property
    def pad_id(self) -> int:
        return self._token_to_id[PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self._token_to_id[UNK_TOKEN]

    @property
    def mask_id(self) -> int:
        return self._token_to_id[MASK_TOKEN]

    @property
    def bos_id(self) -> int:
        return self._token_to_id[BOS_TOKEN]

    @property
    def eos_id(self) -> int:
        return self._token_to_id[EOS_TOKEN]
