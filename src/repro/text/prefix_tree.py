"""Prefix tree (trie) over entity token sequences.

GenExpan constrains beam-search decoding so that only candidate entities can
be generated (Section V-B.1, Figure 6).  The tree maps token prefixes to the
set of tokens allowed next; a complete root-to-leaf path spells exactly one
candidate entity.

Every node keeps the sorted names reachable below it, updated along the
inserted path, so the decoder's per-token "which entities can this prefix
still become" lookup is a walk plus a list copy instead of a subtree search
and sort.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class _Node:
    children: dict[str, "_Node"] = field(default_factory=dict)
    #: entity name terminating at this node (None for internal-only nodes).
    terminal: str | None = None
    #: sorted names terminating at this node or below it.
    reachable: list[str] = field(default_factory=list)


class PrefixTree:
    """A trie over tokenised entity names."""

    def __init__(self):
        self._root = _Node()
        self._size = 0

    # -- construction --------------------------------------------------------
    def insert(self, tokens: Sequence[str], name: str) -> None:
        """Insert the token path ``tokens`` terminating in entity ``name``."""
        if not tokens:
            raise ValueError("cannot insert an empty token sequence")
        path = [self._root]
        for token in tokens:
            path.append(path[-1].children.setdefault(token, _Node()))
        node = path[-1]
        replaced = node.terminal
        if replaced is None:
            self._size += 1
        node.terminal = name
        for ancestor in path:
            if replaced is not None:
                names = ancestor.reachable
                del names[bisect_left(names, replaced)]
            insort(ancestor.reachable, name)

    @classmethod
    def from_entities(
        cls, names: Iterable[str], tokenizer
    ) -> "PrefixTree":
        """Build a tree from entity surface forms using ``tokenizer``."""
        tree = cls()
        for name in names:
            tokens = tokenizer.tokenize_entity_name(name)
            if tokens:
                tree.insert(tokens, name)
        return tree

    # -- queries --------------------------------------------------------------
    def _walk(self, prefix: Sequence[str]) -> _Node | None:
        node = self._root
        for token in prefix:
            node = node.children.get(token)
            if node is None:
                return None
        return node

    def allowed_next(self, prefix: Sequence[str]) -> list[str]:
        """Tokens allowed after ``prefix`` (empty when the prefix is invalid)."""
        node = self._walk(prefix)
        if node is None:
            return []
        return sorted(node.children.keys())

    def is_complete(self, prefix: Sequence[str]) -> bool:
        """True when ``prefix`` spells a complete candidate entity."""
        node = self._walk(prefix)
        return node is not None and node.terminal is not None

    def entity_at(self, prefix: Sequence[str]) -> str | None:
        """Entity name terminating at ``prefix``, or None."""
        node = self._walk(prefix)
        return node.terminal if node is not None else None

    def contains_prefix(self, prefix: Sequence[str]) -> bool:
        """True when ``prefix`` is a valid (possibly partial) path."""
        return self._walk(prefix) is not None

    def entities_with_prefix(self, prefix: Sequence[str]) -> list[str]:
        """All entity names reachable from ``prefix`` (sorted)."""
        node = self._walk(prefix)
        if node is None:
            return []
        return list(node.reachable)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, tokens: Sequence[str]) -> bool:
        return self.is_complete(tokens)
