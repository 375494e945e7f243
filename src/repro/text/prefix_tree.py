"""Prefix tree (trie) over entity token sequences.

GenExpan constrains beam-search decoding so that only candidate entities can
be generated (Section V-B.1, Figure 6).  The tree maps token prefixes to the
set of tokens allowed next; a complete root-to-leaf path spells exactly one
candidate entity.

Every node keeps the sorted names reachable below it, updated along the
inserted path.  :meth:`PrefixTree.compile` lays the tree out as arrays (one
row per node), which is what the batched beam search reads: a beam carries
its node id, so no lookup walks from the root.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np


@dataclass
class _Node:
    children: dict[str, "_Node"] = field(default_factory=dict)
    #: entity name terminating at this node (None for internal-only nodes).
    terminal: str | None = None
    #: sorted names terminating at this node or below it.
    reachable: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class CompiledPrefixTree:
    """A :class:`PrefixTree` as arrays, one row per node (the root is 0).

    The children of node ``i`` are ``child_nodes[child_offsets[i]:
    child_offsets[i + 1]]`` in sorted-token order, spelled by the token ids
    ``child_tokens`` of the same slice.  ``terminals[i]`` is the name ending
    at node ``i`` (or None), and ``reachable[i]`` holds the positions of the
    first ``width`` names reachable from it that have one, padded with -1.
    """

    child_offsets: np.ndarray
    child_nodes: np.ndarray
    child_tokens: np.ndarray
    terminals: list[str | None]
    reachable: np.ndarray


class PrefixTree:
    """A trie over tokenised entity names."""

    def __init__(self):
        self._root = _Node()
        self._size = 0
        #: bumped by every :meth:`insert`, so a compiled copy keyed on this
        #: tree can tell it went stale.
        self.version = 0

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
        self.version += 1

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

    def compile(
        self,
        token_ids: Mapping[str, int],
        unknown_id: int,
        name_positions: Mapping[str, int],
        width: int,
    ) -> CompiledPrefixTree:
        """This tree as a :class:`CompiledPrefixTree`.

        Tokens map through ``token_ids`` (``unknown_id`` when absent); each
        node's ``reachable`` row keeps, of its first ``width`` reachable
        names, those in ``name_positions``, as their positions.
        """
        nodes = [self._root]
        offsets = [0]
        child_nodes: list[int] = []
        child_tokens: list[int] = []
        # breadth-first: a node's id is its index in ``nodes``.
        for node in nodes:
            for token in sorted(node.children):
                child_nodes.append(len(nodes))
                child_tokens.append(token_ids.get(token, unknown_id))
                nodes.append(node.children[token])
            offsets.append(len(child_nodes))
        reachable = []
        for node in nodes:
            positions = [
                name_positions[name] for name in node.reachable[:width] if name in name_positions
            ]
            reachable.append(positions + [-1] * (width - len(positions)))
        return CompiledPrefixTree(
            child_offsets=np.array(offsets, dtype=np.int64),
            child_nodes=np.array(child_nodes, dtype=np.int64),
            child_tokens=np.array(child_tokens, dtype=np.int64),
            terminals=[node.terminal for node in nodes],
            reachable=np.array(reachable, dtype=np.int64).reshape(len(nodes), width),
        )

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
