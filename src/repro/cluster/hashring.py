"""Consistent hashing for shard routing.

The gateway routes every request whose work is method-affine — expansions
and fits — by the key ``"<method>|<dataset fingerprint>"`` so that one
worker owns each method's fitted expander and result cache.  A consistent
hash ring gives that assignment two properties a plain ``hash(key) % N``
cannot:

* **stability** — the mapping depends only on the worker ids and the key,
  never on process state, so every gateway (and every restart of the same
  gateway) routes identically; and
* **minimal movement** — removing a worker reassigns only the keys that
  worker owned; every other key keeps its shard, so failover does not dump
  every worker's hot registry/cache.

Each node is placed on the ring at ``virtual_nodes`` pseudo-random points
(derived from ``sha1(node + "#" + i)``) so load spreads evenly even with a
handful of workers.  :meth:`preference` returns *all* nodes in ring order
from the key's position — the failover order: the first entry is the owner,
the rest are the successors a gateway walks when the owner is down.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

from repro.exceptions import ServiceError

#: ring points per node; 64 keeps the load spread within a few percent for
#: small fleets while the ring stays tiny (N * 64 ints).
DEFAULT_VIRTUAL_NODES = 64


def _point(label: str) -> int:
    """A stable 64-bit ring position for ``label`` (first 8 sha1 bytes)."""
    digest = hashlib.sha1(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """An immutable consistent-hash ring over named nodes."""

    def __init__(self, nodes: Iterable[str], virtual_nodes: int = DEFAULT_VIRTUAL_NODES):
        self.virtual_nodes = int(virtual_nodes)
        if self.virtual_nodes < 1:
            raise ServiceError("virtual_nodes must be >= 1")
        self.nodes: tuple[str, ...] = tuple(dict.fromkeys(nodes))  # de-dup, keep order
        if not self.nodes:
            raise ServiceError("a hash ring needs at least one node")
        points: list[tuple[int, str]] = []
        for node in self.nodes:
            for replica in range(self.virtual_nodes):
                points.append((_point(f"{node}#{replica}"), node))
        points.sort()
        self._points = [point for point, _node in points]
        self._owners = [node for _point, node in points]

    def __len__(self) -> int:
        return len(self.nodes)

    def route(self, key: str) -> str:
        """The node that owns ``key``."""
        index = bisect.bisect_right(self._points, _point(key)) % len(self._points)
        return self._owners[index]

    def preference(self, key: str) -> list[str]:
        """All nodes in failover order for ``key``: owner first, then the
        distinct successors walking the ring clockwise."""
        start = bisect.bisect_right(self._points, _point(key)) % len(self._points)
        ordered: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            node = self._owners[(start + offset) % len(self._points)]
            if node not in seen:
                seen.add(node)
                ordered.append(node)
                if len(ordered) == len(self.nodes):
                    break
        return ordered

    def without(self, node: str) -> "HashRing":
        """A new ring with ``node`` removed (used by tests to check minimal
        key movement; gateways keep the full ring and skip down nodes)."""
        remaining = [n for n in self.nodes if n != node]
        return HashRing(remaining, virtual_nodes=self.virtual_nodes)


def shard_key(method: str, fingerprint: str = "") -> str:
    """The routing key for method-affine work on one dataset."""
    return f"{method.strip().lower()}|{fingerprint}"
