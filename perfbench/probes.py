"""Layer probes for the traced run.

Each probe wraps one public entry point of a layer, counting calls and,
where the layer's time matters, recording each call's duration.  The
wrappers are installed on the classes only while the traced run wants
them and removed afterwards; the program itself is unchanged.

Counts are plain dict increments: they are exact when requests run one at
a time, which is how the traced run makes every count it reports.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

from repro.cluster import ClusterGateway
from repro.gate import AdmissionController, Gate
from repro.lm.causal_lm import CausalEntityLM
from repro.retrieval import PartitionedIndex
from repro.store import ArtifactStore
from repro.text.bm25 import BM25Index
from repro.utils.rng import RandomState

#: (class, public method, probe name, record durations?)
TARGETS = (
    (BM25Index, "search", "text.bm25_search", True),
    (BM25Index, "score", "text.bm25_score", False),
    (CausalEntityLM, "generate_constrained", "lm.generate_constrained", True),
    (CausalEntityLM, "entity_affinity", "lm.entity_affinity", False),
    (RandomState, "child", "rng.child", False),
    (PartitionedIndex, "probe", "retrieval.ann", False),
    (ArtifactStore, "save", "store.save", True),
    (ArtifactStore, "restore", "store.restore", True),
    (Gate, "check", "gate.check", True),
    (AdmissionController, "acquire", "admission.acquire", True),
    (ClusterGateway, "handle", "gateway.handle", True),
)


class Probes:
    def __init__(self):
        self.calls: Counter = Counter()
        #: probe name -> per-call durations in seconds.
        self.seconds: defaultdict[str, list[float]] = defaultdict(list)
        self._originals: list[tuple[type, str, object]] = []

    def install(self) -> None:
        for owner, attribute, name, timed in TARGETS:
            original = owner.__dict__[attribute]
            if not inspect.isfunction(original):
                raise TypeError(f"{owner.__name__}.{attribute} is not a plain method")
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, timed))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def reset(self) -> None:
        # cleared in place: the installed wrappers hold these objects.
        self.calls.clear()
        self.seconds.clear()

    def _wrap(self, original, name: str, timed: bool):
        calls, seconds = self.calls, self.seconds
        if not timed:

            @functools.wraps(original)
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        @functools.wraps(original)
        def timed_call(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[name].append(time.perf_counter() - started)
                calls[name] += 1

        return timed_call
