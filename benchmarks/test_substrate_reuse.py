"""Substrate reuse — the fit-time and memory win of the shared layer.

Before the substrate layer every embeddings-backed method refitted the
PPMI-SVD co-occurrence embeddings privately, and a process holding all seven
methods held up to seven private substrate copies.  This benchmark measures
both claims directly:

* **fit time** — fitting the *second* embeddings-backed method (CaSE after
  CGExpan) on a shared pool skips the co-occurrence substrate entirely (it
  is fitted once) and is faster than fitting it cold on a private pool;
* **memory (RSS proxy)** — with every registered method loaded in one
  registry, the provider holds exactly one instance each of the
  co-occurrence embeddings, the entity representations and the causal LM
  instead of one private copy per method.

Counts are taken per substrate kind: the ANN indexes (kind ``ann_index``)
are keyed by each method's own slice of the vectors, so their number
follows the methods loaded and is reported separately.

A dedicated ``tiny`` dataset is built instead of reusing the session-scoped
small context: the cold path must pay the full substrate cost, which the
shared context has already amortised.
"""

from __future__ import annotations

import time

from repro.config import DatasetConfig
from repro.core.resources import SharedResources
from repro.dataset.builder import build_dataset
from repro.serve import ExpanderRegistry
from repro.serve.registry import DEFAULT_FACTORIES
from repro.substrate import (
    ANN_INDEX,
    CAUSAL_LM,
    COOCCURRENCE_EMBEDDINGS,
    ENTITY_REPRESENTATIONS,
)

#: the substrates every method shares: exactly one instance each.
SHARED_KINDS = (COOCCURRENCE_EMBEDDINGS, ENTITY_REPRESENTATIONS, CAUSAL_LM)


def run_substrate_reuse_benchmark() -> dict:
    dataset = build_dataset(DatasetConfig.tiny(seed=13))

    # Cold: a private pool pays the co-occurrence fit inside the method fit.
    cold_pool = SharedResources(dataset)
    started = time.perf_counter()
    DEFAULT_FACTORIES["case"](cold_pool).fit(dataset)
    cold_s = time.perf_counter() - started

    # Warm: CGExpan pays the substrate once, then CaSE reuses it.
    shared_pool = SharedResources(dataset)
    DEFAULT_FACTORIES["cgexpan"](shared_pool).fit(dataset)
    started = time.perf_counter()
    DEFAULT_FACTORIES["case"](shared_pool).fit(dataset)
    warm_s = time.perf_counter() - started
    shared = shared_pool.provider
    shared_stats = shared.stats()

    # RSS proxy: all methods resident, substrate instances counted per kind.
    registry = ExpanderRegistry(dataset)
    for method in registry.methods():
        registry.get(method)
    provider = registry.resources.provider

    return {
        "cold_second_method_fit_s": cold_s,
        "warm_second_method_fit_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        # no store behind the pool: every resident substrate is one fit
        "substrate_fits_after_two_methods": shared_stats["fits"],
        "resident_after_two_methods": shared.resident_count(),
        "cooccurrence_fits_after_two_methods": shared.resident_count(
            COOCCURRENCE_EMBEDDINGS
        ),
        "substrate_hits_after_two_methods": shared_stats["hits"],
        "resident_all_methods": {
            kind: provider.resident_count(kind) for kind in (*SHARED_KINDS, ANN_INDEX)
        },
        "methods_loaded": len(registry.methods()),
    }


def test_substrate_reuse_skips_the_second_fit(benchmark):
    result = benchmark.pedantic(
        run_substrate_reuse_benchmark, args=(), rounds=1, iterations=1
    )
    # Hard guarantees (deterministic counters, not wall-clock):
    assert (
        result["substrate_fits_after_two_methods"] == result["resident_after_two_methods"]
    ), "a substrate was fitted twice"
    assert result["cooccurrence_fits_after_two_methods"] == 1, (
        "the second embeddings-backed method must reuse, not refit"
    )
    assert result["substrate_hits_after_two_methods"] >= 1
    # One co-occurrence + one entity-representations + one causal LM for the
    # whole resident fleet (was: up to one private copy per method).
    resident = result["resident_all_methods"]
    assert {kind: resident[kind] for kind in SHARED_KINDS} == dict.fromkeys(SHARED_KINDS, 1)
    # One ANN index per distinct vector slice: CGExpan and CaSE share the
    # co-occurrence slice, RetExpan's and ProbExpan's vectors get one each.
    assert resident[ANN_INDEX] == 3
    # Wall-clock: the warm second fit skips the substrate cost entirely.
    assert result["warm_second_method_fit_s"] < result["cold_second_method_fit_s"], (
        f"warm fit {result['warm_second_method_fit_s']:.2f}s did not beat "
        f"cold fit {result['cold_second_method_fit_s']:.2f}s"
    )
    print(
        f"\nsecond embeddings-backed method: cold "
        f"{result['cold_second_method_fit_s']:.2f}s vs warm "
        f"{result['warm_second_method_fit_s']:.2f}s "
        f"({result['speedup']:.1f}x); resident substrates with "
        f"{result['methods_loaded']} methods loaded: {resident}"
    )
