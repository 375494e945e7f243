"""Tests for the shared substrate layer (:mod:`repro.substrate`).

Covers substrate identity (keys, params hashing, content addresses), the
provider's fit-once/restore/write-through behaviour, content-addressed
substrate artifacts in the store with method-manifest back-references,
reference-aware GC (the regression satellite: GC never deletes a substrate a
surviving method manifest references, and never strands an orphan), the
fit-once acceptance criterion for embeddings-backed methods, and the trace
spans a cold fit records phase by phase.
"""

from __future__ import annotations

import pytest

from repro.core.resources import SharedResources
from repro.exceptions import (
    ArtifactCorruptError,
    StoreError,
    SubstrateError,
)
from repro.lm.causal_lm import CausalEntityLM
from repro.lm.context_encoder import ContextEncoder
from repro.lm.embeddings import CooccurrenceEmbeddings
from repro.obs import Trace, activate
from repro.serve import ExpanderRegistry
from repro.store import ArtifactStore
from repro.substrate import (
    COOCCURRENCE_EMBEDDINGS,
    SubstrateKey,
    SubstrateProvider,
    hash_params,
)


def _count_fits(monkeypatch, cls=CooccurrenceEmbeddings):
    """Wrap ``cls.fit`` with an invocation counter."""
    calls = []
    original = cls.fit

    def counting_fit(self, *args, **kwargs):
        calls.append(type(self).__name__)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "fit", counting_fit)
    return calls


def _forbid_fits(monkeypatch):
    def boom(*args, **kwargs):  # pragma: no cover - only hit on failure
        raise AssertionError("a restore path invoked an expensive fit")

    monkeypatch.setattr(ContextEncoder, "fit", boom)
    monkeypatch.setattr(CausalEntityLM, "fit", boom)
    monkeypatch.setattr(CooccurrenceEmbeddings, "fit", boom)


class TestSubstrateIdentity:
    def test_params_hash_is_order_independent(self):
        assert hash_params({"a": 1, "b": 2}) == hash_params({"b": 2, "a": 1})
        assert hash_params({"a": 1}) != hash_params({"a": 2})

    def test_params_must_be_json_native(self):
        with pytest.raises(SubstrateError):
            hash_params({"bad": object()})

    def test_content_hash_separates_kind_dataset_and_params(self):
        base = SubstrateKey("cooccurrence_embeddings", "fp", "p")
        assert base.content_hash != SubstrateKey("causal_lm", "fp", "p").content_hash
        assert base.content_hash != SubstrateKey(base.kind, "fp2", "p").content_hash
        assert base.content_hash != SubstrateKey(base.kind, "fp", "p2").content_hash
        assert base.to_ref() == {
            "kind": base.kind,
            "content_hash": base.content_hash,
            "params_hash": "p",
        }

    def test_unknown_kind_is_rejected(self, tiny_dataset):
        provider = SubstrateProvider(tiny_dataset)
        with pytest.raises(SubstrateError):
            provider.key("teleporter", {})


class TestProviderSharing:
    def test_get_builds_once_and_shares_the_instance(self, tiny_dataset, monkeypatch):
        calls = _count_fits(monkeypatch)
        resources = SharedResources(tiny_dataset)
        first = resources.cooccurrence_embeddings()
        second = resources.cooccurrence_embeddings()
        assert first is second
        assert calls == ["CooccurrenceEmbeddings"]
        stats = resources.provider.stats()
        assert stats["fits"] == 1 and stats["hits"] >= 1
        assert stats["resident"] == 1

    def test_adopt_never_replaces_resident_state(self, tiny_dataset):
        resources = SharedResources(tiny_dataset)
        built = resources.cooccurrence_embeddings()
        other = CooccurrenceEmbeddings(dim=resources.encoder_config.embedding_dim)
        resources.provider.adopt(
            COOCCURRENCE_EMBEDDINGS, resources.cooccurrence_params(), other
        )
        assert resources.cooccurrence_embeddings() is built

    def test_write_through_then_restore_without_refit(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path)
        producer = SharedResources(tiny_dataset, store=store)
        fitted = producer.cooccurrence_embeddings()
        assert store.stats()["substrates"] == 1

        _forbid_fits(monkeypatch)
        consumer = SharedResources(tiny_dataset, store=store)
        restored = consumer.cooccurrence_embeddings()
        assert restored is not fitted
        stats = consumer.provider.stats()
        assert stats["fits"] == 0 and stats["restores"] == 1
        # The restored copy is bitwise identical to the fitted one.
        import numpy as np

        for eid, vector in fitted.entity_vectors().items():
            assert np.array_equal(vector, restored.entity_vector(eid))

    def test_corrupt_substrate_artifact_refits_and_republishes(
        self, tiny_dataset, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        producer = SharedResources(tiny_dataset, store=store)
        producer.cooccurrence_embeddings()
        info = store.ls_substrates()[0]
        # Tamper with a state file so the checksum verification fails.
        state_dir = store.substrate_dir(info.kind, info.content_hash) / "state"
        (state_dir / "token_vectors.npy").write_bytes(b"garbage")

        consumer = SharedResources(tiny_dataset, store=store)
        consumer.cooccurrence_embeddings()
        stats = consumer.provider.stats()
        assert stats["store_errors"] == 1
        assert stats["fits"] == 1 and stats["publishes"] == 1
        # The refit republished a good artifact.
        store.verify_substrate(info.kind, info.content_hash)

    def test_single_process_fit_lock_counters(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        resources = SharedResources(tiny_dataset, store=store)
        resources.cooccurrence_embeddings()
        lock_stats = resources.provider.stats()["fit_lock"]
        assert lock_stats["enabled"] is True
        assert lock_stats["acquires"] == 1 and lock_stats["timeouts"] == 0


class TestStoreSubstrateArtifacts:
    def test_save_substrate_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        writes = []

        def writer(state_dir):
            writes.append(1)
            (state_dir / "payload.json").write_text("{}")

        first = store.save_substrate("cooccurrence_embeddings", "a" * 16, "fp", "ph", writer)
        second = store.save_substrate("cooccurrence_embeddings", "a" * 16, "fp", "ph", writer)
        assert writes == [1]
        assert first.content_hash == second.content_hash
        assert store.contains_substrate("cooccurrence_embeddings", "a" * 16)
        assert len(store.ls_substrates()) == 1

    def test_invalid_substrate_names_are_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(StoreError):
            store.substrate_dir("../escape", "a" * 16)
        with pytest.raises(StoreError):
            store.substrate_dir("cooccurrence_embeddings", "../../escape")

    def test_method_manifest_references_substrate_by_content_hash(
        self, tiny_dataset, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        registry = ExpanderRegistry(tiny_dataset, store=store)
        registry.get("cgexpan")
        [info] = store.ls()
        assert info.method == "cgexpan"
        # tiny is below the ANN threshold: the embeddings are the only reference.
        assert len(info.substrates) == 1
        ref = info.substrates[0]
        assert ref["kind"] == COOCCURRENCE_EMBEDDINGS
        [substrate] = store.ls_substrates()
        assert ref["content_hash"] == substrate.content_hash
        references = store.substrate_references()
        assert references[(substrate.kind, substrate.content_hash)] == [
            f"cgexpan/{tiny_dataset.fingerprint()}"
        ]

    def test_restore_with_missing_substrate_is_corruption(
        self, tiny_dataset, tmp_path
    ):
        from repro.baselines import CGExpan

        store = ArtifactStore(tmp_path)
        registry = ExpanderRegistry(tiny_dataset, store=store)
        registry.get("cgexpan")
        [substrate] = store.ls_substrates()
        assert store.evict_substrate(substrate.kind, substrate.content_hash, force=True)
        fresh = CGExpan(resources=SharedResources(tiny_dataset))
        with pytest.raises(ArtifactCorruptError):
            store.restore("cgexpan", tiny_dataset.fingerprint(), fresh, tiny_dataset)

    def test_failed_substrate_publication_never_writes_a_dangling_manifest(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        """If the substrate cannot be made durable, the method save must
        fail (the registry skips persistence) rather than publish a
        manifest whose reference can never resolve."""
        store = ArtifactStore(tmp_path)
        monkeypatch.setattr(
            ArtifactStore,
            "save_substrate",
            lambda *a, **k: (_ for _ in ()).throw(StoreError("disk full")),
        )
        registry = ExpanderRegistry(tiny_dataset, store=store)
        expander = registry.get("cgexpan")  # fit succeeds, write-through skipped
        assert expander.is_fitted
        assert registry.stats()["store"]["errors"] == 1
        assert store.ls() == [], "no method manifest may reference a missing substrate"

    def test_restore_refuses_substrate_params_mismatch(self, tiny_dataset, tmp_path):
        """Method-private state was trained against the referenced
        substrate; restoring under a different encoder config must be a
        version-style refusal, not a silent refit of a different substrate."""
        from repro.baselines import CGExpan
        from repro.config import EncoderConfig
        from repro.exceptions import ArtifactVersionError

        store = ArtifactStore(tmp_path)
        registry = ExpanderRegistry(tiny_dataset, store=store)
        registry.get("cgexpan")
        mismatched = CGExpan(
            resources=SharedResources(
                tiny_dataset, encoder_config=EncoderConfig(embedding_dim=32)
            )
        )
        with pytest.raises(ArtifactVersionError):
            store.restore("cgexpan", tiny_dataset.fingerprint(), mismatched, tiny_dataset)
        assert not mismatched.is_fitted

    def test_evict_substrate_refuses_while_referenced(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        registry = ExpanderRegistry(tiny_dataset, store=store)
        registry.get("cgexpan")
        [substrate] = store.ls_substrates()
        with pytest.raises(StoreError, match="referenced"):
            store.evict_substrate(substrate.kind, substrate.content_hash)
        store.evict("cgexpan", tiny_dataset.fingerprint())
        assert store.evict_substrate(substrate.kind, substrate.content_hash)


@pytest.fixture()
def embeddings_backed_store(tiny_dataset, tmp_path):
    """CGExpan + CaSE fitted through one registry into one store: two method
    artifacts referencing one shared co-occurrence substrate."""
    store = ArtifactStore(tmp_path)
    registry = ExpanderRegistry(tiny_dataset, store=store)
    registry.get("cgexpan")
    registry.get("case")
    return store, registry


@pytest.fixture()
def no_orphan_grace(monkeypatch):
    """Fresh orphans are normally protected by a publication grace period;
    these tests create and orphan substrates within one run, so disable it."""
    import repro.store.artifact as artifact_module

    monkeypatch.setattr(artifact_module, "_ORPHAN_GRACE_SECONDS", 0.0)


class TestReferenceAwareGC:
    """Satellite regression: GC must honour the method->substrate references."""

    def test_filter_gc_keeps_referenced_substrates_and_sweeps_orphans(
        self, embeddings_backed_store, tiny_dataset, no_orphan_grace
    ):
        store, _registry = embeddings_backed_store
        fingerprint = tiny_dataset.fingerprint()
        # Keeping the live fingerprint keeps the methods and their substrate.
        assert store.gc(keep_fingerprints={fingerprint}) == []
        assert store.stats()["substrates"] == 1
        # Dropping every method orphans the substrate; the same filter now
        # sweeps it instead of stranding its bytes forever.
        store.evict("cgexpan", fingerprint)
        store.evict("case", fingerprint)
        removed = store.gc(keep_fingerprints=set())
        assert [getattr(info, "kind", None) for info in removed] == [
            COOCCURRENCE_EMBEDDINGS
        ]
        assert store.ls_substrates() == []

    def test_fresh_orphans_are_protected_by_the_publication_grace(
        self, embeddings_backed_store, tiny_dataset
    ):
        """A just-published substrate with no referencing manifest yet (a
        save in flight, or a --substrates-only prefit) must survive GC."""
        store, _registry = embeddings_backed_store
        fingerprint = tiny_dataset.fingerprint()
        store.evict("cgexpan", fingerprint)
        store.evict("case", fingerprint)
        # Orphaned, but younger than the grace period: the filter sweep
        # must leave it alone.
        assert store.gc(keep_fingerprints=set()) == []
        assert store.stats()["substrates"] == 1


class TestFitOnceAcceptance:
    """Issue acceptance: CGExpan then CaSE fit the embeddings exactly once,
    and the store holds each substrate exactly once, referenced by hash."""

    def test_second_embeddings_backed_method_reuses_the_substrate(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        calls = _count_fits(monkeypatch)
        store = ArtifactStore(tmp_path)
        registry = ExpanderRegistry(tiny_dataset, store=store)
        registry.get("cgexpan")
        assert calls == ["CooccurrenceEmbeddings"]
        registry.get("case")
        assert calls == ["CooccurrenceEmbeddings"], "CaSE must not refit the substrate"
        provider_stats = registry.stats()["substrates"]
        assert provider_stats["fits"] == 1
        assert provider_stats["hits"] >= 1
        # The store holds the substrate exactly once; both manifests point
        # at the same content hash.
        [substrate] = store.ls_substrates()
        hashes = {
            ref["content_hash"] for info in store.ls() for ref in info.substrates
        }
        assert hashes == {substrate.content_hash}
        references = store.substrate_references()[
            (substrate.kind, substrate.content_hash)
        ]
        assert sorted(label.split("/")[0] for label in references) == ["case", "cgexpan"]


class TestColdFitSpans:
    """A cold fit's phases are trace spans; a restore records no fit span."""

    PHASES = ("store_restore", "fit_substrates", "substrate_fit", "train", "publish")

    def _span_names(self, registry, method: str) -> list[str]:
        trace = Trace()
        with activate(trace):
            registry.get(method)
        return [entry["name"] for entry in trace.to_list()]

    def test_cold_fit_spans_in_start_order(self, tiny_dataset, tmp_path):
        registry = ExpanderRegistry(tiny_dataset, store=ArtifactStore(tmp_path))
        names = self._span_names(registry, "cgexpan")
        assert [name for name in names if name in self.PHASES] == list(self.PHASES)
        # A registry hit records no phase at all.
        assert not set(self._span_names(registry, "cgexpan")) & set(self.PHASES)

    def test_restore_records_no_fit_spans(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        ExpanderRegistry(tiny_dataset, store=store).get("cgexpan")
        names = self._span_names(ExpanderRegistry(tiny_dataset, store=store), "cgexpan")
        assert "store_restore" in names
        assert "fit_substrates" not in names and "train" not in names
