"""Tests for the persistent fitted-expander artifact store (:mod:`repro.store`).

Covers the serialization layer, the store lifecycle (atomic writes, ls/gc/
evict, corruption and version checks), save→load ranking parity for every
registered method, the registry's restore-on-miss / write-through path, and
the warm-serve acceptance criterion (a prefitted store serves its first
query without invoking any ``_fit``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.base import Expander
from repro.core.resources import SharedResources
from repro.config import ServiceConfig
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.exceptions import (
    ArtifactCorruptError,
    ArtifactNotFoundError,
    ArtifactVersionError,
    PersistenceError,
    StoreError,
)
from repro.kb.corpus import Corpus
from repro.lm.causal_lm import CausalEntityLM
from repro.lm.context_encoder import ContextEncoder
from repro.lm.embeddings import CooccurrenceEmbeddings
from repro.retexpan import RetExpan
from repro.serve import ExpanderRegistry, ExpandOptions, ExpandRequest, ExpansionService
from repro.serve.registry import DEFAULT_FACTORIES
from repro.store import ArtifactStore
from repro.store.serialization import (
    load_count_table,
    load_vector_map,
    read_json_state,
    save_count_table,
    save_vector_map,
    write_json_state,
)
from repro.substrate import COOCCURRENCE_EMBEDDINGS
from repro.types import Entity, ExpansionResult, FineGrainedClass, Query, Sentence, UltraFineGrainedClass


class ToyExpander(Expander):
    """A trivially persistable expander for store-mechanics tests."""

    name = "toy"
    supports_persistence = True
    state_version = 1

    def __init__(self):
        super().__init__()
        self.fit_calls = 0
        self.payload: dict | None = None

    def _fit(self, dataset) -> None:
        self.fit_calls += 1
        self.payload = {"entities": dataset.num_entities}

    def _expand(self, query, top_k) -> ExpansionResult:
        scored = [(eid, 1.0 / (1.0 + eid)) for eid in self.dataset.entity_ids()]
        return ExpansionResult.from_scores(query.query_id, scored)

    def _save_state(self, directory: Path) -> None:
        write_json_state(directory / "toy.json", self.payload)

    def _load_state(self, directory: Path, dataset) -> None:
        self.payload = read_json_state(directory / "toy.json")


class NonPersistableExpander(Expander):
    name = "opaque"

    def _expand(self, query, top_k) -> ExpansionResult:
        return ExpansionResult(query_id=query.query_id, ranking=())


def _rankings(expander, queries, top_k=15):
    return [
        [(item.entity_id, item.score) for item in expander.expand(q, top_k).ranking]
        for q in queries
    ]


def _forbid_fits(monkeypatch):
    """Make every expensive substrate fit raise: restores must not train."""

    def boom(*args, **kwargs):  # pragma: no cover - only hit on failure
        raise AssertionError("a restore path invoked an expensive fit")

    monkeypatch.setattr(ContextEncoder, "fit", boom)
    monkeypatch.setattr(CausalEntityLM, "fit", boom)
    monkeypatch.setattr(CooccurrenceEmbeddings, "fit", boom)


class TestSerializationHelpers:
    def test_uniform_vector_map_roundtrip_is_exact(self, tmp_path):
        mapping = {7: np.arange(4.0), 3: np.array([0.5, -1.5, 2.0, 1e-12])}
        save_vector_map(tmp_path, "vecs", mapping)
        restored = load_vector_map(tmp_path, "vecs")
        assert set(restored) == {3, 7}
        for key, value in mapping.items():
            assert np.array_equal(restored[key], value)

    def test_uniform_layout_supports_mmap(self, tmp_path):
        save_vector_map(tmp_path, "vecs", {1: np.ones(3), 2: np.zeros(3)})
        restored = load_vector_map(tmp_path, "vecs", mmap=True)
        assert isinstance(restored[1], np.memmap) or restored[1].base is not None
        assert np.array_equal(np.asarray(restored[1]), np.ones(3))

    def test_ragged_vector_map_roundtrip(self, tmp_path):
        mapping = {0: np.ones(2), 1: np.ones(5)}
        save_vector_map(tmp_path, "ragged", mapping)
        restored = load_vector_map(tmp_path, "ragged")
        assert restored[0].shape == (2,) and restored[1].shape == (5,)

    def test_empty_vector_map_roundtrip(self, tmp_path):
        save_vector_map(tmp_path, "empty", {})
        assert load_vector_map(tmp_path, "empty") == {}

    def test_missing_vector_map_is_corruption(self, tmp_path):
        with pytest.raises(ArtifactCorruptError):
            load_vector_map(tmp_path, "absent")

    def test_json_state_bytes_match_json_dump(self, tmp_path):
        """One ``json.dumps`` write gives the bytes ``json.dump`` streamed:
        non-ASCII keys, the n-gram context separator, floats, and nested
        dicts in insertion order."""
        payload = {
            "vocab": {"Zürich": 3, "東京": 1, "a": 2},
            "counts": {"the\x1fcity": {"of": 4, "is": 1}, "\x1f": {"": 0}},
            "floats": [0.1, -2.5e-12, 1e300, 3.0, 1 / 3],
            "nested": {"z": {"y": {"x": [1, {"b": 2, "a": 1}]}}, "a": None},
            "flags": [True, False],
        }
        path = tmp_path / "state.json"
        write_json_state(path, payload)
        expected = tmp_path / "expected.json"
        with expected.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, ensure_ascii=False, separators=(",", ":"))
        assert path.read_bytes() == expected.read_bytes()
        assert list(json.loads(path.read_text(encoding="utf-8"))) == list(payload)

    def test_count_table_roundtrip_preserves_insertion_order(self, tmp_path):
        table = {"b": {"z": 1, "a": 2}, "a": {"q": 3}}
        save_count_table(tmp_path / "counts.json", table)
        restored = load_count_table(tmp_path / "counts.json")
        assert restored == table
        assert list(restored) == ["b", "a"]
        assert list(restored["b"]) == ["z", "a"]


class TestArtifactStoreLifecycle:
    def test_save_then_restore_roundtrip(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        fingerprint = tiny_dataset.fingerprint()
        fitted = ToyExpander().fit(tiny_dataset)
        info = store.save("toy", fingerprint, fitted)
        assert info.num_files == 1 and info.total_bytes > 0
        assert store.contains("toy", fingerprint)

        fresh = ToyExpander()
        store.restore("toy", fingerprint, fresh, tiny_dataset)
        assert fresh.fit_calls == 0
        assert fresh.is_fitted
        assert fresh.payload == {"entities": tiny_dataset.num_entities}

    def test_manifest_records_key_and_checksums(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        fingerprint = tiny_dataset.fingerprint()
        store.save("toy", fingerprint, ToyExpander().fit(tiny_dataset))
        manifest = json.loads(
            (store.artifact_dir("toy", fingerprint) / "manifest.json").read_text()
        )
        assert manifest["method"] == "toy"
        assert manifest["fingerprint"] == fingerprint
        assert manifest["expander_class"] == "ToyExpander"
        assert "numpy" in manifest["library_versions"]
        entry = manifest["files"]["toy.json"]
        assert len(entry["sha256"]) == 64 and entry["bytes"] > 0

    def test_missing_artifact_raises_not_found(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactNotFoundError):
            store.restore("toy", "0" * 16, ToyExpander(), tiny_dataset)

    def test_failed_save_leaves_no_partial_artifact(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        fitted = ToyExpander().fit(tiny_dataset)
        fitted.payload = object()  # not JSON-serialisable -> save_state raises
        with pytest.raises(TypeError):
            store.save("toy", tiny_dataset.fingerprint(), fitted)
        assert not store.contains("toy", tiny_dataset.fingerprint())
        assert store.ls() == []

    def test_unfitted_or_unsupported_expanders_are_rejected(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(PersistenceError):
            store.save("toy", "f" * 16, ToyExpander())  # not fitted
        with pytest.raises(PersistenceError):
            store.save("opaque", "f" * 16, NonPersistableExpander().fit(tiny_dataset))

    def test_checksum_tamper_is_detected_as_corruption(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        fingerprint = tiny_dataset.fingerprint()
        store.save("toy", fingerprint, ToyExpander().fit(tiny_dataset))
        state_file = store.artifact_dir("toy", fingerprint) / "state" / "toy.json"
        state_file.write_text('{"entities": 999999}')
        with pytest.raises(ArtifactCorruptError):
            store.restore("toy", fingerprint, ToyExpander(), tiny_dataset)

    def test_missing_state_file_is_detected_as_corruption(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        fingerprint = tiny_dataset.fingerprint()
        store.save("toy", fingerprint, ToyExpander().fit(tiny_dataset))
        (store.artifact_dir("toy", fingerprint) / "state" / "toy.json").unlink()
        with pytest.raises(ArtifactCorruptError):
            store.verify("toy", fingerprint)

    def test_format_versions_coexist_instead_of_colliding(self, tiny_dataset, tmp_path):
        """The format version is part of the artifact path: a newer store
        misses (and never destroys) an older store's artifacts."""
        fingerprint = tiny_dataset.fingerprint()
        old = ArtifactStore(tmp_path, format_version=1)
        old.save("toy", fingerprint, ToyExpander().fit(tiny_dataset))
        newer = ArtifactStore(tmp_path, format_version=2)
        with pytest.raises(ArtifactNotFoundError):
            newer.restore("toy", fingerprint, ToyExpander(), tiny_dataset)
        newer.save("toy", fingerprint, ToyExpander().fit(tiny_dataset))
        # Both versions live side by side; each store addresses its own.
        assert old.contains("toy", fingerprint) and newer.contains("toy", fingerprint)
        assert {info.format_version for info in newer.ls()} == {1, 2}
        old.restore("toy", fingerprint, ToyExpander(), tiny_dataset)

    def test_state_version_mismatch_is_rejected(self, tiny_dataset, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        store.save("toy", tiny_dataset.fingerprint(), ToyExpander().fit(tiny_dataset))
        monkeypatch.setattr(ToyExpander, "state_version", 2)
        with pytest.raises(ArtifactVersionError):
            store.restore("toy", tiny_dataset.fingerprint(), ToyExpander(), tiny_dataset)

    def test_expander_class_mismatch_is_rejected(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("toy", tiny_dataset.fingerprint(), ToyExpander().fit(tiny_dataset))
        with pytest.raises(ArtifactVersionError):
            store.restore(
                "toy", tiny_dataset.fingerprint(), RetExpan(), tiny_dataset
            )

    def test_ls_evict_and_stats(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        fingerprint = tiny_dataset.fingerprint()
        store.save("toy", fingerprint, ToyExpander().fit(tiny_dataset))
        store.save("toy2", fingerprint, ToyExpander().fit(tiny_dataset))
        assert {info.method for info in store.ls()} == {"toy", "toy2"}
        assert store.stats()["artifacts"] == 2
        assert store.evict("toy", fingerprint)
        assert not store.evict("toy", fingerprint)
        assert {info.method for info in store.ls()} == {"toy2"}

    def test_gc_by_fingerprint_and_age(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        fingerprint = tiny_dataset.fingerprint()
        store.save("toy", fingerprint, ToyExpander().fit(tiny_dataset))
        store.save("toy", "f" * 16, ToyExpander().fit(tiny_dataset))
        removed = store.gc(keep_fingerprints={fingerprint})
        assert [info.fingerprint for info in removed] == ["f" * 16]
        assert store.stats()["artifacts"] == 1
        # Everything is "older than 0 seconds" — age-based GC removes the rest.
        assert len(store.gc(max_age_seconds=-1.0)) == 1
        assert store.ls() == []

    def test_save_replaces_existing_artifact(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        fingerprint = tiny_dataset.fingerprint()
        first = ToyExpander().fit(tiny_dataset)
        store.save("toy", fingerprint, first)
        second = ToyExpander().fit(tiny_dataset)
        second.payload = {"entities": -1}
        store.save("toy", fingerprint, second)
        fresh = ToyExpander()
        store.restore("toy", fingerprint, fresh, tiny_dataset)
        assert fresh.payload == {"entities": -1}
        assert store.stats()["artifacts"] == 1


@pytest.fixture(scope="module")
def parity_store(tiny_dataset, resources, tmp_path_factory):
    """Every registered method fitted once (shared substrates) and persisted."""
    store = ArtifactStore(tmp_path_factory.mktemp("artifacts"))
    fingerprint = tiny_dataset.fingerprint()
    fitted = {}
    for method, factory in DEFAULT_FACTORIES.items():
        expander = factory(resources).fit(tiny_dataset)
        store.save(method, fingerprint, expander)
        fitted[method] = expander
    return store, fitted


class TestSaveLoadParity:
    """Satellite: a restored copy must rank exactly like the fitted original."""

    @pytest.mark.parametrize("method", sorted(DEFAULT_FACTORIES))
    def test_restored_copy_produces_identical_rankings(
        self, method, parity_store, tiny_dataset, monkeypatch
    ):
        store, fitted = parity_store
        queries = tiny_dataset.queries[:2]
        expected = _rankings(fitted[method], queries)

        fresh = DEFAULT_FACTORIES[method](SharedResources(tiny_dataset))
        _forbid_fits(monkeypatch)
        monkeypatch.setattr(
            type(fresh), "_fit", lambda *a, **k: pytest.fail("restore called _fit")
        )
        store.restore(method, tiny_dataset.fingerprint(), fresh, tiny_dataset)
        assert _rankings(fresh, queries) == expected

    def test_restore_is_a_pure_read(self, parity_store, tiny_dataset):
        """Restoring a method and its substrate changes no file in the store."""
        store, _ = parity_store
        fingerprint = tiny_dataset.fingerprint()

        def snapshot() -> set:
            files = [path for path in store.root.rglob("*") if path.is_file()]
            return {
                (
                    path.relative_to(store.root).as_posix(),
                    path.stat().st_size,
                    path.stat().st_mtime_ns,
                )
                for path in files
            }

        before = snapshot()
        fresh = DEFAULT_FACTORIES["cgexpan"](SharedResources(tiny_dataset))
        info = store.restore("cgexpan", fingerprint, fresh, tiny_dataset)
        [ref] = info.substrates
        assert ref["kind"] == COOCCURRENCE_EMBEDDINGS
        store.restore_substrate(
            ref["kind"], ref["content_hash"], CooccurrenceEmbeddings.load
        )
        assert snapshot() == before

    def test_every_registered_method_supports_persistence(self, resources):
        for method, factory in DEFAULT_FACTORIES.items():
            assert factory(resources).supports_persistence, method

    def test_config_mismatch_refuses_to_restore(self, parity_store, tiny_dataset):
        """State fitted under another ablation arm must not restore silently."""
        from repro.config import RetExpanConfig

        store, _ = parity_store
        mismatched = RetExpan(
            config=RetExpanConfig(use_contrastive=True),
            resources=SharedResources(tiny_dataset),
        )
        with pytest.raises(StoreError):
            store.restore("retexpan", tiny_dataset.fingerprint(), mismatched, tiny_dataset)
        assert not mismatched.is_fitted


class TestRegistryStoreIntegration:
    def _registry(self, dataset, store, fit_calls=None):
        fit_calls = fit_calls if fit_calls is not None else []

        def factory(_resources):
            expander = ToyExpander()
            original = expander._fit

            def counting_fit(ds):
                fit_calls.append(1)
                original(ds)

            expander._fit = counting_fit
            return expander

        return ExpanderRegistry(dataset, store=store, factories={"toy": factory})

    def test_fit_writes_through_and_restart_restores(self, tiny_dataset, tmp_path):
        store = ArtifactStore(tmp_path)
        fits: list[int] = []
        registry = self._registry(tiny_dataset, store, fits)
        registry.get("toy")
        stats = registry.stats()
        assert fits == [1]
        assert stats["store"]["write_throughs"] == 1
        assert stats["store"]["restore_misses"] == 1
        assert "toy" in stats["fit_seconds"]

        # "Restart": a fresh registry over the same store restores, no fit.
        restarted_fits: list[int] = []
        restarted = self._registry(tiny_dataset, store, restarted_fits)
        restarted.get("toy")
        stats = restarted.stats()
        assert restarted_fits == []
        assert stats["fits"] == 0
        assert stats["store"]["restore_hits"] == 1
        assert "toy" in stats["restore_seconds"]

    def test_corrupt_artifact_falls_back_to_refit_and_is_repaired(
        self, tiny_dataset, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        self._registry(tiny_dataset, store).get("toy")
        state_file = (
            store.artifact_dir("toy", tiny_dataset.fingerprint()) / "state" / "toy.json"
        )
        state_file.write_text("not json at all")

        fits: list[int] = []
        registry = self._registry(tiny_dataset, store, fits)
        expander = registry.get("toy")
        stats = registry.stats()
        assert fits == [1]  # corruption fell back to a refit
        assert stats["store"]["errors"] == 1
        assert stats["store"]["write_throughs"] == 1  # and was repaired on disk
        assert expander.payload == {"entities": tiny_dataset.num_entities}

        healed_fits: list[int] = []
        healed = self._registry(tiny_dataset, store, healed_fits)
        healed.get("toy")
        assert healed_fits == []  # the rewritten artifact restores again

    def test_version_mismatched_artifact_falls_back_to_refit(
        self, tiny_dataset, tmp_path
    ):
        self._registry(tiny_dataset, ArtifactStore(tmp_path, format_version=1)).get("toy")
        fits: list[int] = []
        registry = self._registry(
            tiny_dataset, ArtifactStore(tmp_path, format_version=2), fits
        )
        registry.get("toy")
        stats = registry.stats()
        assert fits == [1]  # the other version's artifact is a plain miss
        assert stats["store"]["write_throughs"] == 1
        # Crucially the v1 artifact survives: mixed-version workers coexist.
        assert ArtifactStore(tmp_path, format_version=1).contains(
            "toy", tiny_dataset.fingerprint()
        )

    def test_state_version_mismatch_leaves_artifact_in_place(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path)
        self._registry(tiny_dataset, store).get("toy")
        monkeypatch.setattr(ToyExpander, "state_version", 2)
        fits: list[int] = []
        registry = self._registry(tiny_dataset, store, fits)
        registry.get("toy")
        assert fits == [1]
        # Version-style mismatches refit but never evict the other build's
        # artifact (eviction would let mixed builds thrash each other).
        assert store.contains("toy", tiny_dataset.fingerprint())

    def test_store_failures_never_break_serving(self, tiny_dataset, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        monkeypatch.setattr(
            ArtifactStore, "save", lambda *a, **k: (_ for _ in ()).throw(StoreError("disk full"))
        )
        registry = self._registry(tiny_dataset, store)
        expander = registry.get("toy")  # fit succeeds although write-through fails
        assert expander.is_fitted
        assert registry.stats()["store"]["errors"] == 1


class TestWarmServeAcceptance:
    """`serve --store DIR` on a prefitted dataset must not invoke any _fit."""

    def test_prefitted_store_serves_first_uncached_query_without_fit(
        self, tiny_dataset, resources, tmp_path, monkeypatch
    ):
        store_dir = tmp_path / "artifacts"
        # Prefit (what `repro fit --store` does).
        prefit = ExpanderRegistry(tiny_dataset, resources=resources, store=ArtifactStore(store_dir))
        prefit.get("retexpan")

        # "Restart": a brand-new service over the same store directory.
        _forbid_fits(monkeypatch)
        monkeypatch.setattr(
            RetExpan, "_fit", lambda *a, **k: pytest.fail("warm serve invoked _fit")
        )
        config = ServiceConfig(store_dir=str(store_dir))
        with ExpansionService(tiny_dataset, config=config) as service:
            request = ExpandRequest(
                method="retexpan",
                query_id=tiny_dataset.queries[0].query_id,
                options=ExpandOptions(top_k=10, use_cache=False),
            )
            response = service.submit(request)
            assert response.ranking
            stats = service.stats()
        assert stats["registry"]["fits"] == 0
        assert stats["registry"]["store"]["restore_hits"] == 1
        assert stats["store"]["artifacts"] == 1

    def test_stats_expose_fit_wall_time_and_store_counters(self, tiny_dataset, tmp_path):
        """Satellite: /stats carries per-method fit timings + store traffic."""
        config = ServiceConfig(store_dir=str(tmp_path / "store"))
        factories = {"toy": lambda _res: ToyExpander()}
        with ExpansionService(tiny_dataset, config=config, factories=factories) as service:
            service.submit(
                ExpandRequest(method="toy", query_id=tiny_dataset.queries[0].query_id)
            )
            stats = service.stats()
        registry = stats["registry"]
        assert registry["fit_seconds"]["toy"] >= 0.0
        assert registry["store"] == {
            "enabled": True,
            "restore_hits": 0,
            "restore_misses": 1,
            "write_throughs": 1,
            "errors": 0,
        }
        assert stats["store"]["total_bytes"] > 0


def _container():
    entities = [
        Entity(0, "Alpha", "c", {"a": "x"}),
        Entity(1, "Beta", "c", {"a": "x"}),
        Entity(2, "Gamma", "c", {"a": "y"}),
    ]
    corpus = Corpus([Sentence(0, "Alpha is here.", (0,))])
    fine = [FineGrainedClass("c", "Class C", {"a": ("x", "y")})]
    ultra = [
        UltraFineGrainedClass(
            class_id="c#000",
            fine_class="c",
            positive_assignment={"a": "x"},
            negative_assignment={"a": "y"},
            positive_entity_ids=(0, 1),
            negative_entity_ids=(2,),
        )
    ]
    return UltraWikiDataset(
        entities, corpus, fine, ultra, [Query("c#000/q0", "c#000", (0,), (2,))]
    )


class TestFingerprintMemoization:
    """Satellite: fingerprint() hashes once and caches on the instance."""

    def test_fingerprint_is_computed_once(self, monkeypatch):
        dataset = _container()
        calls = []
        original = UltraWikiDataset._compute_fingerprint

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(UltraWikiDataset, "_compute_fingerprint", counting)
        first = dataset.fingerprint()
        assert dataset.fingerprint() == first
        assert dataset.fingerprint() == first
        assert calls == [1]

    def test_invalidate_fingerprint_recomputes_after_mutation(self):
        dataset = _container()
        before = dataset.fingerprint()
        dataset.queries.append(Query("c#000/q1", "c#000", (1,), (2,)))
        assert dataset.fingerprint() == before  # memoized: mutation unseen
        dataset.invalidate_fingerprint()
        assert dataset.fingerprint() != before

    def test_distinct_but_equal_datasets_share_fingerprints(self):
        assert _container().fingerprint() == _container().fingerprint()
