"""Hot-path query compute tests (ANN retrieval, batched scoring).

Covers the legs of the hot-path work:

* the pure-numpy partitioned ANN index (:mod:`repro.retrieval`): build /
  probe / persistence, the MIPS lift for un-normalized vectors, shortlist
  escalation up to the full probe, the vocabulary-size threshold from which
  a dense ranker builds and probes an index, and recall@k >= 0.98 of the
  probed path against the exact scan through a real expander (the
  threshold patched below ``tiny``'s vocabulary);
* the corrupt-index self-heal: a checksum-mismatched ``ann_index`` artifact
  is evicted and refitted, never served;
* batched LM conditional-similarity scoring (GenExpan): one memoised batch
  must reproduce the sequential per-pair means bitwise;
* the retired per-request retrieval knobs, refused on both serving tiers.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api.options import ExpandOptions
from repro.baselines import CGExpan
from repro.config import CausalLMConfig
from repro.core import dense
from repro.core.resources import SharedResources
from repro.exceptions import ServiceError
from repro.lm.causal_lm import CausalEntityLM
from repro.retrieval import CandidateMatrix, PartitionedIndex
from repro.serve import ExpanderRegistry
from repro.store import ArtifactStore
from repro.substrate import ANN_INDEX, COOCCURRENCE_EMBEDDINGS
from repro.text.tokenizer import WordTokenizer
from repro.utils.mathx import l2_normalize

from test_cluster import make_gateway, make_worker


# ---------------------------------------------------------------------------
# partitioned index
# ---------------------------------------------------------------------------


def _clustered(n: int, dim: int, seed: int = 7) -> np.ndarray:
    """Synthetic clustered vectors with non-uniform norms (MIPS matters)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(16, dim)) * 4.0
    rows = centers[rng.integers(0, 16, size=n)] + rng.normal(size=(n, dim))
    return rows * rng.uniform(0.5, 2.0, size=(n, 1))  # vary the norms


class TestPartitionedIndex:
    def test_build_is_deterministic(self):
        rows = _clustered(500, 8)
        ids = list(range(500))
        a = PartitionedIndex.build(rows, ids, seed=3)
        b = PartitionedIndex.build(rows, ids, seed=3)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.order, b.order)

    def test_full_probe_covers_every_row(self):
        rows = _clustered(300, 8)
        index = PartitionedIndex.build(rows, range(300), seed=1)
        probed = index.probe(np.zeros(8), nprobe=index.n_lists)
        assert sorted(probed.tolist()) == list(range(300))

    def test_probe_recall_on_inner_product_top_k(self):
        """Probing a quarter of the lists must keep recall@10 high for
        max-inner-product queries, including over un-normalized rows."""
        rows = _clustered(4000, 16)
        index = PartitionedIndex.build(rows, range(4000), seed=5)
        rng = np.random.default_rng(11)
        recalls = []
        for _ in range(40):
            query = rows[rng.integers(0, 4000, size=5)].mean(axis=0)
            exact = set(np.argsort(-(rows @ query))[:10].tolist())
            probed = set(index.probe(query).tolist())
            recalls.append(len(exact & probed) / 10.0)
        assert float(np.mean(recalls)) >= 0.98

    def test_save_load_round_trip(self, tmp_path):
        rows = _clustered(200, 6)
        index = PartitionedIndex.build(rows, range(200), seed=2)
        index.save(tmp_path)
        loaded = PartitionedIndex.load(tmp_path)
        assert np.array_equal(loaded.ids, index.ids)
        assert np.array_equal(loaded.centroids, index.centroids)
        assert np.array_equal(loaded.order, index.order)
        assert np.array_equal(loaded.offsets, index.offsets)
        assert loaded.extent == index.extent
        query = rows[:3].mean(axis=0)
        assert np.array_equal(loaded.probe(query), index.probe(query))


# ---------------------------------------------------------------------------
# candidate matrix
# ---------------------------------------------------------------------------


def _vector_map(n: int, dim: int, seed: int = 9) -> dict[int, np.ndarray]:
    rng = np.random.default_rng(seed)
    # non-contiguous ids, insertion order deliberately scrambled
    ids = rng.permutation(np.arange(10, 10 + 2 * n, 2)).tolist()
    return {int(eid): rng.normal(size=dim) for eid in ids}


class TestCandidateMatrix:
    def test_rows_gather_is_bitwise_equal_to_stack(self):
        vectors = _vector_map(64, 12)
        matrix = CandidateMatrix.from_vectors(vectors, normalize=True)
        subset = sorted(vectors)[5:25]
        historical = l2_normalize(
            np.stack([vectors[eid] for eid in subset]), axis=1
        )
        gathered = matrix.rows(subset)
        assert gathered.flags["C_CONTIGUOUS"]
        assert np.array_equal(gathered, historical), "gather must be bitwise"

    def test_dim_slice_matches_historical_order(self):
        vectors = _vector_map(32, 10)
        matrix = CandidateMatrix.from_vectors(vectors, dim=4, normalize=True)
        eid = sorted(vectors)[3]
        assert np.array_equal(
            matrix.row(eid), l2_normalize(vectors[eid][:4].reshape(1, -1), axis=1)[0]
        )

    def test_attach_index_drops_mismatched_vocabulary(self):
        vectors = _vector_map(30, 6)
        matrix = CandidateMatrix.from_vectors(vectors)
        stale = PartitionedIndex.build(np.zeros((3, 6)), [1, 2, 3])
        matrix.attach_index(stale)
        assert matrix.index is None
        fresh = PartitionedIndex.build(matrix.matrix, matrix.ids)
        matrix.attach_index(fresh)
        assert matrix.index is fresh

    def test_shortlist_escalates_nprobe_until_required_is_met(self):
        vectors = _vector_map(400, 8)
        matrix = CandidateMatrix.from_vectors(vectors)
        matrix.attach_index(
            PartitionedIndex.build(matrix.matrix, matrix.ids, n_lists=32, seed=4)
        )
        events = []
        shortlist = matrix.shortlist(
            np.zeros(8),
            required=350,
            nprobe=1,
            telemetry=lambda probes, size: events.append((probes, size)),
        )
        assert len(shortlist) >= 350
        (probes, size) = events[0]
        assert probes > 1, "nprobe=1 cannot cover 350 rows; it must escalate"
        assert size == len(shortlist)

    def test_full_probe_returns_the_vocabulary_minus_exclude(self):
        vectors = _vector_map(50, 8)
        matrix = CandidateMatrix.from_vectors(vectors)
        matrix.attach_index(PartitionedIndex.build(matrix.matrix, matrix.ids))
        exclude = matrix.ids[3:6]
        everything = [eid for eid in matrix.ids if eid not in exclude]
        full = matrix.shortlist(
            np.zeros(8), exclude=exclude, nprobe=matrix.index.n_lists
        )
        assert full == everything
        # a ranking no partial probe can fill escalates to the full probe.
        assert matrix.shortlist(np.zeros(8), required=10**6, exclude=exclude) == everything


# ---------------------------------------------------------------------------
# the ANN threshold and the probed path through a real expander
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dense_resources(tiny_dataset):
    """One pool, so exact and probed expanders rank the same embeddings
    (the PPMI-SVD factors differ from fit to fit)."""
    return SharedResources(tiny_dataset)


@pytest.fixture(scope="module")
def fitted_cgexpan(tiny_dataset, dense_resources):
    return CGExpan(resources=dense_resources).fit(tiny_dataset)


@pytest.fixture(scope="module")
def probed_cgexpan(tiny_dataset, dense_resources):
    """CGExpan with the ANN threshold patched below ``tiny``'s vocabulary."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dense, "ANN_AUTO_THRESHOLD", 1)
        return CGExpan(resources=dense_resources).fit(tiny_dataset)


class TestExpanderParity:
    def test_index_exists_from_the_threshold(
        self, fitted_cgexpan, dense_resources, tiny_dataset, monkeypatch
    ):
        """Vocabulary size alone picks the path: at the threshold the ranker
        has an index and depends on it, one entity short it has neither."""
        assert fitted_cgexpan._matrix.index is None, "tiny is below the threshold"
        vocabulary = len(fitted_cgexpan._matrix)
        monkeypatch.setattr(dense, "ANN_AUTO_THRESHOLD", vocabulary)
        at = CGExpan(resources=dense_resources).fit(tiny_dataset)
        assert at._matrix.index is not None
        assert [kind for kind, _ in at.substrate_dependencies()] == [
            COOCCURRENCE_EMBEDDINGS,
            ANN_INDEX,
        ]
        monkeypatch.setattr(dense, "ANN_AUTO_THRESHOLD", vocabulary + 1)
        below = CGExpan(resources=dense_resources).fit(tiny_dataset)
        assert below._matrix.index is None
        assert [kind for kind, _ in below.substrate_dependencies()] == [
            COOCCURRENCE_EMBEDDINGS
        ]

    def test_ann_on_keeps_recall(self, fitted_cgexpan, probed_cgexpan, tiny_dataset):
        """The probed path (threshold patched below tiny's vocabulary) must
        keep recall@k >= 0.98 against the exact ranking of the same
        embeddings at the default nprobe (with shortlist escalation)."""
        recalls = []
        k = 20
        for query in tiny_dataset.queries[:10]:
            exact = set(fitted_cgexpan.expand(query, top_k=k).entity_ids())
            probed = set(probed_cgexpan.expand(query, top_k=k).entity_ids())
            recalls.append(len(exact & probed) / max(1, len(exact)))
        assert float(np.mean(recalls)) >= 0.98

    def test_ann_queries_are_counted(self, fitted_cgexpan, probed_cgexpan, tiny_dataset):
        """``repro_ann_queries_total`` counts each probed query and no exact scan."""
        provider = probed_cgexpan._resources.provider
        before = provider.stats()["ann"]
        for query in tiny_dataset.queries[:3]:
            probed_cgexpan.expand(query, top_k=10)
        fitted_cgexpan.expand(tiny_dataset.queries[0], top_k=10)
        after = provider.stats()["ann"]
        assert after["queries"] == before["queries"] + 3, "exact scans do not count"
        assert after["probes"] >= before["probes"] + 3
        assert after["shortlisted"] > before["shortlisted"]


class TestCorruptIndexSelfHeal:
    def test_checksum_mismatch_refits_instead_of_serving(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        """Flipping bytes in the persisted ANN index must never produce a
        wrong ranking: the restore detects the checksum mismatch, evicts
        the artifact, refits, and republishes a good copy."""
        monkeypatch.setattr(dense, "ANN_AUTO_THRESHOLD", 1)
        store = ArtifactStore(tmp_path)
        registry = ExpanderRegistry(tiny_dataset, store=store)
        registry.get("cgexpan")
        info = next(s for s in store.ls_substrates() if s.kind == "ann_index")
        payload = (
            store.substrate_dir(info.kind, info.content_hash)
            / "state"
            / "ann_centroids.npy"
        )
        payload.write_bytes(b"\x00corrupt")
        fresh = ExpanderRegistry(tiny_dataset, store=store)
        expander = fresh.get("cgexpan")
        result = expander.expand(tiny_dataset.queries[0], top_k=10)
        assert result.ranking, "self-healed expander must serve"
        healed = next(s for s in store.ls_substrates() if s.kind == "ann_index")
        assert (
            store.substrate_dir(healed.kind, healed.content_hash)
            / "state"
            / "ann_centroids.npy"
        ).stat().st_size > len(b"\x00corrupt"), "a good copy was republished"


# ---------------------------------------------------------------------------
# batched LM conditional similarity (GenExpan)
# ---------------------------------------------------------------------------


class TestBatchedConditionalSimilarity:
    @pytest.fixture(scope="class")
    def lm(self, resources):
        return resources.causal_lm(further_pretrain=False)

    def test_batch_matches_sequential_bitwise(self, lm, tiny_dataset):
        ids = tiny_dataset.entity_ids()
        generated, seeds = ids[:25], ids[25:29]
        batched = lm.conditional_similarity_batch(generated, seeds)
        for gid in generated:
            sequential = sum(
                lm.conditional_similarity(gid, sid) for sid in seeds
            ) / len(seeds)
            assert batched[gid] == sequential, f"entity {gid} diverged"

    def test_unknown_entities_and_empty_seeds(self, lm, tiny_dataset):
        ids = tiny_dataset.entity_ids()
        assert lm.conditional_similarity_batch([ids[0]], []) == {ids[0]: 0.0}
        batched = lm.conditional_similarity_batch([10**9], ids[:2])
        assert batched[10**9] == 0.0

    def test_order_5_reads_each_name_bitwise(self, tiny_dataset):
        """An order-5 LM reads four prompt tokens, one more than the
        "is similar to" template has, so its tail comes from each name.
        Taught "X is similar to Y", the name before the template moves its
        counts; the batch must still equal the sequential path bitwise."""
        ids = tiny_dataset.entity_ids()
        generated, seeds = ids[:25], ids[25:29]
        lm = CausalEntityLM(CausalLMConfig(ngram_order=5, further_pretrain=False)).fit(
            tiny_dataset.corpus, tiny_dataset.entities()
        )
        tokenizer = WordTokenizer()
        names = {entity.entity_id: entity.name for entity in tiny_dataset.entities()}
        lm._ngram.fit(
            tokenizer.tokenize(f"{names[gid]} is similar to {names[sid]}")
            for gid, sid in zip(generated[::2], seeds * 4)
        )
        batched = lm.conditional_similarity_batch(generated, seeds)
        for gid in generated:
            sequential = sum(
                lm.conditional_similarity(gid, sid) for sid in seeds
            ) / len(seeds)
            assert batched[gid] == sequential, f"entity {gid} diverged"

    @pytest.mark.parametrize("order, per_name", [(3, False), (4, False), (5, True)])
    def test_template_tail_is_tokenized_once(self, tiny_dataset, monkeypatch, order, per_name):
        """Work guard: up to order 4 the tail lies inside the template, so a
        batch tokenizes the template once, not once per generated name."""
        lm = CausalEntityLM(CausalLMConfig(ngram_order=order, further_pretrain=False)).fit(
            tiny_dataset.corpus, tiny_dataset.entities()
        )
        ids = tiny_dataset.entity_ids()
        generated, seeds = ids[:25], ids[25:29]
        calls = []
        tokenize = WordTokenizer.tokenize
        monkeypatch.setattr(
            WordTokenizer, "tokenize", lambda self, text: calls.append(text) or tokenize(self, text)
        )
        lm.conditional_similarity_batch(generated, seeds)
        # the template, plus each seed name, plus each generated name
        # when the tail reaches into it.
        assert len(calls) == 1 + len(seeds) + (len(generated) if per_name else 0)


# ---------------------------------------------------------------------------
# options / request wire shape
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster(tiny_dataset):
    servers = [make_worker(tiny_dataset) for _ in range(2)]
    gateway = make_gateway(tiny_dataset, servers)
    yield gateway, servers
    gateway.shutdown()
    for server in servers:
        server.shutdown()


def _post(server, payload):
    request = urllib.request.Request(
        server.url + "/v1/expand",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read()), dict(response.headers)


class TestRetrievalOptionsWireShape:
    def test_retrieval_knobs_are_unknown_options(self, cluster, tiny_dataset):
        """Vocabulary size alone picks the retrieval path: a per-request
        knob is an unknown options field, in the parser and on the wire of
        both tiers."""
        gateway, servers = cluster
        for field, value in (("ann", "on"), ("nprobe", 4)):
            with pytest.raises(ServiceError, match="unknown options fields"):
                ExpandOptions.from_dict({field: value})
            body = {
                "method": "stuba",
                "query_id": tiny_dataset.queries[0].query_id,
                "options": {"top_k": 5, field: value},
            }
            for front in (servers[0], gateway):
                with pytest.raises(urllib.error.HTTPError) as refused:
                    _post(front, body)
                assert refused.value.code == 400
                error = json.loads(refused.value.read())["error"]
                assert error["code"] == "invalid_request"
                assert "unknown options fields" in error["message"]

