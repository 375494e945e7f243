"""Tests for the n-gram LM and the causal entity LM (LLaMA substitute)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import CausalLMConfig
from repro.exceptions import ModelError
from repro.lm.causal_lm import CausalEntityLM, NGramLanguageModel
from repro.text.prefix_tree import PrefixTree
from repro.text.tokenizer import WordTokenizer


class TestNGramLanguageModel:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ModelError):
            NGramLanguageModel(order=0)
        with pytest.raises(ModelError):
            NGramLanguageModel(smoothing=0.0)

    def test_probabilities_sum_close_to_one(self):
        lm = NGramLanguageModel(order=2, smoothing=0.1)
        lm.fit([["a", "b", "c"], ["a", "b", "d"]])
        vocab = lm.vocabulary
        total = sum(lm.probability(["a"], token) for token in vocab)
        assert total == pytest.approx(1.0, abs=0.05)

    def test_seen_continuation_more_likely(self):
        lm = NGramLanguageModel(order=2)
        lm.fit([["the", "android", "phone"]] * 5 + [["the", "country", "votes"]])
        assert lm.probability(["the"], "android") > lm.probability(["the"], "votes")

    def test_unseen_token_gets_small_probability(self):
        lm = NGramLanguageModel(order=2)
        lm.fit([["a", "b"]])
        assert 0.0 < lm.probability(["a"], "zzz") < 0.2

    def test_sequence_logprob_additivity(self):
        lm = NGramLanguageModel(order=2)
        lm.fit([["a", "b", "c"]])
        combined = lm.sequence_logprob(["b", "c"], context=["a"])
        stepwise = lm.logprob(["a"], "b") + lm.logprob(["a", "b"], "c")
        assert combined == pytest.approx(stepwise)

    def test_next_token_candidates_ranked(self):
        lm = NGramLanguageModel(order=2)
        lm.fit([["the", "phone"]] * 10 + [["the", "country"]])
        candidates = lm.next_token_candidates(["the"], top_k=3)
        assert candidates[0][0] == "phone"
        scores = [score for _, score in candidates]
        assert scores == sorted(scores, reverse=True)


@pytest.fixture(scope="module")
def fitted_lm(tiny_dataset):
    config = CausalLMConfig(seed=3, embedding_dim=32)
    return CausalEntityLM(config).fit(tiny_dataset.corpus, tiny_dataset.entities())


@pytest.fixture(scope="module")
def prefix_tree(tiny_dataset):
    return PrefixTree.from_entities(
        (e.name for e in tiny_dataset.entities()), WordTokenizer()
    )


_FIT_AND_WRITE = """
import sys
from repro.lm.causal_lm import NGramLanguageModel
from repro.store.serialization import write_json_state
model = NGramLanguageModel(order=3).fit(
    [["the", "phone", "runs", "android"], ["a", "phone", "from", "europe"], ["zeta", "q"]]
)
write_json_state(sys.argv[1], model.to_state())
"""


def test_ngram_state_is_the_same_bytes_under_any_hash_seed(tmp_path):
    """Two processes with different string hash seeds fit one n-gram and
    write identical JSON (the vocabulary is a set: it is written sorted)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    written = []
    for hash_seed in ("1", "2"):
        path = tmp_path / f"ngram-{hash_seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", _FIT_AND_WRITE, str(path)], env=env, check=True)
        written.append(path.read_bytes())
    assert written[0] == written[1]
    vocab = json.loads(written[0])["vocab"]
    assert vocab == sorted(vocab)


class TestCausalEntityLM:
    def test_unfitted_access_raises(self):
        lm = CausalEntityLM()
        with pytest.raises(ModelError):
            lm.entity_affinity(0, 1)

    def test_affinity_symmetric_and_bounded(self, fitted_lm, tiny_dataset):
        a, b = tiny_dataset.entity_ids()[:2]
        forward = fitted_lm.entity_affinity(a, b)
        backward = fitted_lm.entity_affinity(b, a)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0

    def test_affinity_respects_fine_class(self, fitted_lm, tiny_dataset):
        """Same-class entities should be more affine than cross-class ones on average."""
        classes = sorted(tiny_dataset.fine_classes)
        first = tiny_dataset.entities_of_fine_class(classes[0])[:10]
        second = tiny_dataset.entities_of_fine_class(classes[1])[:10]
        same = np.mean(
            [fitted_lm.entity_affinity(a.entity_id, b.entity_id) for a in first for b in first if a != b]
        )
        cross = np.mean(
            [fitted_lm.entity_affinity(a.entity_id, b.entity_id) for a in first for b in second]
        )
        assert same > cross

    def test_prompt_affinity_empty_prompt(self, fitted_lm, tiny_dataset):
        assert fitted_lm.prompt_affinity(tiny_dataset.entity_ids()[0], []) == 0.0

    def test_entity_logprob_finite(self, fitted_lm, tiny_dataset):
        ids = tiny_dataset.entity_ids()
        value = fitted_lm.entity_logprob(ids[0], ids[1:4])
        assert np.isfinite(value)
        assert value <= 0.0

    def test_entity_logprob_unknown_entity_raises(self, fitted_lm):
        with pytest.raises(ModelError):
            fitted_lm.entity_logprob(10**9, [])

    def test_conditional_similarity_bounded(self, fitted_lm, tiny_dataset):
        ids = tiny_dataset.entity_ids()
        value = fitted_lm.conditional_similarity(ids[0], ids[1])
        assert 0.0 <= value <= 1.0

    def test_conditional_similarity_unknown_entity_zero(self, fitted_lm, tiny_dataset):
        assert fitted_lm.conditional_similarity(10**9, tiny_dataset.entity_ids()[0]) == 0.0

    def test_constrained_generation_yields_valid_entities(
        self, fitted_lm, tiny_dataset, prefix_tree
    ):
        query = tiny_dataset.queries[0]
        generated = fitted_lm.generate_constrained(
            list(query.positive_seed_ids), prefix_tree, beam_width=10
        )
        assert generated
        assert len(generated) <= 10
        for name, score in generated:
            assert tiny_dataset.has_entity_name(name)
            assert np.isfinite(score)

    def test_constrained_generation_respects_exclusions(
        self, fitted_lm, tiny_dataset, prefix_tree
    ):
        query = tiny_dataset.queries[0]
        excluded = {tiny_dataset.entity(eid).name for eid in query.positive_seed_ids}
        generated = fitted_lm.generate_constrained(
            list(query.positive_seed_ids), prefix_tree, beam_width=10, exclude_names=excluded
        )
        assert not ({name for name, _ in generated} & excluded)

    def test_constrained_generation_prefers_same_class(self, fitted_lm, tiny_dataset, prefix_tree):
        query = tiny_dataset.queries[0]
        fine_class = tiny_dataset.ultra_class(query.class_id).fine_class
        generated = fitted_lm.generate_constrained(
            list(query.positive_seed_ids), prefix_tree, beam_width=10
        )
        same_class = sum(
            1
            for name, _ in generated
            if tiny_dataset.entity_by_name(name).fine_class == fine_class
        )
        assert same_class >= len(generated) // 2

    def test_unconstrained_generation_returns_strings(self, fitted_lm, tiny_dataset):
        query = tiny_dataset.queries[0]
        generated = fitted_lm.generate_unconstrained(list(query.positive_seed_ids), beam_width=5)
        assert isinstance(generated, list)
        for name, score in generated:
            assert isinstance(name, str)
            assert np.isfinite(score)

    def test_no_further_pretrain_uses_name_overlap_prior(self, tiny_dataset):
        config = CausalLMConfig(further_pretrain=False)
        lm = CausalEntityLM(config).fit(tiny_dataset.corpus, tiny_dataset.entities())
        entities = tiny_dataset.entities()
        shared_prefix = [
            (a, b)
            for i, a in enumerate(entities[:200])
            for b in entities[i + 1 : 200]
            if a.name.split()[0] == b.name.split()[0]
        ]
        if shared_prefix:
            a, b = shared_prefix[0]
            assert lm.entity_affinity(a.entity_id, b.entity_id) > 0.0
