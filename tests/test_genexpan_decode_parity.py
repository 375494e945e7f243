"""GenExpan decode parity: one prompt-affinity product per decode against the
per-pair token scoring it replaced.

``per_pair_generate`` is a copy of ``CausalEntityLM.generate_constrained``
as it was before the prompt affinities became one product: every (beam,
token) pair re-scores its reachable entities through ``prompt_affinity``,
one ``entity_affinity`` call per (entity, prompt entity) pair.  It is kept
here, and only here, as the reference.

The product's dot products may differ from per-pair ``np.dot`` in the last
ulps, so affinities are compared within ``AFFINITY_TOLERANCE``; the names a
decode returns must be identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CausalLMConfig
from repro.lm.causal_lm import CausalEntityLM

#: |product - per-pair| bound for affinities in [0, 1] (a few float64 ulps;
#: the largest difference measured on ``small`` is 3.3e-16).
AFFINITY_TOLERANCE = 1e-14


def per_pair_generate(
    lm: CausalEntityLM,
    prompt_entity_ids,
    prefix_tree,
    beam_width: int = 20,
    exclude_names=None,
    max_length: int = 8,
) -> list[tuple[str, float]]:
    exclude_names = exclude_names or set()
    context = lm._prompt_tokens(prompt_entity_ids)
    name_to_id = {
        entity.name: entity_id for entity_id, entity in lm._entities_by_id.items()
    }

    def token_score(prefix: list[str], token: str) -> float:
        logprob = lm._ngram.logprob(context + prefix, token)
        reachable = prefix_tree.entities_with_prefix(prefix + [token])
        affinities = [
            lm.prompt_affinity(name_to_id[name], prompt_entity_ids)
            for name in reachable[:20]
            if name in name_to_id
        ]
        best_affinity = max(affinities) if affinities else 0.0
        w = lm.config.affinity_weight
        return w * float(np.log(max(best_affinity, 1e-6))) + (1.0 - w) * logprob

    beams: list[tuple[list[str], float]] = [([], 0.0)]
    completed: dict[str, float] = {}
    for _ in range(max_length):
        expansions: list[tuple[list[str], float]] = []
        for prefix, score in beams:
            allowed = prefix_tree.allowed_next(prefix)
            entity_name = prefix_tree.entity_at(prefix)
            if entity_name is not None and entity_name not in exclude_names:
                normalised = score / max(len(prefix), 1)
                if normalised > completed.get(entity_name, -np.inf):
                    completed[entity_name] = normalised
            for token in allowed:
                expansions.append((prefix + [token], score + token_score(prefix, token)))
        if not expansions:
            break
        expansions.sort(key=lambda item: -item[1] / max(len(item[0]), 1))
        beams = expansions[: beam_width * 2]
    for prefix, score in beams:
        entity_name = prefix_tree.entity_at(prefix)
        if entity_name is not None and entity_name not in exclude_names:
            normalised = score / max(len(prefix), 1)
            if normalised > completed.get(entity_name, -np.inf):
                completed[entity_name] = normalised
    ranked = sorted(completed.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:beam_width]


@pytest.fixture(scope="module")
def lm(resources):
    return resources.causal_lm()


@pytest.fixture(scope="module")
def prefix_tree(resources):
    return resources.prefix_tree()


def _prompts(dataset):
    """Round-0 GenExpan prompts: up to three positive seeds per query."""
    return [list(query.positive_seed_ids[:3]) for query in dataset.queries]


def _assert_affinities_match(lm, prompt, entity_ids):
    affinities = lm.prompt_affinities(prompt)
    assert set(affinities) == set(entity_ids)
    for entity_id in entity_ids:
        expected = lm.prompt_affinity(entity_id, prompt)
        assert abs(affinities[entity_id] - expected) <= AFFINITY_TOLERANCE, entity_id


def test_affinity_vector_matches_prompt_affinity(lm, tiny_dataset):
    entity_ids = tiny_dataset.entity_ids()
    for prompt in _prompts(tiny_dataset):
        _assert_affinities_match(lm, prompt, entity_ids)


def test_affinity_pairs_without_embeddings_keep_the_name_fallback(lm, tiny_dataset):
    entity_ids = tiny_dataset.entity_ids()
    # an id with no embedding (and no name) sends every entity per pair
    _assert_affinities_match(lm, [entity_ids[0], 10**9, entity_ids[5]], entity_ids)
    assert lm.prompt_affinities([]) == dict.fromkeys(entity_ids, 0.0)
    unembedded = CausalEntityLM(CausalLMConfig(further_pretrain=False)).fit(
        tiny_dataset.corpus, tiny_dataset.entities()
    )
    prompt = _prompts(tiny_dataset)[0]
    affinities = unembedded.prompt_affinities(prompt)
    assert affinities == {
        entity_id: unembedded.prompt_affinity(entity_id, prompt) for entity_id in entity_ids
    }


def test_generate_constrained_matches_per_pair_reference(lm, prefix_tree, tiny_dataset):
    for query, prompt in zip(tiny_dataset.queries, _prompts(tiny_dataset)):
        exclude = {
            tiny_dataset.entity(eid).name
            for eid in (*query.positive_seed_ids, *query.negative_seed_ids)
        }
        generated = lm.generate_constrained(prompt, prefix_tree, exclude_names=exclude)
        reference = per_pair_generate(lm, prompt, prefix_tree, exclude_names=exclude)
        assert [name for name, _ in generated] == [name for name, _ in reference], (
            query.query_id
        )
        np.testing.assert_allclose(
            [score for _, score in generated], [score for _, score in reference], rtol=1e-12
        )


def test_generate_constrained_makes_no_entity_affinity_calls(
    lm, prefix_tree, tiny_dataset, monkeypatch
):
    """Deterministic work guard: decoding reads the per-call affinity
    product and never falls back to per-pair affinities."""
    calls = []
    original = lm.entity_affinity

    def counting(entity_a, entity_b):
        calls.append((entity_a, entity_b))
        return original(entity_a, entity_b)

    monkeypatch.setattr(lm, "entity_affinity", counting)
    for prompt in _prompts(tiny_dataset)[:10]:
        assert lm.generate_constrained(prompt, prefix_tree)
    assert calls == []
    # the guard itself sees per-pair work when there is some
    lm.prompt_affinity(tiny_dataset.entity_ids()[0], _prompts(tiny_dataset)[0])
    assert calls
