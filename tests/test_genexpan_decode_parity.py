"""GenExpan decode parity: the batched constrained decode against the two
step-by-step decodes it replaced.

``per_pair_generate`` is a copy of ``CausalEntityLM.generate_constrained``
as it was before the prompt affinities became one product: every (beam,
token) pair re-scores its reachable entities through ``prompt_affinity``,
one ``entity_affinity`` call per (entity, prompt entity) pair.  The
product's dot products may differ from per-pair ``np.dot`` in the last
ulps, so affinities are compared within ``AFFINITY_TOLERANCE`` and scores
within ``rtol=1e-12``; the names a decode returns must be identical.

``step_by_step_generate`` is a copy of the decode as it was before each
beam step became one array batch: one ``token_score`` call per (beam,
token) pair, each walking the prefix tree from the root and calling the
scalar n-gram.  It reads the same ``prompt_affinities``, so the batched
decode must return the same names with bitwise-equal scores.

Both copies are kept here, and only here, as references.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CausalLMConfig
from repro.core.resources import SharedResources
from repro.genexpan import GenExpan
from repro.lm.causal_lm import CausalEntityLM, NGramLanguageModel, TokenIdNGram
from repro.store import ArtifactStore
from repro.text.prefix_tree import PrefixTree
from repro.text.tokenizer import WordTokenizer

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


def step_by_step_generate(
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
    affinity = dict(zip(lm.entity_ids, lm.prompt_affinities(prompt_entity_ids).tolist()))

    def token_score(prefix: list[str], token: str) -> float:
        logprob = lm._ngram.logprob(context + prefix, token)
        reachable = prefix_tree.entities_with_prefix(prefix + [token])
        best_affinity = max(
            (affinity[name_to_id[name]] for name in reachable[:20] if name in name_to_id),
            default=0.0,
        )
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


def _bits(ranked):
    return [(name, float(score).hex()) for name, score in ranked]


@pytest.fixture(scope="module")
def lm(resources):
    return resources.causal_lm()


@pytest.fixture(scope="module")
def unembedded_lm(tiny_dataset):
    return CausalEntityLM(CausalLMConfig(further_pretrain=False)).fit(
        tiny_dataset.corpus, tiny_dataset.entities()
    )


@pytest.fixture(scope="module")
def prefix_tree(resources):
    return resources.prefix_tree()


def _prompts(dataset):
    """Round-0 GenExpan prompts: up to three positive seeds per query."""
    return [list(query.positive_seed_ids[:3]) for query in dataset.queries]


def _affinity_dict(lm, prompt):
    affinities = lm.prompt_affinities(prompt)
    assert affinities.shape == (len(lm.entity_ids),)
    return dict(zip(lm.entity_ids, affinities.tolist()))


def _assert_affinities_match(lm, prompt, entity_ids):
    affinities = _affinity_dict(lm, prompt)
    assert set(affinities) == set(entity_ids)
    for entity_id in entity_ids:
        expected = lm.prompt_affinity(entity_id, prompt)
        assert abs(affinities[entity_id] - expected) <= AFFINITY_TOLERANCE, entity_id


def test_affinity_vector_matches_prompt_affinity(lm, tiny_dataset):
    entity_ids = tiny_dataset.entity_ids()
    for prompt in _prompts(tiny_dataset):
        _assert_affinities_match(lm, prompt, entity_ids)


def test_affinity_pairs_without_embeddings_keep_the_name_fallback(
    lm, unembedded_lm, tiny_dataset
):
    entity_ids = tiny_dataset.entity_ids()
    # an id with no embedding (and no name) sends every entity per pair
    _assert_affinities_match(lm, [entity_ids[0], 10**9, entity_ids[5]], entity_ids)
    assert _affinity_dict(lm, []) == dict.fromkeys(entity_ids, 0.0)
    prompt = _prompts(tiny_dataset)[0]
    affinities = _affinity_dict(unembedded_lm, prompt)
    assert affinities == {
        entity_id: unembedded_lm.prompt_affinity(entity_id, prompt) for entity_id in entity_ids
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


def test_generate_constrained_matches_step_by_step_bitwise(
    lm, unembedded_lm, prefix_tree, tiny_dataset
):
    """Same names, bitwise-equal scores: every ``tiny`` query, then the edge
    prompts (empty, an unknown id, an LM without embeddings) and beam
    widths 1, 5 and 24."""
    for query, prompt in zip(tiny_dataset.queries, _prompts(tiny_dataset)):
        exclude = {
            tiny_dataset.entity(eid).name
            for eid in (*query.positive_seed_ids, *query.negative_seed_ids)
        }
        generated = lm.generate_constrained(prompt, prefix_tree, exclude_names=exclude)
        reference = step_by_step_generate(lm, prompt, prefix_tree, exclude_names=exclude)
        assert _bits(generated) == _bits(reference), query.query_id
    prompt = _prompts(tiny_dataset)[0]
    edge_prompts = ([], [10**9], [prompt[0], 10**9], prompt)
    for model in (lm, unembedded_lm):
        for edge in edge_prompts:
            for beam_width in (1, 5, 24):
                generated = model.generate_constrained(edge, prefix_tree, beam_width=beam_width)
                reference = step_by_step_generate(model, edge, prefix_tree, beam_width=beam_width)
                assert _bits(generated) == _bits(reference), (edge, beam_width)


def test_decode_walks_no_tree_and_calls_no_scalar_lm(lm, prefix_tree, tiny_dataset, monkeypatch):
    """Deterministic work guard: once the tables are built, a decode makes
    no prefix-tree walk from the root and no scalar n-gram call."""
    lm.prepare_decoding(prefix_tree)
    calls = {"walk": 0, "probability": 0}

    def counting(owner, attribute, key):
        original = getattr(owner, attribute)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, counted)

    counting(PrefixTree, "_walk", "walk")
    counting(NGramLanguageModel, "probability", "probability")
    for prompt in _prompts(tiny_dataset)[:10]:
        assert lm.generate_constrained(prompt, prefix_tree)
    assert calls == {"walk": 0, "probability": 0}
    # the guard sees the work of the step-by-step decode it replaced
    step_by_step_generate(lm, _prompts(tiny_dataset)[0], prefix_tree)
    assert calls["walk"] > 0 and calls["probability"] > 0


def _decode_tokens(lm):
    """Tokens of 40 entity names plus two the LM never saw."""
    tokenizer = WordTokenizer()
    names = sorted({e.name for e in lm._entities_by_id.values()})[:40]
    return sorted({t for name in names for t in tokenizer.tokenize_entity_name(name)}) + [
        "qqzx",
        "zzqy",
    ]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_insert_drops_the_compiled_tree(lm, tiny_dataset, data):
    """The compiled tree is keyed on a mutable ``PrefixTree``: after any
    ``insert``, the next decode recompiles and still matches the
    step-by-step decode over the grown tree."""
    tokens = _decode_tokens(lm)
    names = [entity.name for entity in tiny_dataset.entities()]
    paths = st.lists(
        st.tuples(st.lists(st.sampled_from(tokens), min_size=1, max_size=3), st.sampled_from(names)),
        min_size=1,
        max_size=12,
    )
    before, after = data.draw(paths), data.draw(paths)
    prompt = data.draw(st.sampled_from(_prompts(tiny_dataset)))
    tree = PrefixTree()
    for path, name in before:
        tree.insert(path, name)
    stale = lm.prepare_decoding(tree)
    assert _bits(lm.generate_constrained(prompt, tree)) == _bits(
        step_by_step_generate(lm, prompt, tree)
    )
    for path, name in after:
        tree.insert(path, name)
    assert lm.prepare_decoding(tree) is not stale
    assert _bits(lm.generate_constrained(prompt, tree)) == _bits(
        step_by_step_generate(lm, prompt, tree)
    )


def test_genexpan_builds_the_decode_tables_when_it_binds(
    tiny_dataset, tmp_path, monkeypatch
):
    """Fit and restore both build the tables, so the requests that follow
    build nothing."""
    builds = {"tree": 0, "ngram": 0}
    compile_tree, build_ngram = PrefixTree.compile, TokenIdNGram.__init__

    def counting_compile(*args, **kwargs):
        builds["tree"] += 1
        return compile_tree(*args, **kwargs)

    def counting_ngram(*args, **kwargs):
        builds["ngram"] += 1
        return build_ngram(*args, **kwargs)

    monkeypatch.setattr(PrefixTree, "compile", counting_compile)
    monkeypatch.setattr(TokenIdNGram, "__init__", counting_ngram)
    query = tiny_dataset.queries[0]
    fitted = GenExpan(resources=SharedResources(tiny_dataset)).fit(tiny_dataset)
    assert builds == {"tree": 1, "ngram": 1}
    fitted.expand(query, top_k=10)
    assert builds == {"tree": 1, "ngram": 1}

    store = ArtifactStore(tmp_path)
    store.save("genexpan", tiny_dataset.fingerprint(), fitted)
    restored = GenExpan(resources=SharedResources(tiny_dataset))
    store.restore("genexpan", tiny_dataset.fingerprint(), restored, tiny_dataset)
    assert builds == {"tree": 2, "ngram": 2}
    assert restored.expand(query, top_k=10).ranking == fitted.expand(query, top_k=10).ranking
    assert builds == {"tree": 2, "ngram": 2}
