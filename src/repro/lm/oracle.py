"""Simulated GPT-4 oracle.

The paper uses GPT-4 in three roles: (i) as a prompt-only baseline expander,
(ii) to mine the contrastive training lists ``L_pos`` / ``L_neg`` from the
initial expansion, and (iii) implicitly as the quality ceiling for
chain-of-thought labels.  This class reproduces all three with a noisy view
of the ground-truth attributes:

* the probability of mis-reading an attribute grows as entity popularity
  shrinks (GPT-4's documented weakness on long-tail entities);
* a fraction of generated entries are hallucinated names that do not exist
  in the candidate vocabulary;
* inferring *negative* attributes (contrasting positive and negative seeds)
  carries extra error, matching the paper's observation that negative
  attribute reasoning is the hardest step.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from repro.config import OracleConfig
from repro.exceptions import ModelError
from repro.types import Entity
from repro.utils.rng import RandomState, derive_seeds, first_uniform

_FAKE_NAME_PARTS = (
    "Zephyr", "Quantum", "Nimbus", "Vertex", "Aurora", "Solstice", "Pinnacle",
    "Mirage", "Cascade", "Obelisk",
)


class OracleLLM:
    """A noisy, ground-truth-backed large language model stand-in."""

    def __init__(
        self,
        entities: Sequence[Entity],
        attribute_values: Mapping[str, Mapping[str, tuple[str, ...]]],
        config: OracleConfig | None = None,
        class_descriptions: Mapping[str, str] | None = None,
    ):
        """``attribute_values`` maps fine class → attribute → possible values."""
        self.config = config or OracleConfig()
        self.config.validate()
        self._rng = RandomState(self.config.seed)
        self._entities = {entity.entity_id: entity for entity in entities}
        self._attribute_values = {
            cls: {attr: tuple(vals) for attr, vals in attrs.items()}
            for cls, attrs in attribute_values.items()
        }
        self._class_descriptions = dict(class_descriptions or {})
        #: cached noisy attribute reads so the oracle is self-consistent.
        self._belief_cache: dict[tuple[int, str], str | None] = {}

    # -- attribute knowledge ---------------------------------------------------
    def _error_probability(self, entity: Entity) -> float:
        long_tail_weight = 1.0 - max(min(entity.popularity, 1.0), 0.0)
        return min(
            1.0,
            self.config.base_error_rate
            + long_tail_weight * self.config.long_tail_error_rate,
        )

    def read_attribute(self, entity_id: int, attribute: str) -> str | None:
        """The oracle's belief about an attribute value (noisy, cached)."""
        key = (entity_id, attribute)
        if key in self._belief_cache:
            return self._belief_cache[key]
        entity = self._entities.get(entity_id)
        if entity is None:
            raise ModelError(f"unknown entity {entity_id}")
        true_value = entity.attributes.get(attribute)
        belief: str | None
        if true_value is None:
            belief = None
        else:
            rng = self._rng.child("read", entity_id, attribute)
            if rng.random() < self._error_probability(entity):
                choices = self._attribute_values.get(entity.fine_class or "", {}).get(
                    attribute, ()
                )
                wrong = [value for value in choices if value != true_value]
                belief = wrong[rng.integers(0, len(wrong))] if wrong else None
            else:
                belief = true_value
        self._belief_cache[key] = belief
        return belief

    # -- reasoning -------------------------------------------------------------
    def infer_shared_attributes(self, entity_ids: Sequence[int]) -> dict[str, str]:
        """Attributes on which the (noisily read) entities agree almost unanimously.

        A high agreement threshold (80% of the seeds) keeps attributes the
        seeds merely share by chance from being mistaken for the intended
        constraint — the same conservative reading a careful prompt would
        elicit from GPT-4.
        """
        if not entity_ids:
            return {}
        first = self._entities.get(entity_ids[0])
        if first is None or first.fine_class is None:
            return {}
        attributes = self._attribute_values.get(first.fine_class, {})
        threshold = max(2, int(0.8 * len(entity_ids) + 0.5))
        shared: dict[str, str] = {}
        for attribute in attributes:
            votes = Counter(
                value
                for value in (
                    self.read_attribute(eid, attribute) for eid in entity_ids
                )
                if value is not None
            )
            if not votes:
                continue
            value, count = votes.most_common(1)[0]
            if count >= threshold:
                shared[attribute] = value
        return shared

    def infer_positive_attributes(self, positive_seed_ids: Sequence[int]) -> dict[str, str]:
        """CoT step: attributes shared by the positive seeds."""
        return self.infer_shared_attributes(positive_seed_ids)

    def infer_negative_attributes(
        self,
        positive_seed_ids: Sequence[int],
        negative_seed_ids: Sequence[int],
    ) -> dict[str, str]:
        """CoT step: attributes shared by negative seeds that differ from the positives.

        This comparison is harder than positive inference (two constraints
        must hold simultaneously), so an additional confusion step is applied:
        with some probability the oracle reports an unrelated attribute.
        """
        negative_shared = self.infer_shared_attributes(negative_seed_ids)
        positive_shared = self.infer_shared_attributes(positive_seed_ids)
        inferred = {
            attribute: value
            for attribute, value in negative_shared.items()
            if positive_shared.get(attribute) != value
        }
        if not negative_seed_ids:
            return inferred
        first = self._entities.get(negative_seed_ids[0])
        if first is None or first.fine_class is None:
            return inferred
        rng = self._rng.child("neg_infer", tuple(sorted(negative_seed_ids)))
        confused: dict[str, str] = {}
        attribute_space = self._attribute_values.get(first.fine_class, {})
        for attribute, value in inferred.items():
            if rng.random() < 2.0 * self.config.base_error_rate:
                other_attributes = [a for a in attribute_space if a != attribute]
                if other_attributes:
                    wrong_attr = other_attributes[rng.integers(0, len(other_attributes))]
                    values = attribute_space[wrong_attr]
                    confused[wrong_attr] = values[rng.integers(0, len(values))]
                    continue
            confused[attribute] = value
        return confused

    def infer_class_name(self, seed_ids: Sequence[int]) -> str:
        """CoT step: a generated class name reflecting the inferred positive attributes."""
        if not seed_ids:
            return "entities"
        first = self._entities.get(seed_ids[0])
        if first is None or first.fine_class is None:
            return "entities"
        base = self._class_descriptions.get(first.fine_class, first.fine_class)
        shared = self.infer_shared_attributes(seed_ids)
        if shared:
            detail = ", ".join(f"{attr} = {value}" for attr, value in sorted(shared.items()))
            return f"{base} with {detail}"
        return base

    # -- selection / expansion ----------------------------------------------------
    def _match_score(self, entity_id: int, assignment: Mapping[str, str]) -> int:
        return sum(
            1
            for attribute, value in assignment.items()
            if self.read_attribute(entity_id, attribute) == value
        )

    def select_similar(
        self,
        seed_ids: Sequence[int],
        candidate_ids: Sequence[int],
        top_t: int = 10,
    ) -> list[int]:
        """Return the ``top_t`` candidates the oracle judges most similar to the seeds.

        Used to mine ``L_pos`` / ``L_neg`` from the initial expansion list
        during ultra-fine-grained contrastive learning.
        """
        shared = self.infer_shared_attributes(seed_ids)
        scored = []
        for candidate in candidate_ids:
            entity = self._entities.get(candidate)
            if entity is None:
                continue
            score = self._match_score(candidate, shared) if shared else 0
            scored.append((candidate, score, entity.popularity))
        scored.sort(key=lambda item: (-item[1], -item[2], item[0]))
        return [candidate for candidate, _, _ in scored[:top_t]]

    def expand(
        self,
        positive_seed_ids: Sequence[int],
        negative_seed_ids: Sequence[int],
        candidate_ids: Sequence[int],
        top_k: int = 100,
    ) -> list[str]:
        """The GPT-4 baseline: a ranked list of generated entity *names*.

        The list may contain hallucinated names (which do not exist in the
        candidate vocabulary) and misses long-tail entities whose attributes
        the oracle mis-reads — both behaviours reported in Section VI-B(5).
        """
        positive_assignment = self.infer_shared_attributes(positive_seed_ids)
        negative_shared = self.infer_shared_attributes(negative_seed_ids)
        negative_assignment = {
            attribute: value
            for attribute, value in negative_shared.items()
            if positive_assignment.get(attribute) != value
        }
        rng = self._rng.child(
            "expand", tuple(sorted(positive_seed_ids)), tuple(sorted(negative_seed_ids))
        )
        seeds = set(positive_seed_ids) | set(negative_seed_ids)
        known = [
            (candidate, self._entities[candidate])
            for candidate in candidate_ids
            if candidate not in seeds and candidate in self._entities
        ]
        # Knowledge gate: the oracle simply does not recall very obscure
        # entities often enough to include them.  Each candidate's draw is
        # the first uniform of its child stream ``rng.child(candidate)``,
        # drawn for all candidates at once.
        draws = first_uniform(derive_seeds(rng.seed, [c for c, _ in known])).tolist()
        scored: list[tuple[float, str]] = []
        for (candidate, entity), draw in zip(known, draws):
            if draw < 0.6 * self._error_probability(entity):
                continue
            positive_match = self._match_score(candidate, positive_assignment)
            negative_match = self._match_score(candidate, negative_assignment)
            score = (
                2.0 * positive_match
                - 2.0 * negative_match
                + 0.2 * entity.popularity
            )
            scored.append((score, entity.name))
        scored.sort(key=lambda item: (-item[0], item[1]))
        names = [name for _, name in scored[:top_k]]

        # Hallucinations: insert fabricated names at random positions.
        output: list[str] = []
        for name in names:
            if rng.random() < self.config.hallucination_rate:
                fake = (
                    f"{_FAKE_NAME_PARTS[rng.integers(0, len(_FAKE_NAME_PARTS))]} "
                    f"{_FAKE_NAME_PARTS[rng.integers(0, len(_FAKE_NAME_PARTS))]}"
                )
                output.append(fake)
            output.append(name)
        return output[:top_k]
