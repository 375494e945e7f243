"""Shared experiment context.

Building the dataset and fitting the substrates dominates experiment wall
clock, so a single :class:`ExperimentContext` is shared by every table /
figure module: it owns the dataset, the :class:`SharedResources` cache, a
method factory covering every compared method, and evaluation helpers with a
query budget so the whole harness completes on a laptop CPU.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.baselines import CGExpan, CaSE, GPT4Expander, ProbExpan, SetExpan
from repro.config import DatasetConfig, GenExpanConfig, RetExpanConfig
from repro.core.base import Expander
from repro.core.resources import SharedResources
from repro.dataset.builder import build_dataset
from repro.dataset.ultrawiki import UltraWikiDataset
from repro.eval.evaluator import EvaluationReport, Evaluator
from repro.exceptions import ConfigurationError
from repro.genexpan import GenExpan
from repro.retexpan import RetExpan
from repro.types import Query


class ExperimentContext:
    """Holds the dataset, shared resources, and evaluation budget."""

    def __init__(
        self,
        dataset: UltraWikiDataset | None = None,
        dataset_config: DatasetConfig | None = None,
        max_queries: int | None = 40,
        genexpan_max_queries: int | None = 20,
        seed: int = 7,
    ):
        """``max_queries`` bounds retrieval-style evaluations;
        ``genexpan_max_queries`` bounds generation-style evaluations, which are
        slower because of per-query beam search."""
        self.dataset = dataset or build_dataset(dataset_config or DatasetConfig.small())
        self.resources = SharedResources(self.dataset)
        self.max_queries = max_queries
        self.genexpan_max_queries = genexpan_max_queries
        self.seed = seed
        self._evaluators: dict[tuple, Evaluator] = {}
        self._reports: dict[tuple[str, tuple], EvaluationReport] = {}

    # -- evaluators -----------------------------------------------------------------
    def evaluator(
        self,
        max_queries: int | None = None,
        query_filter: Callable[[Query], bool] | None = None,
        filter_key: str = "",
    ) -> Evaluator:
        """A (cached) evaluator with the given budget and query filter."""
        key = (max_queries, filter_key)
        if query_filter is not None and not filter_key:
            raise ConfigurationError("query_filter requires a filter_key for caching")
        if key not in self._evaluators:
            self._evaluators[key] = Evaluator(
                self.dataset,
                max_queries=max_queries,
                query_filter=query_filter,
                seed=self.seed,
            )
        return self._evaluators[key]

    # -- method factory -----------------------------------------------------------------
    def make_method(self, name: str) -> Expander:
        """Instantiate a method by its paper name (not yet fitted)."""
        resources = self.resources
        factories: dict[str, Callable[[], Expander]] = {
            "SetExpan": lambda: SetExpan(),
            "CaSE": lambda: CaSE(resources=resources),
            "CGExpan": lambda: CGExpan(resources=resources),
            "ProbExpan": lambda: ProbExpan(resources=resources),
            "ProbExpan + Neg Rerank": lambda: ProbExpan(
                resources=resources, use_negative_rerank=True
            ),
            "GPT4": lambda: GPT4Expander(resources=resources),
            "RetExpan": lambda: RetExpan(resources=resources),
            "RetExpan + Contrast": lambda: RetExpan(
                RetExpanConfig(use_contrastive=True),
                resources=resources,
                contrastive_queries=self._contrastive_queries(),
            ),
            "RetExpan - Neg Rerank": lambda: RetExpan(
                RetExpanConfig(use_negative_rerank=False),
                resources=resources,
                name="RetExpan - Neg Rerank",
            ),
            "RetExpan - Entity prediction": lambda: RetExpan(
                RetExpanConfig(use_entity_prediction=False),
                resources=resources,
                name="RetExpan - Entity prediction",
            ),
            "GenExpan": lambda: GenExpan(resources=resources),
            "GenExpan + CoT": lambda: GenExpan(
                GenExpanConfig(cot_mode="gen_class_gen_pos"), resources=resources
            ),
            "GenExpan - Neg Rerank": lambda: GenExpan(
                GenExpanConfig(use_negative_rerank=False),
                resources=resources,
                name="GenExpan - Neg Rerank",
            ),
            "GenExpan - Prefix constrain": lambda: GenExpan(
                GenExpanConfig(use_prefix_constraint=False),
                resources=resources,
                name="GenExpan - Prefix constrain",
            ),
            "GenExpan - Further pretrain": lambda: GenExpan(
                GenExpanConfig(use_further_pretrain=False),
                resources=resources,
                name="GenExpan - Further pretrain",
            ),
        }
        if name not in factories:
            raise ConfigurationError(f"unknown method {name!r}")
        return factories[name]()

    def make_genexpan_cot(self, cot_mode: str, name: str) -> Expander:
        """A GenExpan variant with an explicit chain-of-thought mode (Table VIII)."""
        return GenExpan(
            GenExpanConfig(cot_mode=cot_mode), resources=self.resources, name=name
        )

    def _contrastive_queries(self) -> list[Query]:
        """Queries used for contrastive-data mining (bounded by the budget)."""
        return self.evaluator(max_queries=self.max_queries).queries

    # -- evaluation helpers -----------------------------------------------------------------
    def budget_for(self, method_name: str) -> int | None:
        """Query budget for a method (generation methods get the smaller budget)."""
        if method_name.startswith("GenExpan"):
            return self.genexpan_max_queries
        return self.max_queries

    def evaluate_method(
        self, method_name: str, max_queries: int | None = None
    ) -> EvaluationReport:
        """Evaluate a method by name, caching the report."""
        budget = max_queries if max_queries is not None else self.budget_for(method_name)
        key = (method_name, (budget,))
        if key not in self._reports:
            expander = self.make_method(method_name).fit(self.dataset)
            evaluator = self.evaluator(max_queries=budget)
            self._reports[key] = evaluator.evaluate(expander)
        return self._reports[key]

    # -- query grouping helpers -------------------------------------------------------------
    def attribute_equality_of(self, query: Query) -> str:
        """"same" when A_pos and A_neg constrain the same attributes, else "diff"."""
        ultra = self.dataset.ultra_class(query.class_id)
        return "same" if ultra.same_attributes else "diff"

    def attribute_cardinality_of(self, query: Query) -> tuple[int, int]:
        """(|A_pos|, |A_neg|) of the query's class (Table VI grouping)."""
        return self.dataset.ultra_class(query.class_id).attribute_cardinality


def metric_rows(
    reports: Sequence[EvaluationReport],
    metric_types: Sequence[str] = ("pos", "neg", "comb"),
    cutoffs: Sequence[int] = (10, 20, 50, 100),
) -> list[dict]:
    """Paper-style rows (method × metric type) from a list of reports."""
    rows = []
    for metric_type in metric_types:
        for report in reports:
            row = {"metric": metric_type.capitalize(), "method": report.method}
            for k in cutoffs:
                row[f"MAP@{k}"] = report.value(metric_type, "map", k)
            for k in cutoffs:
                row[f"P@{k}"] = report.value(metric_type, "p", k)
            row["Avg"] = report.average(metric_type)
            rows.append(row)
    return rows
