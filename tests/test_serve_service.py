"""Tests for the online expansion service (registry + cache + inline expand)."""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config import ServiceConfig
from repro.core.base import Expander
from repro.exceptions import (
    DatasetError,
    ExpansionError,
    ServiceError,
    UnknownMethodError,
)
from repro.obs import tenant_scope
from repro.serve import ExpandOptions, ExpandRequest, ExpansionService, ResultCache
from repro.types import ExpansionResult
from repro.utils.iox import to_jsonable


class CountingExpander(Expander):
    """A cheap expander that records fits and ``_expand`` calls.

    ``_expand`` deliberately scores *every* entity — including the query's
    seeds — so the tests can verify that seed filtering survives the whole
    service path.  It also records the thread each call ran on and the most
    calls ever in flight at once (``expand_delay`` holds each call open).
    """

    name = "stub"

    def __init__(self, fit_delay: float = 0.0, expand_delay: float = 0.0):
        super().__init__()
        self.fit_calls = 0
        self.fit_delay = fit_delay
        self.expand_delay = expand_delay
        self.expand_threads: list[threading.Thread] = []
        self.max_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    @property
    def expand_calls(self) -> int:
        return len(self.expand_threads)

    def _fit(self, dataset) -> None:
        self.fit_calls += 1
        if self.fit_delay:
            time.sleep(self.fit_delay)

    def _expand(self, query, top_k) -> ExpansionResult:
        with self._lock:
            self.expand_threads.append(threading.current_thread())
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)
        try:
            if self.expand_delay:
                time.sleep(self.expand_delay)
            scored = [(eid, 1.0 / (1.0 + eid)) for eid in self.dataset.entity_ids()]
            return ExpansionResult.from_scores(query.query_id, scored)
        finally:
            with self._lock:
                self._in_flight -= 1


class FailingExpander(CountingExpander):
    def _expand(self, query, top_k) -> ExpansionResult:
        super()._expand(query, top_k)
        raise ExpansionError("stub expander failed")


def make_service(
    dataset,
    config=None,
    fit_delay=0.0,
    expand_delay=0.0,
    expander_class=CountingExpander,
    methods=("stub", "stub2"),
):
    """A service whose only methods are independent stub expanders."""
    created: dict[str, list[CountingExpander]] = {name: [] for name in methods}

    def factory_for(name):
        def factory(_resources):
            expander = expander_class(fit_delay=fit_delay, expand_delay=expand_delay)
            created[name].append(expander)
            return expander

        return factory

    service = ExpansionService(
        dataset,
        config=config,
        factories={name: factory_for(name) for name in methods},
    )
    return service, created


def uncached(query_id: str) -> ExpandRequest:
    return ExpandRequest(
        method="stub", query_id=query_id, options=ExpandOptions(use_cache=False)
    )


class TestRegistryReuse:
    def test_expander_fitted_at_most_once_across_concurrent_requests(self, tiny_dataset):
        service, created = make_service(tiny_dataset, fit_delay=0.05)
        queries = tiny_dataset.queries[:8]
        with service:
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = list(
                    pool.map(
                        lambda q: service.submit(
                            ExpandRequest(method="stub", query_id=q.query_id, options=ExpandOptions(top_k=10))
                        ),
                        queries,
                    )
                )
        assert len(responses) == len(queries)
        assert len(created["stub"]) == 1
        assert created["stub"][0].fit_calls == 1
        assert service.stats()["registry"]["fits"] == 1

    def test_sequential_requests_reuse_the_fitted_expander(self, tiny_dataset):
        service, created = make_service(tiny_dataset)
        with service:
            for query in tiny_dataset.queries[:3]:
                service.submit(ExpandRequest(method="stub", query_id=query.query_id))
        assert len(created["stub"]) == 1

    def test_every_method_is_fitted_once_for_the_life_of_the_service(self, tiny_dataset):
        """Ten methods, each expanded twice and fitted once: every one is
        fitted once and served by that one expander ever after; nothing is
        evicted."""
        names = [f"stub{index}" for index in range(10)]
        service, created = make_service(tiny_dataset, methods=names)
        query_id = tiny_dataset.queries[0].query_id
        with service:
            for _ in range(2):
                for name in names:
                    service.submit(
                        ExpandRequest(
                            method=name, query_id=query_id, options=ExpandOptions(use_cache=False)
                        )
                    )
            outcomes = [service.fit(name)["outcome"] for name in names]
        assert outcomes == ["already_fitted"] * len(names)
        assert {name: len(built) for name, built in created.items()} == dict.fromkeys(names, 1)
        assert all(built[0].fit_calls == 1 and built[0].expand_calls == 2 for built in created.values())
        registry = service.stats()["registry"]
        assert registry["fits"] == len(names)
        assert registry["fitted"] == sorted(names)


class TestResultCache:
    def test_second_identical_request_is_served_from_cache(self, tiny_dataset):
        service, created = make_service(tiny_dataset)
        request = ExpandRequest(
            method="stub",
            query_id=tiny_dataset.queries[0].query_id,
            options=ExpandOptions(top_k=10),
        )
        with service:
            first = service.submit(request)
            second = service.submit(request)
        assert first.cached is False
        assert second.cached is True
        assert first.entity_ids() == second.entity_ids()
        stats = service.stats()["cache"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        # only the first request reached the expander.
        assert created["stub"][0].expand_calls == 1

    def test_different_top_k_is_a_different_cache_entry(self, tiny_dataset):
        service, _ = make_service(tiny_dataset)
        query_id = tiny_dataset.queries[0].query_id
        with service:
            service.submit(ExpandRequest(method="stub", query_id=query_id, options=ExpandOptions(top_k=10)))
            response = service.submit(
                ExpandRequest(method="stub", query_id=query_id, options=ExpandOptions(top_k=20))
            )
        assert response.cached is False
        assert len(response.ranking) == 20

    def test_use_cache_false_bypasses_the_cache(self, tiny_dataset):
        service, created = make_service(tiny_dataset)
        request = ExpandRequest(
            method="stub",
            query_id=tiny_dataset.queries[0].query_id,
            options=ExpandOptions(use_cache=False),
        )
        with service:
            assert service.submit(request).cached is False
            assert service.submit(request).cached is False
        assert created["stub"][0].expand_calls == 2

    def test_lru_eviction_is_counted(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2


class TestInlineExecution:
    def test_uncached_submit_expands_on_the_submitting_thread(self, tiny_dataset):
        service, created = make_service(tiny_dataset, config=ServiceConfig())
        with service:
            service.submit(uncached(tiny_dataset.queries[0].query_id))
        assert created["stub"][0].expand_threads == [threading.current_thread()]

    def test_admission_bounds_concurrent_expands(self, tiny_dataset):
        config = ServiceConfig(admission_max_concurrent=1)
        service, created = make_service(tiny_dataset, config=config, expand_delay=0.02)
        queries = tiny_dataset.queries[:8]
        with service:
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = list(
                    pool.map(lambda q: service.submit(uncached(q.query_id)), queries)
                )
        expander = created["stub"][0]
        assert expander.expand_calls == len(queries)
        assert expander.max_in_flight == 1
        for query, response in zip(queries, responses):
            assert response.query_id == query.query_id

    def test_failed_expand_is_billed_to_the_caller(self, tiny_dataset):
        service, _ = make_service(tiny_dataset, expander_class=FailingExpander)
        with service:
            with tenant_scope("acme"):
                with pytest.raises(ExpansionError, match="stub expander failed"):
                    service.submit(uncached(tiny_dataset.queries[0].query_id))
            bill = service.stats()["usage"]["tenants"]["acme"]
        assert bill["requests"] == 1
        assert bill["compute_seconds"] > 0.0


class TestServicePath:
    def test_seed_filtering_is_preserved_through_the_service(self, tiny_dataset):
        service, _ = make_service(tiny_dataset)
        query = tiny_dataset.queries[0]
        with service:
            response = service.submit(
                ExpandRequest(method="stub", query_id=query.query_id, options=ExpandOptions(top_k=50))
            )
        returned = set(response.entity_ids())
        assert returned  # the stub scored every entity, seeds included
        assert not returned & set(query.positive_seed_ids)
        assert not returned & set(query.negative_seed_ids)

    def test_adhoc_query_expands_and_caches(self, tiny_dataset):
        query = tiny_dataset.queries[0]
        request = ExpandRequest(
            method="stub",
            class_id=query.class_id,
            positive_seed_ids=query.positive_seed_ids,
            negative_seed_ids=query.negative_seed_ids,
            options=ExpandOptions(top_k=10),
        )
        service, _ = make_service(tiny_dataset)
        with service:
            first = service.submit(request)
            second = service.submit(request)
        assert first.query_id.startswith("adhoc-")
        assert first.cached is False
        assert second.cached is True  # same seeds -> same cache key

    def test_response_entities_resolve_names(self, tiny_dataset):
        service, _ = make_service(tiny_dataset)
        with service:
            response = service.submit(
                ExpandRequest(method="stub", query_id=tiny_dataset.queries[0].query_id)
            )
        for item in response.ranking[:5]:
            assert item.name == tiny_dataset.entity(item.entity_id).name

    def test_response_is_jsonable(self, tiny_dataset):
        service, _ = make_service(tiny_dataset)
        with service:
            response = service.submit(
                ExpandRequest(method="stub", query_id=tiny_dataset.queries[0].query_id)
            )
        payload = json.loads(json.dumps(to_jsonable(response)))
        assert payload["cached"] is False
        assert payload["ranking"][0]["entity_id"] == response.ranking[0].entity_id


class TestErrors:
    def test_unknown_method_is_rejected(self, tiny_dataset):
        service, _ = make_service(tiny_dataset)
        with service:
            with pytest.raises(UnknownMethodError):
                service.submit(
                    ExpandRequest(
                        method="nope", query_id=tiny_dataset.queries[0].query_id
                    )
                )
        assert service.stats()["service"]["errors"] == 1

    def test_unknown_query_id_is_rejected(self, tiny_dataset):
        service, _ = make_service(tiny_dataset)
        with service:
            with pytest.raises(DatasetError):
                service.submit(ExpandRequest(method="stub", query_id="no-such-query"))

    def test_unknown_class_is_rejected(self, tiny_dataset):
        service, _ = make_service(tiny_dataset)
        with service:
            with pytest.raises(DatasetError):
                service.submit(
                    ExpandRequest(
                        method="stub", class_id="no-such-class", positive_seed_ids=(1,)
                    )
                )

    def test_request_validation(self):
        with pytest.raises(ServiceError):
            ExpandRequest(method="stub").validate()  # neither query_id nor seeds
        with pytest.raises(ServiceError):
            ExpandRequest(method="stub", query_id="q", class_id="c").validate()
        with pytest.raises(ServiceError):
            ExpandRequest(
                method="stub", query_id="q", options=ExpandOptions(top_k=0)
            ).validate()
        with pytest.raises(ServiceError):
            ExpandRequest.from_dict({"method": "stub", "bogus": 1})
        with pytest.raises(ServiceError):
            # a JSON string must not be iterated character-by-character
            ExpandRequest.from_dict(
                {"method": "stub", "class_id": "c", "positive_seed_ids": "12"}
            )

    def test_cache_key_normalizes_the_method_spelling(self):
        key = ExpandRequest(method=" RetExpan ", query_id="q").cache_key(10)
        assert key == ExpandRequest(method="retexpan", query_id="q").cache_key(10)

    def test_submitting_after_close_fails(self, tiny_dataset):
        service, _ = make_service(tiny_dataset)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(
                ExpandRequest(method="stub", query_id=tiny_dataset.queries[0].query_id)
            )


class TestDefaultRegistry:
    def test_default_methods_are_listed(self, tiny_dataset, resources):
        service = ExpansionService(
            tiny_dataset,
            resources=resources,
        )
        with service:
            names = [info.method for info in service.methods()]
        assert {"retexpan", "genexpan", "setexpan", "probexpan"} <= set(names)

    def test_setexpan_round_trip_with_real_expander(self, tiny_dataset, resources):
        service = ExpansionService(
            tiny_dataset,
            resources=resources,
        )
        query = tiny_dataset.queries[0]
        with service:
            response = service.submit(
                ExpandRequest(method="SetExpan", query_id=query.query_id, options=ExpandOptions(top_k=10))
            )
        assert len(response.ranking) <= 10
        assert not set(response.entity_ids()) & set(query.seed_ids())
        info = {i.method: i for i in service.methods()}["setexpan"]
        assert info.fitted is True
        assert info.expander_name == "SetExpan"
