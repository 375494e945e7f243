"""Tests for the v1 protocol layer: envelopes, error taxonomy, options,
pagination, and the synchronous ``POST /v1/fits``."""

from __future__ import annotations

import threading
import time

import pytest

import repro.api.v1 as apiv1
from repro.api import (
    API_VERSION,
    ExpandOptions,
    error_payload,
    exception_for_payload,
    new_request_id,
)
from repro.core.base import Expander
from repro.exceptions import (
    AuthenticationError,
    DatasetError,
    RateLimitedError,
    ServiceError,
    ServiceUnavailableError,
    UnknownMethodError,
)
from repro.serve import ExpandRequest, ExpansionService
from repro.types import ExpansionResult


class CountingExpander(Expander):
    name = "stub"

    def __init__(self, fit_delay: float = 0.0):
        super().__init__()
        self.fit_calls = 0
        self.fit_delay = fit_delay

    def _fit(self, dataset) -> None:
        self.fit_calls += 1
        if self.fit_delay:
            time.sleep(self.fit_delay)

    def _expand(self, query, top_k) -> ExpansionResult:
        scored = [(eid, 1.0 / (1.0 + eid)) for eid in self.dataset.entity_ids()]
        return ExpansionResult.from_scores(query.query_id, scored)


def make_service(dataset, fit_delay: float = 0.0):
    created: list[CountingExpander] = []

    def factory(_resources):
        expander = CountingExpander(fit_delay=fit_delay)
        created.append(expander)
        return expander

    service = ExpansionService(
        dataset,
        factories={"stub": factory},
    )
    return service, created


@pytest.fixture()
def api(tiny_dataset):
    service, created = make_service(tiny_dataset)
    with service:
        yield apiv1.ApiV1(service), service, created


class TestEnvelope:
    def test_request_ids_are_unique_and_prefixed(self):
        ids = {new_request_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(rid.startswith("req-") for rid in ids)

    def test_success_envelope_shape(self, api):
        dispatcher, _, _ = api
        result = dispatcher.dispatch("GET", "/v1/healthz")
        body = apiv1.render_v1_body(result, "req-test")
        assert body == {
            "api_version": API_VERSION,
            "request_id": "req-test",
            "data": {"status": "ok"},
        }

    def test_error_envelope_shape(self, api):
        dispatcher, _, _ = api
        result = dispatcher.dispatch("POST", "/v1/expand", {"method": "nope", "query_id": "q"})
        assert result.status == 404
        body = apiv1.render_v1_body(result, "req-test")
        assert body["api_version"] == API_VERSION
        assert set(body["error"]) == {"error", "code", "message", "details", "retryable"}
        assert body["error"]["code"] == "unknown_method"

    def test_unknown_v1_route_is_enveloped_404(self, api):
        dispatcher, _, _ = api
        result = dispatcher.dispatch("GET", "/v1/nothing")
        assert result.status == 404
        assert result.error["code"] == "not_found"


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "exc, status, code, retryable",
        [
            (ServiceError("bad"), 400, "invalid_request", False),
            (UnknownMethodError("nope"), 404, "unknown_method", False),
            (DatasetError("missing"), 404, "not_found", False),
            (AuthenticationError("who"), 401, "unauthenticated", False),
            (RateLimitedError("slow down"), 429, "rate_limited", True),
            (ServiceUnavailableError("down"), 503, "unavailable", True),
            (RuntimeError("boom"), 500, "internal", True),
        ],
    )
    def test_exception_to_payload(self, exc, status, code, retryable):
        got_status, payload = error_payload(exc)
        assert got_status == status
        assert payload["code"] == code
        assert payload["retryable"] is retryable
        assert payload["error"] == type(exc).__name__

    def test_round_trip_back_to_exception_classes(self):
        for exc in (
            UnknownMethodError("nope"),
            DatasetError("missing"),
            AuthenticationError("who"),
            RateLimitedError("slow down"),
            ServiceUnavailableError("down"),
        ):
            _, payload = error_payload(exc)
            rebuilt = exception_for_payload(payload)
            assert type(rebuilt) is type(exc)
            assert str(rebuilt) == str(exc)

    def test_details_survive_the_payload(self):
        exc = ServiceUnavailableError("busy")
        exc.details = {"lane": "batch"}
        _, payload = error_payload(exc)
        assert payload["details"] == {"lane": "batch"}
        assert exception_for_payload(payload).details == {"lane": "batch"}


class TestExpandOptions:
    def test_defaults(self):
        options = ExpandOptions.from_dict({})
        assert options == ExpandOptions()

    def test_rejects_unknown_fields(self):
        with pytest.raises(ServiceError):
            ExpandOptions.from_dict({"topk": 5})

    @pytest.mark.parametrize(
        "payload",
        [
            {"top_k": True},
            {"top_k": 0},
            {"offset": -1},
            {"offset": True},
            {"limit": 0},
            {"use_cache": 1},
            {"return_names": "yes"},
            {"top_k": float("inf")},
            {"top_k": float("nan")},
            {"top_k": 2.9},
            {"offset": float("inf")},
            {"offset": 1.5},
            {"limit": float("-inf")},
        ],
    )
    def test_rejects_bad_values(self, payload):
        with pytest.raises(ServiceError):
            ExpandOptions.from_dict(payload)

    def test_accepts_integral_numbers(self):
        options = ExpandOptions.from_dict({"top_k": 5.0, "offset": 2.0, "limit": 3})
        assert (options.top_k, options.offset, options.limit) == (5, 2, 3)
        assert isinstance(options.top_k, int)

    def test_request_rejects_mixed_option_spellings(self):
        """Serving options live only under "options": the pre-v1 top-level
        top_k/use_cache are unknown fields, alone or beside "options"."""
        for top_level in (
            {"top_k": 5},
            {"use_cache": False},
            {"top_k": 5, "options": {"top_k": 5}},
        ):
            with pytest.raises(ServiceError, match="unknown request fields"):
                ExpandRequest.from_dict({"method": "m", "query_id": "q", **top_level})

    def test_request_rejects_boolean_ids_and_top_k(self):
        """Satellite: int(True) == 1 must not smuggle booleans into ids."""
        with pytest.raises(ServiceError):
            ExpandRequest.from_dict({"method": "m", "query_id": "q", "top_k": True})
        with pytest.raises(ServiceError):
            ExpandRequest.from_dict(
                {"method": "m", "class_id": "c", "positive_seed_ids": [True]}
            )
        with pytest.raises(ServiceError):
            ExpandRequest.from_dict(
                {"method": "m", "class_id": "c",
                 "positive_seed_ids": [1], "negative_seed_ids": [2, False]}
            )
        # nor fractions or infinities: 3.7 is not entity 3, and 1e999 (inf)
        # is a bad request, not an internal error.
        for seeds in ([3.7], [float("inf")], [float("nan")], [1, -float("inf")]):
            with pytest.raises(ServiceError):
                ExpandRequest.from_dict(
                    {"method": "m", "class_id": "c", "positive_seed_ids": seeds}
                )
        with pytest.raises(ServiceError):
            ExpandRequest.from_dict(
                {"method": "m", "query_id": "q", "options": {"top_k": float("inf")}}
            )
        request = ExpandRequest.from_dict(
            {"method": "m", "class_id": "c", "positive_seed_ids": [3.0]}
        )
        assert request.positive_seed_ids == (3,)


class TestPagination:
    def test_offset_limit_slice_the_ranking(self, api, tiny_dataset):
        dispatcher, service, _ = api
        qid = tiny_dataset.queries[0].query_id
        full = service.submit(
            ExpandRequest(method="stub", query_id=qid, options=ExpandOptions(top_k=10))
        )
        page = service.submit(
            ExpandRequest(
                method="stub",
                query_id=qid,
                options=ExpandOptions(top_k=10, offset=4, limit=3),
            )
        )
        assert page.total == 10
        assert page.offset == 4
        assert page.entity_ids() == full.entity_ids()[4:7]
        # pagination is a view over the same cached ranking
        assert page.cached is True

    def test_return_names_false_omits_names_on_the_wire(self, api, tiny_dataset):
        dispatcher, _, _ = api
        result = dispatcher.dispatch(
            "POST",
            "/v1/expand",
            {
                "method": "stub",
                "query_id": tiny_dataset.queries[0].query_id,
                "options": {"top_k": 5, "return_names": False},
            },
        )
        assert result.status == 200
        rows = result.data.to_v1_dict()["ranking"]
        assert rows and all(set(row) == {"entity_id", "score"} for row in rows)


class TestFitJobs:
    """``POST /v1/fits`` blocks until the method is resident."""

    def test_fit_job_lifecycle_and_warm_expand(self, tiny_dataset):
        """Acceptance: the fit answers once it is done; the later expand
        and a repeat fit pay no fit."""
        service, created = make_service(tiny_dataset, fit_delay=0.2)
        with service:
            dispatcher = apiv1.ApiV1(service)
            result = dispatcher.dispatch("POST", "/v1/fits", {"method": "stub"})
            assert result.status == 200
            assert set(result.data) == {"method", "outcome", "seconds"}
            assert result.data["method"] == "stub"
            assert result.data["outcome"] == "fitted"
            assert result.data["seconds"] >= 0.2
            assert created[0].fit_calls == 1

            expand = dispatcher.dispatch(
                "POST",
                "/v1/expand",
                {"method": "stub", "query_id": tiny_dataset.queries[0].query_id},
            )
            assert expand.status == 200
            # the expand was served warm: no in-request fit happened.
            assert service.stats()["registry"]["fits"] == 1

            again = dispatcher.dispatch("POST", "/v1/fits", {"method": "STUB "})
            assert again.status == 200
            assert again.data["method"] == "stub"
            assert again.data["outcome"] == "already_fitted"
            assert service.stats()["registry"]["fits"] == 1
            assert len(created) == 1

    def test_concurrent_fits_pay_one_fit(self, tiny_dataset):
        """A fit arriving while the same method fits waits for it and
        answers ``already_fitted``: one fit, never a conflict."""
        service, created = make_service(tiny_dataset, fit_delay=0.3)
        with service:
            dispatcher = apiv1.ApiV1(service)
            results = []

            def fit() -> None:
                results.append(dispatcher.dispatch("POST", "/v1/fits", {"method": "stub"}))

            threads = [threading.Thread(target=fit) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert [result.status for result in results] == [200, 200]
            outcomes = sorted(result.data["outcome"] for result in results)
            assert outcomes == ["already_fitted", "fitted"]
            assert len(created) == 1 and created[0].fit_calls == 1

    def test_unknown_method_and_job_are_404(self, api):
        dispatcher, _, _ = api
        unknown = dispatcher.dispatch("POST", "/v1/fits", {"method": "nope"})
        assert unknown.status == 404
        assert unknown.error["code"] == "unknown_method"
        # the fit-job routes are gone: plain enveloped route 404s.
        for verb, path in (
            ("GET", "/v1/fits"),
            ("GET", "/v1/fits/fit-1-abc123"),
            ("DELETE", "/v1/fits/fit-1-abc123"),
        ):
            assert not dispatcher.resolves(verb, path)
            missing = dispatcher.dispatch(verb, path)
            assert missing.status == 404
            assert missing.error["code"] == "not_found"

    def test_bad_fit_payloads_are_400(self, api):
        dispatcher, _, created = api
        # ``pin`` is gone with the registry's eviction: a worker keeps every
        # fit, so a request that still sends it is refused like any other
        # unknown field.
        for payload in (None, {}, {"method": ""}, {"method": "stub", "pin": True},
                        {"method": "stub", "pin": False}, {"method": "stub", "wait": True}):
            result = dispatcher.dispatch("POST", "/v1/fits", payload)
            assert result.status == 400, payload
            assert result.error["code"] == "invalid_request"
        assert created == []

    def test_failed_fit_reports_the_taxonomy_error(self, tiny_dataset):
        def exploding(_resources):
            raise RuntimeError("factory exploded")

        service = ExpansionService(
            tiny_dataset,
            factories={"boom": exploding},
        )
        with service:
            result = apiv1.ApiV1(service).dispatch("POST", "/v1/fits", {"method": "boom"})
            assert result.status == 500
            assert result.error["code"] == "internal"
            assert "factory exploded" in result.error["message"]

    def test_fit_after_shutdown_is_unavailable(self, tiny_dataset):
        service, created = make_service(tiny_dataset)
        service.close()
        result = apiv1.ApiV1(service).dispatch("POST", "/v1/fits", {"method": "stub"})
        assert result.status == 503
        assert result.error["code"] == "unavailable"
        assert result.error["retryable"] is True
        assert created == []
