"""Tests for the v1 protocol layer: envelopes, error taxonomy, options,
pagination, and the async fit-job subsystem."""

from __future__ import annotations

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
from repro.api.jobs import JobManager
from repro.core.base import Expander
from repro.exceptions import (
    DatasetError,
    JobConflictError,
    JobNotFoundError,
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
            (JobNotFoundError("gone"), 404, "job_not_found", False),
            (JobConflictError("busy"), 409, "conflict", False),
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
            JobNotFoundError("gone"),
            JobConflictError("busy"),
            ServiceUnavailableError("down"),
        ):
            _, payload = error_payload(exc)
            rebuilt = exception_for_payload(payload)
            assert type(rebuilt) is type(exc)
            assert str(rebuilt) == str(exc)

    def test_details_survive_the_payload(self):
        exc = JobConflictError("busy")
        exc.details = {"job_id": "fit-1"}
        _, payload = error_payload(exc)
        assert payload["details"] == {"job_id": "fit-1"}
        assert exception_for_payload(payload).details == {"job_id": "fit-1"}


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


class TestBatchEndpoint:
    def test_items_fail_independently(self, api, tiny_dataset):
        dispatcher, _, _ = api
        qid = tiny_dataset.queries[0].query_id
        result = dispatcher.dispatch(
            "POST",
            "/v1/expand/batch",
            {
                "requests": [
                    {"method": "stub", "query_id": qid, "options": {"top_k": 5}},
                    {"method": "nope", "query_id": qid},
                ]
            },
        )
        assert result.status == 200
        first, second = result.data["responses"]
        assert len(first["response"]["ranking"]) == 5
        assert second["error"]["code"] == "unknown_method"

    def test_empty_and_oversized_batches_are_rejected(self, api):
        dispatcher, _, _ = api
        assert dispatcher.dispatch("POST", "/v1/expand/batch", {"requests": []}).status == 400
        too_many = {"requests": [{"method": "stub"}] * (apiv1.MAX_BATCH_REQUESTS + 1)}
        assert dispatcher.dispatch("POST", "/v1/expand/batch", too_many).status == 400


class TestFitJobs:
    def test_fit_job_lifecycle_and_warm_expand(self, tiny_dataset):
        """Acceptance: POST /v1/fits is async; the later expand never fits."""
        service, created = make_service(tiny_dataset, fit_delay=0.2)
        with service:
            dispatcher = apiv1.ApiV1(service)
            started = time.perf_counter()
            result = dispatcher.dispatch("POST", "/v1/fits", {"method": "stub"})
            submit_s = time.perf_counter() - started
            assert result.status == 202
            assert submit_s < 0.15  # returned before the 0.2 s fit finished
            job = result.data["job"]
            assert job["status"] in ("queued", "running")

            final = service.jobs.wait(job["job_id"], timeout=10.0)
            assert final.status == "succeeded"
            assert final.outcome == "fitted"
            assert created[0].fit_calls == 1

            fits_before = service.stats()["registry"]["fits"]
            expand = dispatcher.dispatch(
                "POST",
                "/v1/expand",
                {"method": "stub", "query_id": tiny_dataset.queries[0].query_id},
            )
            assert expand.status == 200
            # the expand was served warm: no in-request fit happened.
            assert service.stats()["registry"]["fits"] == fits_before == 1
            assert created[0].fit_calls == 1

    def test_conflicting_fit_is_409_with_job_id(self, tiny_dataset):
        service, _ = make_service(tiny_dataset, fit_delay=0.2)
        with service:
            dispatcher = apiv1.ApiV1(service)
            first = dispatcher.dispatch("POST", "/v1/fits", {"method": "stub"})
            second = dispatcher.dispatch("POST", "/v1/fits", {"method": "stub"})
            assert second.status == 409
            assert second.error["code"] == "conflict"
            assert second.error["details"]["job_id"] == first.data["job"]["job_id"]
            service.jobs.wait(first.data["job"]["job_id"], timeout=10.0)

    def test_unknown_method_and_job_are_404(self, api):
        dispatcher, _, _ = api
        assert dispatcher.dispatch("POST", "/v1/fits", {"method": "nope"}).status == 404
        missing = dispatcher.dispatch("GET", "/v1/fits/fit-does-not-exist")
        assert missing.status == 404
        assert missing.error["code"] == "job_not_found"

    def test_failed_fit_reports_the_taxonomy_error(self, tiny_dataset):
        def exploding(_resources):
            raise RuntimeError("factory exploded")

        service = ExpansionService(
            tiny_dataset,
            factories={"boom": exploding},
        )
        with service:
            job = service.start_fit("boom")
            final = service.jobs.wait(job.job_id, timeout=10.0)
            assert final.status == "failed"
            assert final.error["code"] == "internal"
            assert "factory exploded" in final.error["message"]

    def test_pinned_fit_survives_eviction_pressure(self, tiny_dataset):
        service, created = make_service(tiny_dataset)
        with service:
            job = service.start_fit("stub", pin=True)
            service.jobs.wait(job.job_id, timeout=10.0)
            assert "stub" in service.stats()["registry"]["pinned"]

    def test_jobs_listing_is_most_recent_first(self, tiny_dataset):
        service, _ = make_service(tiny_dataset)
        with service:
            dispatcher = apiv1.ApiV1(service)
            job = service.start_fit("stub")
            service.jobs.wait(job.job_id, timeout=10.0)
            listing = dispatcher.dispatch("GET", "/v1/fits")
            assert listing.status == 200
            assert listing.data["count"] == 1
            assert listing.data["jobs"][0]["job_id"] == job.job_id

    def test_shutdown_fails_queued_jobs(self, tiny_dataset):
        service, _ = make_service(tiny_dataset, fit_delay=0.3)
        running = service.start_fit("stub")
        service.close()
        job = service.jobs.get(running.job_id)
        # either it finished before shutdown joined, or it was failed as queued
        assert job.status in ("succeeded", "failed", "running")
        with pytest.raises(ServiceUnavailableError):
            service.start_fit("stub")


class TestJobManagerHistory:
    def test_history_is_bounded_to_finished_jobs(self, tiny_dataset):
        service, _ = make_service(tiny_dataset)
        with service:
            manager = JobManager(service.registry, history_limit=3)
            job_ids = []
            for _ in range(6):
                job = manager.submit("stub")
                manager.wait(job.job_id, timeout=10.0)
                job_ids.append(job.job_id)
            assert len(manager.list()) <= 4  # limit + the in-flight slot
            with pytest.raises(JobNotFoundError):
                manager.get(job_ids[0])
            manager.shutdown()
