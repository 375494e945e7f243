"""The multi-tenant front door: quotas, keyfiles, admission, and the wire.

Unit tests drive the token buckets and the admission controller on an
injected clock so the math is exact; the wire tests run a real
keyfile-configured :class:`ExpansionHTTPServer` on an ephemeral port and
assert the 401/429 envelope shapes, the ``Retry-After`` header, and the
exempt routes.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.config import ServiceConfig
from repro.core.base import Expander
from repro.exceptions import (
    AuthenticationError,
    ConfigurationError,
    OverloadedError,
    RateLimitedError,
)
from repro.gate import (
    ANONYMOUS_TENANT,
    API_KEY_HEADER,
    AdmissionController,
    Gate,
    QuotaSpec,
    RateLimiter,
    TENANT_HEADER,
    TenantDirectory,
    TokenBucket,
    hash_key,
    is_valid_tenant_id,
    operation_for,
    retry_after_header,
)
from repro.serve import ExpansionHTTPServer, ExpansionService
from repro.types import ExpansionResult


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


# -- quota parsing ---------------------------------------------------------------------
class TestQuotaSpec:
    def test_parse_forms(self):
        assert QuotaSpec.parse(10) == QuotaSpec(rate=10.0, burst=10.0)
        assert QuotaSpec.parse(0.5) == QuotaSpec(rate=0.5, burst=1.0)
        assert QuotaSpec.parse("10") == QuotaSpec(rate=10.0, burst=10.0)
        assert QuotaSpec.parse("10:25") == QuotaSpec(rate=10.0, burst=25.0)
        assert QuotaSpec.parse({"rate": 3}) == QuotaSpec(rate=3.0, burst=3.0)
        assert QuotaSpec.parse({"rate": 3, "burst": 9}) == QuotaSpec(rate=3.0, burst=9.0)
        spec = QuotaSpec(rate=2.0, burst=4.0)
        assert QuotaSpec.parse(spec) is spec

    @pytest.mark.parametrize(
        "bad", [0, -1, "0", "nope", "1:0", {"burst": 5}, {"rate": 1, "x": 2}, True, None]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            QuotaSpec.parse(bad)

    def test_round_trips_through_dict(self):
        spec = QuotaSpec(rate=7.0, burst=11.0)
        assert QuotaSpec.parse(spec.to_dict()) == spec


# -- token bucket ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill_math(self):
        now = [100.0]
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=lambda: now[0])
        # a fresh bucket holds its full burst.
        assert [bucket.try_acquire() for _ in range(4)] == [0.0] * 4
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        now[0] += 0.5
        assert bucket.try_acquire() == 0.0
        # refill never exceeds the burst cap.
        now[0] += 1000.0
        assert bucket.level() == pytest.approx(4.0)

    def test_refund_restores_a_token(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=lambda: now[0])
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0
        bucket.refund()
        assert bucket.try_acquire() == 0.0

    def test_concurrent_acquire_never_over_grants(self):
        # frozen clock: exactly `burst` grants can ever succeed.
        bucket = TokenBucket(rate=1000.0, burst=50.0, clock=lambda: 0.0)
        grants = []

        def hammer():
            for _ in range(20):
                if bucket.try_acquire() == 0.0:
                    grants.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(grants) == 50


class TestRateLimiter:
    def test_method_bucket_refusal_refunds_the_tenant_token(self):
        now = [0.0]
        limiter = RateLimiter(clock=lambda: now[0])
        quota = QuotaSpec(rate=1.0, burst=10.0)
        fit_quota = QuotaSpec(rate=0.1, burst=1.0)
        assert limiter.check("acme", quota, "fit", fit_quota) == 0.0
        # the fit bucket is dry, but the tenant bucket must not be charged.
        wait = limiter.check("acme", quota, "fit", fit_quota)
        assert wait == pytest.approx(10.0)
        for _ in range(9):
            assert limiter.check("acme", quota, "read", None) == 0.0
        assert limiter.check("acme", quota, "read", None) > 0.0

    def test_overflow_shares_one_bucket_past_the_cap(self):
        limiter = RateLimiter(clock=lambda: 0.0, max_buckets=2)
        quota = QuotaSpec(rate=1.0, burst=1.0)
        assert limiter.check("t1", quota) == 0.0
        assert limiter.check("t2", quota) == 0.0
        # t3 and t4 land on the shared overflow bucket: one token between them.
        assert limiter.check("t3", quota) == 0.0
        assert limiter.check("t4", quota) > 0.0
        assert limiter.stats()["buckets"] == 3  # t1, t2, overflow

    def test_changed_quota_replaces_the_bucket(self):
        now = [0.0]
        limiter = RateLimiter(clock=lambda: now[0])
        assert limiter.check("acme", QuotaSpec(rate=1.0, burst=1.0)) == 0.0
        assert limiter.check("acme", QuotaSpec(rate=1.0, burst=1.0)) > 0.0
        # a keyfile reload that raises the quota takes effect immediately.
        assert limiter.check("acme", QuotaSpec(rate=1.0, burst=5.0)) == 0.0


# -- tenant directory ------------------------------------------------------------------
def write_keyfile(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


class TestTenantDirectory:
    def test_resolves_plaintext_and_hashed_keys(self, tmp_path):
        path = tmp_path / "keys.json"
        write_keyfile(
            path,
            {
                "tenants": [
                    {"tenant": "acme", "key": "s3cret", "quota": "10:20"},
                    {
                        "tenant": "beta",
                        "key_sha256": hash_key("other").upper(),
                        "method_quotas": {"fit": "1:1"},
                    },
                ]
            },
        )
        directory = TenantDirectory(str(path))
        acme = directory.resolve("s3cret")
        assert acme.tenant_id == "acme"
        assert acme.quota == QuotaSpec(rate=10.0, burst=20.0)
        beta = directory.resolve("other")
        assert beta.tenant_id == "beta"
        assert beta.method_quotas == {"fit": QuotaSpec(rate=1.0, burst=1.0)}
        assert directory.resolve("wrong") is None
        assert directory.resolve(None) is None  # no anonymous entry
        assert not directory.allows_anonymous
        assert directory.stats()["tenants"] == 2

    def test_anonymous_entry_admits_keyless_callers(self, tmp_path):
        path = tmp_path / "keys.json"
        write_keyfile(path, {"anonymous": {"quota": 5}, "tenants": []})
        directory = TenantDirectory(str(path))
        anonymous = directory.resolve(None)
        assert anonymous.tenant_id == ANONYMOUS_TENANT
        assert directory.allows_anonymous

    def test_hot_reload_swaps_the_table(self, tmp_path):
        path = tmp_path / "keys.json"
        write_keyfile(path, {"tenants": [{"tenant": "acme", "key": "a"}]})
        directory = TenantDirectory(str(path), reload_interval_seconds=0.0)
        assert directory.resolve("a").tenant_id == "acme"
        write_keyfile(path, {"tenants": [{"tenant": "newco", "key": "b"}]})
        wait_until(lambda: directory.resolve("b") is not None)
        assert directory.resolve("a") is None
        assert directory.stats()["reloads"] == 1

    def test_bad_reload_keeps_the_last_good_table(self, tmp_path):
        path = tmp_path / "keys.json"
        write_keyfile(path, {"tenants": [{"tenant": "acme", "key": "a"}]})
        directory = TenantDirectory(str(path), reload_interval_seconds=0.0)
        path.write_text("{not json", encoding="utf-8")
        # resolve() is what triggers the reload attempt; it must keep
        # serving the old table while counting the failure.
        wait_until(
            lambda: directory.resolve("a") is not None
            and directory.stats()["reload_errors"] >= 1
        )
        assert directory.resolve("a").tenant_id == "acme"

    @pytest.mark.parametrize(
        "holder, quotas, match",
        [
            ("tenant", {"fit": "1:1", "expand_batch": "10:20"}, "expand_batch"),
            ("anonymous", {"fit": "1:1", "expand_batch": "10:20"}, "expand_batch"),
            ("anonymous", ["fit"], "must be an object"),
        ],
    )
    def test_bad_method_quotas_fail_the_boot(self, tmp_path, holder, quotas, match):
        """A ``method_quotas`` key must name an operation class (expand,
        fit, read): the retired ``expand_batch``, like a typo, would never
        throttle anything.  The anonymous entry is checked like a tenant's."""
        path = tmp_path / "keys.json"
        payload = {"tenants": [{"tenant": "acme", "key": "a"}]}
        if holder == "tenant":
            payload["tenants"][0]["method_quotas"] = quotas
        else:
            payload["anonymous"] = {"method_quotas": quotas}
        write_keyfile(path, payload)
        with pytest.raises(ConfigurationError, match=match):
            TenantDirectory(str(path))

    def test_unknown_method_quota_key_on_reload_keeps_the_last_good_table(
        self, tmp_path
    ):
        path = tmp_path / "keys.json"
        valid = {"expand": "5:5", "fit": "1:1", "read": "9:9"}
        write_keyfile(
            path, {"tenants": [{"tenant": "acme", "key": "a", "method_quotas": valid}]}
        )
        directory = TenantDirectory(str(path), reload_interval_seconds=0.0)
        write_keyfile(
            path,
            {
                "anonymous": {"method_quotas": {"expnad": "1:1"}},
                "tenants": [{"tenant": "newco", "key": "b"}],
            },
        )
        wait_until(
            lambda: directory.resolve("a") is not None
            and directory.stats()["reload_errors"] >= 1
        )
        stats = directory.stats()
        assert (stats["reloads"], stats["reload_errors"]) == (0, 1)
        assert directory.resolve("a").method_quotas == {
            op: QuotaSpec.parse(spec) for op, spec in valid.items()
        }
        assert directory.resolve("b") is None
        assert directory.resolve(None) is None

    def test_bad_keyfile_at_boot_raises(self, tmp_path):
        path = tmp_path / "keys.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            TenantDirectory(str(path))

    def test_duplicate_keys_are_rejected(self, tmp_path):
        path = tmp_path / "keys.json"
        write_keyfile(
            path,
            {
                "tenants": [
                    {"tenant": "a", "key": "same"},
                    {"tenant": "b", "key": "same"},
                ]
            },
        )
        with pytest.raises(ConfigurationError, match="reuses the key"):
            TenantDirectory(str(path))


# -- the gate --------------------------------------------------------------------------
class TestGate:
    def test_no_directory_shares_the_default_quota(self):
        now = [0.0]
        gate = Gate(default_quota=QuotaSpec(rate=1.0, burst=2.0), clock=lambda: now[0])
        assert gate.check(None, "expand") == ANONYMOUS_TENANT
        assert gate.check("ignored-key", "expand") == ANONYMOUS_TENANT
        with pytest.raises(RateLimitedError) as excinfo:
            gate.check(None, "expand")
        assert excinfo.value.details["retry_after"] == pytest.approx(1.0)
        now[0] += 1.0
        assert gate.check(None, "expand") == ANONYMOUS_TENANT

    def test_unknown_and_missing_keys_raise_authentication_error(self, tmp_path):
        path = tmp_path / "keys.json"
        write_keyfile(path, {"tenants": [{"tenant": "acme", "key": "good"}]})
        gate = Gate(directory=TenantDirectory(str(path)))
        assert gate.check("good", "read") == "acme"
        with pytest.raises(AuthenticationError):
            gate.check("bad", "read")
        with pytest.raises(AuthenticationError):
            gate.check(None, "read")
        assert gate.stats()["auth_failures"] == 2


# -- admission control -----------------------------------------------------------------
class TestAdmission:
    def test_full_queue_sheds_immediately_with_retry_after(self):
        controller = AdmissionController(max_concurrent=1, queue_depth=0)
        controller.acquire("interactive")
        with pytest.raises(OverloadedError) as excinfo:
            controller.acquire("interactive")
        assert excinfo.value.details["retry_after"] == pytest.approx(1.0)
        assert excinfo.value.details["lane"] == "interactive"
        controller.release()
        assert controller.stats()["shed"]["interactive"] == 1

    def test_wait_timeout_sheds(self):
        controller = AdmissionController(
            max_concurrent=1, queue_depth=8, timeout_seconds=0.05
        )
        controller.acquire("batch")
        started = time.monotonic()
        with pytest.raises(OverloadedError):
            controller.acquire("batch")
        assert time.monotonic() - started < 5.0
        controller.release()
        assert controller.stats()["timeouts"]["batch"] == 1

    def test_interactive_preempts_waiting_batch(self):
        controller = AdmissionController(max_concurrent=1, queue_depth=8)
        controller.acquire("interactive")  # hold the only slot
        order = []

        def run(lane):
            with controller.admit(lane):
                order.append(lane)

        batch = threading.Thread(target=run, args=("batch",))
        batch.start()
        wait_until(lambda: controller.stats()["waiting"]["batch"] == 1)
        interactive = threading.Thread(target=run, args=("interactive",))
        interactive.start()
        wait_until(lambda: controller.stats()["waiting"]["interactive"] == 1)

        controller.release()  # one slot frees: interactive must win it
        interactive.join(timeout=5.0)
        batch.join(timeout=5.0)
        assert order == ["interactive", "batch"]
        stats = controller.stats()
        assert stats["active"] == 0
        assert stats["admitted"] == {"interactive": 2, "batch": 1}

    def test_fits_admit_and_shed_like_batch_items(self, tiny_dataset):
        """``POST /v1/fits`` holds one batch-lane slot while it runs, and a
        full queue sheds it with the retryable overload error."""
        service = ExpansionService(
            tiny_dataset,
            config=ServiceConfig(
                admission_max_concurrent=1,
                admission_queue_depth=0,
                admission_timeout_seconds=0.01,
            ),
            factories={"stub": lambda _resources: StubExpander()},
        )
        with service:
            controller = service.admission
            controller.acquire("interactive")  # the one slot is taken
            with pytest.raises(OverloadedError) as shed:
                service.fit("stub")
            assert shed.value.details["lane"] == "batch"
            assert not service.registry.is_fitted("stub")
            controller.release()
            assert service.fit("stub")["outcome"] == "fitted"
            stats = controller.stats()
        assert stats["shed"]["batch"] == 1
        assert stats["admitted"]["batch"] == 1
        assert stats["active"] == 0

    def test_unknown_lane_is_rejected(self):
        controller = AdmissionController(max_concurrent=1)
        with pytest.raises(ValueError):
            controller.acquire("vip")


# -- helpers and wire-level tests ------------------------------------------------------
class TestHelpers:
    def test_operation_classification(self):
        assert operation_for("POST", "/v1/expand") == "expand"
        assert operation_for("POST", "/expand") == "read"
        assert operation_for("POST", "/v1/expand/batch") == "read"  # retired route
        assert operation_for("POST", "/v1/fits") == "fit"
        assert operation_for("GET", "/v1/fits") == "read"
        assert operation_for("GET", "/v1/stats") == "read"

    def test_retry_after_header_rounds_up(self):
        assert retry_after_header(0.001) == "1"
        assert retry_after_header(1.2) == "2"
        assert retry_after_header(30.0) == "30"

    def test_tenant_id_shape(self):
        assert is_valid_tenant_id("acme-prod_1.eu")
        assert not is_valid_tenant_id("")
        assert not is_valid_tenant_id("bad tenant")
        assert not is_valid_tenant_id("x" * 65)
        assert not is_valid_tenant_id(None)


class StubExpander(Expander):
    name = "stub"

    def _expand(self, query, top_k):
        scored = [(eid, 1.0 / (1.0 + eid)) for eid in self.candidate_ids(query)]
        return ExpansionResult.from_scores(query.query_id, scored)


ACME_KEY = "acme-front-door-key"
TINY_KEY = "tiny-front-door-key"


@pytest.fixture(scope="module")
def gated_server(tiny_dataset, tmp_path_factory):
    keyfile = tmp_path_factory.mktemp("gate") / "keys.json"
    write_keyfile(
        keyfile,
        {
            "tenants": [
                {"tenant": "acme", "key": ACME_KEY, "quota": "1000:1000"},
                {"tenant": "tiny", "key": TINY_KEY, "quota": "0.001:2"},
            ]
        },
    )
    service = ExpansionService(
        tiny_dataset,
        config=ServiceConfig(port=0, keyfile=str(keyfile)),
        factories={"stub": lambda _resources: StubExpander()},
    )
    server = ExpansionHTTPServer(service, port=0).start()
    yield server
    server.shutdown()


def http(server, verb, path, payload=None, headers=None):
    body = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        server.url + path,
        data=body,
        method=verb,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


class TestGatedServer:
    def test_missing_key_is_401(self, gated_server):
        status, body, _ = http(gated_server, "GET", "/v1/methods")
        assert status == 401
        assert body["error"]["code"] == "unauthenticated"
        assert body["error"]["retryable"] is False

    def test_unknown_key_is_401(self, gated_server):
        status, body, _ = http(
            gated_server, "GET", "/v1/methods", headers={API_KEY_HEADER: "nope"}
        )
        assert status == 401
        assert "unknown API key" in body["error"]["message"]

    def test_good_key_serves_normally(self, gated_server, tiny_dataset):
        status, body, _ = http(
            gated_server,
            "POST",
            "/v1/expand",
            {
                "method": "stub",
                "query_id": tiny_dataset.queries[0].query_id,
                "options": {"top_k": 5},
            },
            headers={API_KEY_HEADER: ACME_KEY},
        )
        assert status == 200
        assert len(body["data"]["ranking"]) == 5

    def test_healthz_and_metrics_stay_exempt(self, gated_server):
        status, body, _ = http(gated_server, "GET", "/v1/healthz")
        assert (status, body["data"]) == (200, {"status": "ok"})
        request = urllib.request.Request(gated_server.url + "/v1/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200

    def test_over_quota_is_429_with_retry_after(self, gated_server):
        # burst 2 at 0.001/s: the third request inside the window must throttle.
        statuses, last_body, last_headers = [], None, None
        for _ in range(3):
            status, body, headers = http(
                gated_server, "GET", "/v1/methods", headers={API_KEY_HEADER: TINY_KEY}
            )
            statuses.append(status)
            if status == 429:
                last_body, last_headers = body, headers
        assert statuses[:2] == [200, 200]
        assert statuses[2] == 429
        error = last_body["error"]
        assert error["code"] == "rate_limited"
        assert error["retryable"] is True
        assert error["details"]["retry_after"] > 0
        header = int(last_headers["Retry-After"])
        assert header >= 1
        # the header is the ceiling of the exact hint in details.
        assert header - 1 < error["details"]["retry_after"] <= header

    def test_stats_grow_a_gate_section(self, gated_server):
        status, body, _ = http(
            gated_server, "GET", "/v1/stats", headers={API_KEY_HEADER: ACME_KEY}
        )
        assert status == 200
        gate = body["data"]["gate"]
        assert gate["requests"]["acme"] >= 1
        assert gate["throttled"]["tiny"] >= 1
        assert gate["directory"]["tenants"] == 2

    def test_throttled_requests_spend_no_quota(self, gated_server):
        before = http(
            gated_server, "GET", "/v1/stats", headers={API_KEY_HEADER: ACME_KEY}
        )[1]["data"]["gate"]["throttled"].get("tiny", 0)
        for _ in range(5):
            status, _, _ = http(
                gated_server, "GET", "/v1/methods", headers={API_KEY_HEADER: TINY_KEY}
            )
            assert status == 429
        after = http(
            gated_server, "GET", "/v1/stats", headers={API_KEY_HEADER: ACME_KEY}
        )[1]["data"]["gate"]["throttled"]["tiny"]
        assert after == before + 5


class TestRetiredExpandPath:
    def test_retired_expand_path_spends_no_expand_quota(self, tiny_dataset, tmp_path):
        """``POST /expand`` is a 404 on both tiers, so the gate charges it as
        a read: it must leave the tenant's expand quota untouched."""
        keyfile = tmp_path / "keys.json"
        write_keyfile(
            keyfile,
            {
                "tenants": [
                    {
                        "tenant": "solo",
                        "key": "solo-front-door-key",
                        "method_quotas": {"expand": "0.001:1"},
                    }
                ]
            },
        )
        service = ExpansionService(
            tiny_dataset,
            config=ServiceConfig(port=0, keyfile=str(keyfile)),
            factories={"stub": lambda _resources: StubExpander()},
        )
        server = ExpansionHTTPServer(service, port=0).start()
        try:
            payload = {"method": "stub", "query_id": tiny_dataset.queries[0].query_id}
            headers = {API_KEY_HEADER: "solo-front-door-key"}
            status, _, _ = http(server, "POST", "/expand", payload, headers=headers)
            assert status == 404
            status, _, _ = http(server, "POST", "/v1/expand", payload, headers=headers)
            assert status == 200, "the retired path spent the expand token"
        finally:
            server.shutdown()


@pytest.fixture(scope="module")
def open_server(tiny_dataset):
    """No keyfile, no quota: a worker running open behind a cluster gateway."""
    service = ExpansionService(
        tiny_dataset,
        config=ServiceConfig(port=0),
        factories={"stub": lambda _resources: StubExpander()},
    )
    server = ExpansionHTTPServer(service, port=0).start()
    yield server
    server.shutdown()


class TestOpenWorkerTenantHint:
    def test_forwarded_tenant_labels_worker_metrics(self, open_server, tiny_dataset):
        status, _, _ = http(
            open_server,
            "POST",
            "/v1/expand",
            {"method": "stub", "query_id": tiny_dataset.queries[1].query_id},
            headers={TENANT_HEADER: "hinted-tenant"},
        )
        assert status == 200
        request = urllib.request.Request(open_server.url + "/v1/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            text = response.read().decode("utf-8")
        assert 'tenant="hinted-tenant"' in text

    def test_malformed_hint_is_ignored(self, open_server, tiny_dataset):
        status, _, _ = http(
            open_server,
            "POST",
            "/v1/expand",
            {"method": "stub", "query_id": tiny_dataset.queries[2].query_id},
            headers={TENANT_HEADER: "bad tenant//"},
        )
        assert status == 200
        request = urllib.request.Request(open_server.url + "/v1/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            text = response.read().decode("utf-8")
        assert "bad tenant" not in text


# -- client retry behaviour ------------------------------------------------------------
class TestTransportRetryAfter:
    def _transport(self, responses, sleeps):
        from repro.client.transport import HttpTransport

        transport = HttpTransport(
            "http://127.0.0.1:9", max_retries=3, sleep=sleeps.append
        )
        queue = list(responses)
        transport._request_once = lambda verb, path, payload: queue.pop(0)
        return transport

    @staticmethod
    def _throttled_body(retry_after=None):
        details = {} if retry_after is None else {"retry_after": retry_after}
        return {
            "error": {
                "error": "RateLimitedError",
                "code": "rate_limited",
                "message": "over quota",
                "details": details,
                "retryable": True,
            }
        }

    def test_retry_after_details_beat_exponential_backoff(self):
        sleeps = []
        transport = self._transport(
            [
                (429, self._throttled_body(0.7), "1"),
                (200, {"data": {"ok": True}}, None),
            ],
            sleeps,
        )
        status, body = transport.request("POST", "/v1/expand", {})
        assert status == 200
        assert sleeps == [pytest.approx(0.7)]

    def test_header_is_the_fallback_hint(self):
        sleeps = []
        transport = self._transport(
            [
                (429, self._throttled_body(), "2"),
                (200, {"data": {}}, None),
            ],
            sleeps,
        )
        transport.request("GET", "/v1/methods", None)
        assert sleeps == [pytest.approx(2.0)]

    def test_hostile_hints_are_capped(self):
        from repro.client.transport import MAX_RETRY_AFTER_SECONDS

        sleeps = []
        transport = self._transport(
            [
                (429, self._throttled_body(9999.0), "9999"),
                (200, {"data": {}}, None),
            ],
            sleeps,
        )
        transport.request("GET", "/v1/methods", None)
        assert sleeps == [pytest.approx(MAX_RETRY_AFTER_SECONDS)]

    def test_missing_hint_keeps_exponential_backoff(self):
        sleeps = []
        transport = self._transport(
            [
                (503, {"error": {"code": "unavailable", "retryable": True,
                                 "details": {}, "message": "x", "error": "E"}}, None),
                (200, {"data": {}}, None),
            ],
            sleeps,
        )
        transport.request("GET", "/v1/methods", None)
        assert sleeps == [pytest.approx(0.1)]
