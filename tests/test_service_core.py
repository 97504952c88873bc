"""The transport-free service core: tenancy, quotas, admission control,
result shedding, rate limiting, and the durable query-set manifest."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.events.event import Event
from repro.service import AdmissionPolicy, QueryService, TenantQuota, \
    TokenBucket

PAIR = "EVENT SEQ(A x, B y)\nWHERE x.id = y.id\nWITHIN 10\n" \
       "RETURN x.id, y.v"
SINGLE = "EVENT A x\nWITHIN 10\nRETURN x.id, x.v"


def _feed_pairs(service, count=5):
    """``count`` A/B pairs with distinct ids: exactly one match each."""
    produced = 0
    for index in range(count):
        produced += service.feed(Event("A", 2.0 * index,
                                       {"id": index, "v": index}))
        produced += service.feed(Event("B", 2.0 * index + 1.0,
                                       {"id": index, "v": index}))
    return produced


class TestRegistration:
    def test_register_and_drain(self, abc_registry):
        service = QueryService(abc_registry)
        assert service.register("alice", "pairs", PAIR) \
            == {"status": "registered"}
        _feed_pairs(service)
        results = service.drain("alice")
        assert len(results) == 5
        first = results[0]
        assert first["tenant"] == "alice"
        assert first["query"] == "pairs"
        assert first["attributes"] == {"x_id": 0, "y_v": 0}

    def test_tenants_are_namespaced(self, abc_registry):
        service = QueryService(abc_registry)
        service.register("alice", "q", PAIR)
        service.register("bob", "q", PAIR)   # same name, no collision
        _feed_pairs(service, count=2)
        assert len(service.drain("alice")) == len(service.drain("bob"))

    def test_duplicate_name_rejected(self, abc_registry):
        service = QueryService(abc_registry)
        service.register("alice", "q", PAIR)
        with pytest.raises(ServiceError, match="already has"):
            service.register("alice", "q", PAIR)

    def test_bad_query_rejected_and_counted(self, abc_registry):
        service = QueryService(abc_registry)
        with pytest.raises(Exception):
            service.register("alice", "bad", "EVENT NOPE(")
        assert service.tenant("alice").rejected_total == 1
        assert service.queries("alice") == {}

    def test_withdraw_releases(self, abc_registry):
        service = QueryService(abc_registry)
        service.register("alice", "q", PAIR)
        service.withdraw("alice", "q")
        assert service.total_queries == 0
        _feed_pairs(service, count=2)
        assert service.drain("alice") == []
        with pytest.raises(ServiceError, match="no query"):
            service.withdraw("alice", "q")

    def test_unknown_tenant(self, abc_registry):
        service = QueryService(abc_registry)
        with pytest.raises(ServiceError, match="unknown tenant"):
            service.drain("ghost")


class TestQuotas:
    def test_per_tenant_query_quota(self, abc_registry):
        service = QueryService(
            abc_registry, default_quota=TenantQuota(max_queries=2))
        service.register("alice", "q1", PAIR)
        service.register("alice", "q2", SINGLE)
        with pytest.raises(ServiceError, match="query quota"):
            service.register("alice", "q3", PAIR)
        state = service.tenant("alice")
        assert state.rejected_total == 1
        assert state.admitted_total == 2
        # Withdrawing frees quota.
        service.withdraw("alice", "q1")
        service.register("alice", "q3", PAIR)

    def test_backlog_sheds_oldest(self, abc_registry):
        service = QueryService(
            abc_registry,
            default_quota=TenantQuota(max_pending_results=3))
        service.register("alice", "all_a", SINGLE)
        for index in range(10):
            service.feed(Event("A", float(index),
                               {"id": index, "v": index}))
        state = service.tenant("alice")
        assert len(state.pending) == 3
        assert state.shed_total == 7
        # The *newest* results survive.
        kept = [result["attributes"]["x_id"]
                for result in service.drain("alice")]
        assert kept == [7, 8, 9]

    def test_rate_limit_uses_injected_clock(self, abc_registry):
        now = {"t": 0.0}
        service = QueryService(
            abc_registry,
            default_quota=TenantQuota(max_events_per_second=2.0),
            clock=lambda: now["t"])
        service.register("alice", "q", SINGLE)
        record = {"type": "A", "timestamp": 1.0,
                  "attributes": {"id": 1, "v": 1}}
        service.feed_record("alice", record)
        service.feed_record("alice", record)
        with pytest.raises(ServiceError, match="rate"):
            service.feed_record("alice", record)
        assert service.tenant("alice").events_throttled == 1
        now["t"] = 1.0   # one second accrues two more tokens
        service.feed_record("alice", record)
        service.feed_record("alice", record)
        assert service.tenant("alice").events_submitted == 4

    def test_zero_rate_is_unlimited(self):
        bucket = TokenBucket(0.0)
        assert all(bucket.try_acquire(0.0) for _ in range(1000))

    def test_quota_roundtrip(self):
        quota = TenantQuota(max_queries=3, max_events_per_second=7.5,
                            max_pending_results=11)
        assert TenantQuota.from_dict(quota.to_dict()) == quota


class TestFeedRecords:
    def test_run_equals_one_record_at_a_time(self, abc_registry):
        records = [
            ("alice", {"type": "A", "timestamp": 1.0,
                       "attributes": {"id": 1, "v": 1}}),
            ("ghost", {"type": "A", "timestamp": 2.0,
                       "attributes": {"id": 2, "v": 2}}),
            ("alice", {"type": "B", "timestamp": 3.0,
                       "attributes": {"id": 1, "v": 3}}),
            ("alice", {"type": "A"}),
        ]
        services = []
        for _ in range(2):
            service = QueryService(abc_registry)
            service.register("alice", "pairs", PAIR)
            service.register("bob", "all_a", SINGLE)
            services.append(service)
        chunked, single = services
        outcomes = chunked.feed_records(records)
        assert outcomes[0] == 1 and outcomes[2] == 1
        assert "unknown tenant" in str(outcomes[1])
        assert "'type' and 'timestamp'" in str(outcomes[3])
        for (tenant, record), outcome in zip(records, outcomes):
            if isinstance(outcome, Exception):
                with pytest.raises(type(outcome)):
                    single.feed_record(tenant, record)
            else:
                assert single.feed_record(tenant, record) == outcome
        assert list(chunked.dirty) == ["bob", "alice"]
        for tenant in ("alice", "bob"):
            assert chunked.drain(tenant) == single.drain(tenant)
        assert chunked.dirty == {}


class TestAdmission:
    def test_service_capacity_queues_then_admits(self, abc_registry):
        service = QueryService(
            abc_registry,
            policy=AdmissionPolicy(max_total_queries=2, queue_limit=2))
        service.register("a", "q", PAIR)
        service.register("b", "q", PAIR)
        outcome = service.register("c", "q", PAIR)
        assert outcome == {"status": "queued", "position": 1}
        assert service.queries("c") == {}
        service.withdraw("a", "q")
        assert service.queries("c") == {"q": PAIR}
        assert service.tenant("c").queued == 0

    def test_full_queue_rejects(self, abc_registry):
        service = QueryService(
            abc_registry,
            policy=AdmissionPolicy(max_total_queries=1, queue_limit=1))
        service.register("a", "q", PAIR)
        service.register("b", "q", PAIR)
        with pytest.raises(ServiceError, match="at capacity"):
            service.register("c", "q", PAIR)

    def test_queued_registration_validated_eagerly(self, abc_registry):
        service = QueryService(
            abc_registry,
            policy=AdmissionPolicy(max_total_queries=1, queue_limit=4))
        service.register("a", "q", PAIR)
        with pytest.raises(Exception):
            service.register("b", "bad", "EVENT NOPE(")
        assert len(service._admission_queue) == 0

    def test_queued_counts_against_tenant_quota(self, abc_registry):
        service = QueryService(
            abc_registry,
            policy=AdmissionPolicy(max_total_queries=1, queue_limit=8),
            default_quota=TenantQuota(max_queries=2))
        service.register("a", "q", PAIR)
        service.register("b", "q1", PAIR)    # queued
        service.register("b", "q2", PAIR)    # queued
        with pytest.raises(ServiceError, match="query quota"):
            service.register("b", "q3", PAIR)

    def test_tenant_limit(self, abc_registry):
        service = QueryService(
            abc_registry, policy=AdmissionPolicy(max_tenants=1))
        service.register("a", "q", PAIR)
        with pytest.raises(ServiceError, match="tenant limit"):
            service.register("b", "q", PAIR)

    def test_drop_tenant(self, abc_registry):
        service = QueryService(abc_registry)
        service.register("a", "q1", PAIR)
        service.register("a", "q2", SINGLE)
        assert service.drop_tenant("a") == 2
        assert service.total_queries == 0
        assert "a" not in service.tenants()


class TestManifest:
    def test_round_trip(self, abc_registry, tmp_path):
        path = str(tmp_path / "queries.json")
        service = QueryService(
            abc_registry, manifest_path=path,
            default_quota=TenantQuota(max_queries=4))
        service.register("alice", "pairs", PAIR,
                         quota=TenantQuota(max_queries=2))
        service.register("bob", "all_a", SINGLE)
        service.withdraw("bob", "all_a")
        service.register("bob", "pairs", PAIR)

        restored = QueryService(abc_registry, manifest_path=path)
        assert restored.tenants() == ["alice", "bob"]
        assert restored.queries("alice") == {"pairs": PAIR}
        assert restored.queries("bob") == {"pairs": PAIR}
        assert restored.tenant("alice").quota.max_queries == 2
        # The restored service is live: queries actually run.
        _feed_pairs(restored, count=2)
        assert restored.drain("alice")

    def test_manifest_written_atomically(self, abc_registry, tmp_path):
        path = tmp_path / "queries.json"
        service = QueryService(abc_registry, manifest_path=str(path))
        service.register("alice", "pairs", PAIR)
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert not (tmp_path / "queries.json.tmp").exists()

    def test_rejects_foreign_file(self, abc_registry, tmp_path):
        path = tmp_path / "queries.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ServiceError, match="manifest"):
            QueryService(abc_registry, manifest_path=str(path))


class TestIntrospection:
    def test_stats_and_gauges(self, abc_registry):
        service = QueryService(abc_registry)
        service.register("alice", "pairs", PAIR)
        service.register("bob", "pairs", PAIR)
        _feed_pairs(service, count=3)
        service.drain("alice", limit=1)
        stats = service.stats()
        assert stats["tenants"] == 2
        assert stats["queries"] == 2
        assert stats["shared_plans"]["shared_queries"] == 2
        gauges = service.tenant_gauges()
        assert gauges["alice"]["results_total"] == 3
        assert gauges["alice"]["results_delivered_total"] == 1
        assert gauges["alice"]["pending_results"] == 2
        assert gauges["bob"]["pending_results"] == 3

    def test_flush_releases_negation_matches(self, abc_registry):
        service = QueryService(abc_registry)
        service.register(
            "alice", "no_c",
            "EVENT SEQ(A x, B y, !(C z))\nWHERE x.id = y.id AND "
            "z.id = x.id\nWITHIN 10\nRETURN x.id")
        service.feed(Event("A", 1.0, {"id": 1, "v": 1}))
        service.feed(Event("B", 2.0, {"id": 1, "v": 2}))
        assert service.drain("alice") == []   # negation still pending
        assert service.flush() == 1
        assert len(service.drain("alice")) == 1

    def test_metrics_exporter_tenant_section(self, abc_registry,
                                             tmp_path):
        from repro.obs import MetricsExporter
        from repro.obs.export import _TENANT_GAUGES, parse_prometheus
        service = QueryService(abc_registry)
        service.register("alice", "pairs", PAIR)
        _feed_pairs(service, count=2)
        path = str(tmp_path / "metrics.prom")
        exporter = MetricsExporter(service.processor, path,
                                   service=service)
        text = exporter.flush()
        samples = parse_prometheus(text)
        key = ("sase_tenant_registered_queries", (("tenant", "alice"),))
        assert samples[key] == 1.0
        pending = ("sase_tenant_pending_results", (("tenant", "alice"),))
        assert samples[pending] == 2.0
        # Round-trip parity: every JSON tenant gauge appears as a
        # Prometheus sample with the same value.
        snapshot = exporter.snapshot()
        for tenant, gauges in snapshot["tenants"].items():
            for metric, field, _ in _TENANT_GAUGES:
                sample = samples[(metric, (("tenant", tenant),))]
                assert sample == float(gauges[field])
